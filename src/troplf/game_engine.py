"""Bipartite mean payoff games: values, winning sets, strategies, witnesses.

A game has m Max nodes (the rows) and n Min nodes (the columns) and is given
by two max-plus payment matrices A and B: Min moving j -> i pays -a_ij, Max
moving i -> l receives b_il, and one turn is one Min move followed by one Max
move.  Values are long-run average payments per turn.  A MeanPayoffGame
holds the payments as integer grids a, b (None for -inf) over one positive
denominator d.

The oracle solves a game exactly by min-max policy iteration (Cochet-Terrasson,
Gaubert & Gunawardena 1998; Dhingra & Gaubert 2006).  Min improves a
positional strategy tau; against each tau, Howard's multichain iteration finds
Max's best reply on the one-player max-plus matrix
M^tau[j,l] = b[tau(j),l] - a[tau(j),j].  Values are cycle means P/Q held as
reduced integer pairs, with biases V/Q over the same denominator, and every
comparison is integer arithmetic.  One run yields the exact values chi of all
Min nodes, the winning sets and optimal strategies sigma and tau for both
players.

Policy iteration works on those grids, as numpy masks and weights.  Scaling
every payment by d > 0 scales every value by d and keeps every strategy
optimal, so values are divided by d once at the end.  ``integer_grids`` puts
int and Fraction entries over their least common denominator.

``_policy_iteration`` is the one policy-iteration routine, and it runs on
numpy arrays, from a given strategy pair or from up to ``steps`` value
steps by its own best replies, from 0 or from a given start vector (one
step from 0: the greedy pair).  It returns its last evaluation's biases,
as V/Q, with the values and strategies.  It starts
on int64 whenever the payments allow it and moves the weights to Python
ints (object arrays) once an evaluation's exact biases outgrow int64, so
every number it computes is exact.  A round does only the numpy work its
step needs: the evaluation ranks the cycle means, and the steps filter the
moves by rank only when it found two or more.
``_oracle_core`` solves a lone game cold, building its arrays from the
grids (``integer_oracle``, ``value_report``, ``feasibility_witness``), for
the API and the tests: no solve runs a lone game.  The solver's games are
the parametric game of one ``HomogeneousInstance`` at many lambda, and the
instance owns them: ``report(lam)`` answers from its memo or by a run
started from the last query's strategies, or, on a large game, from
``VALUE_STEPS`` value steps from the last query's biases (from 0 for the
first), so its sigma and tau are an optimal pair, not necessarily the pair
a cold run returns, and
``arrays(lam)`` gives the masks and weights of its last run to the rest of
a solve: the grids times lambda's denominator, as ``spectral.game_at``
forms them.  On those arrays, ``min_graph`` and ``max_graph`` build the
one-player graphs against sigma and tau whose longest paths (``trop_core``)
give ``least_solution_fixed``, the certificates' witnesses and potentials,
the strategy sandwich of ``spectral.reconstruct`` and negative Newton's
steps.  ``restrict_min`` gives tau's one-player game as a Fraction
TropMatrix, for cross-checks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Optional

import numpy as np

from .trop_core import MAX_PLUS, NEG_INF, ExtendedNumber, TropMatrix, longest_paths


class AssumptionViolated(Exception):
    """A payment matrix breaks Assumption 1 (B row) or 2 (A column)."""


class InternalCertificateMismatch(Exception):
    """A constructed witness failed verification: indicates an oracle bug."""


class SecondSubsystemViolated(Exception):
    """The Kleene least solution violates the discarded constant-side rows."""


class PolicyIterationStalled(Exception):
    """Policy iteration ran past its round cap: indicates an oracle bug."""


class MeanPayoffGame:
    """Validated bipartite mean payoff game on m Max x n Min nodes.

    The payments are a/d and b/d: ``a`` and ``b`` are same-shape integer
    grids (tuples of rows, None for -inf) and ``d`` is a positive integer,
    the least common denominator of the payments wherever this package
    builds a game.
    """

    __slots__ = ("m", "n", "a", "b", "d")

    def __init__(self, a: tuple, b: tuple, d: int = 1):
        self.m, self.n = len(a), len(a[0])
        self.a, self.b, self.d = a, b, d
        problems = validate_shape(a, b)
        if problems:
            raise AssumptionViolated("; ".join(problems))

    def min_moves(self, j: int) -> list:
        """Max nodes reachable from Min node j (finite a_ij)."""
        return [i for i in range(self.m) if self.a[i][j] is not None]

    def max_moves(self, i: int) -> list:
        """Min nodes reachable from Max node i (finite b_il)."""
        return [l for l, x in enumerate(self.b[i]) if x is not None]


def integer_grids(*matrices) -> tuple:
    """(grids, d): matrices of int or Fraction entries (None for -inf) times d,
    the lcm of all their denominators, as tuples of integer rows."""
    d = 1
    for rows in matrices:
        for row in rows:
            for x in row:
                if x is not None and x.denominator != 1:
                    d = lcm(d, x.denominator)
    grids = tuple(
        tuple(
            tuple(None if x is None else x.numerator * (d // x.denominator) for x in row)
            for row in rows
        )
        for rows in matrices
    )
    return grids, d


def validate_shape(a, b) -> list:
    """Assumption 1 (every row of b has a finite entry) and 2 (every column of a).

    Each scan stops at the first finite entry, so a dense game costs
    O(rows + cols).
    """
    problems = []
    for i, row in enumerate(b):
        for x in row:
            if x is not None:
                break
        else:
            problems.append(f"row {i} of B has no finite entry (Max node stuck)")
    for j in range(len(a[0])):
        for row in a:
            if row[j] is not None:
                break
        else:
            problems.append(f"column {j} of A has no finite entry (Min node stuck)")
    return problems


@dataclass(frozen=True)
class MaxStrategy:
    """Positional strategy for Max: choices[i] is the Min node picked at row i."""

    choices: tuple

    def __call__(self, i: int) -> int:
        return self.choices[i]

    def check(self, game: MeanPayoffGame) -> None:
        if len(self.choices) != game.m:
            raise ValueError("Max strategy has the wrong length")
        for i, l in enumerate(self.choices):
            if not (0 <= l < game.n) or game.b[i][l] is None:
                raise ValueError(f"Max strategy picks a forbidden move {i}->{l}")


@dataclass(frozen=True)
class MinStrategy:
    """Positional strategy for Min: choices[j] is the Max node picked at column j."""

    choices: tuple

    def __call__(self, j: int) -> int:
        return self.choices[j]

    def check(self, game: MeanPayoffGame) -> None:
        if len(self.choices) != game.n:
            raise ValueError("Min strategy has the wrong length")
        for j, i in enumerate(self.choices):
            if not (0 <= i < game.m) or game.a[i][j] is None:
                raise ValueError(f"Min strategy picks a forbidden move {j}->{i}")


@dataclass(frozen=True)
class OracleReport:
    """integer_oracle output: winning Min nodes plus both witness strategies."""

    winning: frozenset  # Min nodes j with chi_j >= 0
    winning_max: frozenset  # Max nodes on the winning side
    sigma: MaxStrategy  # cycles of G^sigma reachable from winning nodes are >= 0
    tau: MinStrategy  # cycles of G^tau reachable from losing nodes are < 0


@dataclass(frozen=True)
class GameValueReport:
    """Exact per-Min-node values with the winning set and both strategies."""

    chi: tuple  # Fractions
    winning: frozenset
    sigma: MaxStrategy
    tau: MinStrategy


def restrict_min(game: MeanPayoffGame, tau: MinStrategy) -> TropMatrix:
    """Max-plus n x n matrix of the max-only map f^tau."""
    tau.check(game)
    grid = []
    for j in range(game.n):
        i = tau.choices[j]
        a = game.a[i][j]
        grid.append(
            [NEG_INF if b is None else ExtendedNumber.finite(Fraction(b - a, game.d))
             for b in game.b[i]]
        )
    return TropMatrix(grid, semiring=MAX_PLUS)


# ---------------------------------------------------------------------------
# Exact oracle: min-max policy iteration.
# ---------------------------------------------------------------------------


def _round_cap(m: int, n: int) -> int:
    """Improvement rounds (Max and Min together) allowed per game: policy
    iteration needs a handful on every game seen so far, and the cap only
    turns a cycling bug into PolicyIterationStalled."""
    return 100 * (m + n + 1)


def _payment_dtype(n: int, W: int, vmax: int = 0):
    """The numpy dtype for policy iteration on a game with n Min nodes, W
    bounding every |payment| + 1, while its biases V stay within vmax in
    absolute value: int64 when every number the run holds in its arrays fits,
    else Python ints (object), so large payments stay exact instead of
    wrapping.  A run starts with vmax = 0 and asks again after each
    evaluation (``_policy_iteration``)."""
    # Max's key Q*b + V and Min's key best - Q*a, with Q <= n a cycle length
    # and |a|, |b| < W, hold at most 2nW + vmax, the arc weights b - a stay
    # below 2W, and the sentinels -B and +B of the masked argmax and argmin,
    # B = (2n + 1)W + vmax + 1, lie beyond every key and inside this bound.
    return np.int64 if (2 * n + 1) * W + vmax + 2 < 2**62 else object


def grid_arrays(grid) -> tuple:
    """(mask, weights) of an integer grid: its finite entries, and its entries
    with 0 at -inf, int64 when every entry fits, else Python ints (object).
    Both are read-only, since solver code and the certificate check share them."""
    cells = np.array(grid, dtype=object)
    mask = cells != None  # noqa: E711 -- elementwise
    cells[~mask] = 0
    try:
        cells = cells.astype(np.int64)
    except OverflowError:
        pass
    mask.flags.writeable = cells.flags.writeable = False
    return mask, cells


def abs_max(w) -> int:
    """max |w| as a Python int, 0 when w is empty (abs of int64 -2**63 wraps)."""
    return max(int(w.max(initial=0)), -int(w.min(initial=0)))


def _game_arrays(a, b) -> tuple:
    """((masks of a and b, weights of a and b), W): an integer game as
    _policy_iteration reads it, W bounding every |payment| + 1."""
    (Am, Aw), (Bm, Bw) = grid_arrays(a), grid_arrays(b)
    W = 1 + max(abs_max(Aw), abs_max(Bw))
    dt = _payment_dtype(len(a[0]), W)
    return (Am, Bm, Aw.astype(dt, copy=False), Bw.astype(dt, copy=False)), W


def _evaluate(nxt, w, ref):
    """Cycle means, biases and mean ranks of the policy graph j -> nxt[j].

    For strategies tau and sigma, nxt[j] = sigma(tau(j)) and arc j weighs
    w_j = b[tau(j)][nxt[j]] - a[tau(j)][j].  Returns lists (P, Q, V, rank,
    means): from node j the graph reaches a cycle of mean eta_j = P_j/Q_j
    (reduced, Q_j > 0), the (P, Q) at means[rank[j]], means holding the
    distinct ones in increasing order; the bias v_j = V_j/Q_j obeys
    v_j = w_j - eta_j + v_next(j).  A cycle's nodes take the index its mean
    gets as it closes; the indices become ranks, by cross-multiplication,
    only when there are two or more.  Each cycle's bias is pinned at its
    smallest node r, to ref's bias there when ref (the previous values, or
    None) gives r the same mean, else to 0.  The pin depends only on the
    cycle, so a cycle that survives a strategy change keeps its biases:
    that makes every improvement round a strict lexicographic step.
    """
    n = len(nxt)
    P = [0] * n
    Q = [0] * n
    V = [0] * n
    rank = [0] * n
    found = {}  # distinct (p, q) -> index, in the order the cycles close
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 evaluated
    for s in range(n):
        walk = []
        u = s
        while state[u] == 0:
            state[u] = 1
            walk.append(u)
            u = nxt[u]
        if state[u] == 1:  # the walk closed a new cycle
            k = walk.index(u)
            cyc = walk[k:]
            del walk[k:]
            k = cyc.index(min(cyc))
            cyc = cyc[k:] + cyc[:k]
            total = sum(w[c] for c in cyc)
            g = gcd(total, len(cyc))
            p, q = total // g, len(cyc) // g
            k = found.setdefault((p, q), len(found))
            r = cyc[0]
            same = ref is not None and ref[0][r] == p and ref[1][r] == q
            V[r] = ref[2][r] if same else 0
            for c in cyc:
                P[c], Q[c], rank[c], state[c] = p, q, k, 2
            for c in reversed(cyc[1:]):
                V[c] = q * w[c] - p + V[nxt[c]]
        for c in reversed(walk):
            t = nxt[c]
            P[c], Q[c], rank[c], state[c] = P[t], Q[t], rank[t], 2
            V[c] = Q[t] * w[c] - P[t] + V[t]
    means = sorted(found, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    if len(means) > 1:
        sorted_at = {found[pq]: r for r, pq in enumerate(means)}
        rank = [sorted_at[k] for k in rank]
    return P, Q, V, rank, means


def _policy_iteration(arrays, W, start=None, stats=None, steps=1, x0=None):
    """Exact values and optimal positional strategies of an integer game.

    ``arrays`` is the game as ``_game_arrays`` gives it: the masks of the
    finite entries of a and b, and their weights (0 at -inf) in one numpy
    dtype, int64 or object as ``_payment_dtype(n, W)`` picks it, W bounding
    every |payment| + 1.  ``start`` is a legal strategy pair (sigma, tau) to
    start from.  With ``x0``, a start vector of Python ints (a run's
    biases), or without a start, the run starts instead from the pair of up
    to ``steps`` steps of the Shapley operator
    x_j <- min_i (-a_ij + max_l (b_il + x_l)) from x0 - max x0, or from
    x = 0 (Zwick & Paterson, TCS 1996; Puterman & Shin's modified policy
    iteration, 1978): the rounds' best replies with Q = 1 and V = x, max x
    subtracted after each, until the pair repeats.  One step from 0 is the
    greedy pair.  A step lowers min x by less than 4W, so
    |x| < (max x0 - min x0) + 4W*steps enters ``_payment_dtype`` as vmax.
    On object arrays, where that passes int64, or with one step, the run
    declines x0 and starts from ``start``, or without one takes one step
    from 0.  Policy iteration converges from any start, to the same values.

    ``_evaluate`` gives the biases V as Python ints.  After each evaluation
    the run asks ``_payment_dtype`` again with max|V|; once int64 could no
    longer hold the keys, the weights become object arrays and stay so, so
    no number is ever computed in a dtype that could wrap, and the results
    are those of a run on object arrays throughout.

    Returns (chi, sigma, tau, rounds, bigint, (Q, V)) with chi[j] the
    Fraction value of Min node j (one Fraction object per distinct mean),
    rounds the improvement rounds taken, bigint whether the run ended on
    object arrays, and Q and V the lists of the last evaluation, the
    returned pair's, whose biases are V_j/Q_j; ``stats``, an OracleStats
    or None, books the run and the value steps of a start of more than
    one.  Values compare lexicographically as
    (eta, v), i.e. as the germ eta*t + v for large t.  Max's step moves each
    row to the lex-largest (eta_l, b_il + v_l); Min's step moves each column
    to the lex-smallest (top_i, best_i - a_ij) over its rows, where (top_i,
    best_i) is row i's best Max reply.  Both switch only on strict
    improvement, to the first best index.  The moves a step may not take get
    the key -B or +B, B = (2n + 1)W + max|V| + 1, beyond every other; moves
    are filtered by eta's rank only when the evaluation found two means or
    more.  At the end (eta, v) is a lexicographic fixed point of the Shapley
    operator and of its restrictions to sigma and to tau, so both are
    optimal from every node.
    """
    Am, Bm, Aw, Bw = arrays
    m, n = Am.shape
    dt = Aw.dtype
    cap = _round_cap(m, n)
    rows, cols = np.arange(m), np.arange(n)
    # Ranks lie in 0..n-1; these offsets push the ranks of -inf entries out
    # of reach of every row's best (every row of b and column of a has a
    # finite entry), so no mask is applied on a ranked round.
    Boff = np.where(Bm, 0, -n - 1)
    Aoff = np.where(Am, 0, n + 1)

    def max_step(rk, Qv, Vv, B):
        """Per row: best eta rank (None unranked), the keys Q_l*b_il + V_l
        of the moves of that rank (else -B), best key, argmax; a value step
        (Qv None) reads its keys b_il + V_l off Bk."""
        val = Bk + Vv if Qv is None else Qv * Bw + Vv
        top, keep = None, Bm
        if rk is not None:
            rank = rk + Boff
            top = rank.max(axis=1)
            keep = rank == top[:, None]
        masked = val if Qv is None else np.where(keep, val, -B)
        arg = masked.argmax(axis=1)
        return top, masked, masked[rows, arg], arg

    def min_step(top, best, Qtop, B):
        """Per column: the keys of the rows of least rank (else +B), least
        key, argmin; a value step (Qtop None) reads a off Ak."""
        cand = best[:, None] - (Ak if Qtop is None else Qtop[:, None] * Aw)
        keep = Am
        if top is not None:
            rank = top[:, None] + Aoff
            keep = rank == rank.min(axis=0)
        masked = cand if Qtop is None else np.where(keep, cand, B)
        arg = masked.argmin(axis=0)
        return masked, masked[arg, cols], arg

    B = (2 * n + 1) * W + 1  # plus max|V| after each evaluation
    X = 4 * steps * W + (0 if x0 is None else max(x0) - min(x0))  # bounds |x|
    if steps == 1 or dt == object or _payment_dtype(n, W, X) is object:
        steps, X, x0 = 1, 0, None
    if start is None or x0 is not None:
        # As -X < x <= 0, b = a = -(B + X) puts a move beyond every key.
        Bk, Ak = np.where(Bm, Bw, -B - X), np.where(Am, Aw, -B - X)
        if x0 is None:
            x = np.zeros(n, dtype=dt)
        else:
            hi = max(x0)
            x = np.array([v - hi for v in x0], dtype=dt)
        pair = None
        for k in range(1, steps + 1):
            best, sigma = max_step(None, None, x, None)[2:]
            _masked, y, tau = min_step(None, best, None, None)
            if pair is not None and (sigma == pair[0]).all() and (tau == pair[1]).all():
                break
            pair = sigma, tau
            if k < steps:
                x = y - y.max()
        start = pair
        if steps > 1 and stats is not None:
            stats.seeded_runs += 1
            stats.value_steps += k
    sigma, tau = (np.asarray(s, dtype=np.intp) for s in start)
    ref = None
    rounds = ranked = 0
    while True:
        paid = Aw[tau, cols]
        while True:  # Howard: Max's best reply to tau
            rounds += 1
            if rounds > cap:
                raise PolicyIterationStalled(f"no fixed point after {cap} rounds")
            nxt = sigma[tau]
            P, Q, V, rank, means = _evaluate(nxt.tolist(), (Bw[tau, nxt] - paid).tolist(), ref)
            vmax = max(map(abs, V))
            if dt != object and _payment_dtype(n, W, vmax) is object:
                Aw, Bw, dt = Aw.astype(object), Bw.astype(object), np.dtype(object)
                paid = Aw[tau, cols]
            rk = np.array(rank) if len(means) > 1 else None
            ranked += rk is not None
            Qv = np.array(Q, dtype=dt)
            top, masked, best, arg = max_step(rk, Qv, np.array(V, dtype=dt), B + vmax)
            # sigma's key is below the best exactly when sigma's move is not
            # of the top rank or falls short of the best key among them.
            switch = best > masked[rows, sigma]
            sigma = np.where(switch, arg, sigma)
            if not switch[tau].any():
                break
        cmasked, cbest, carg = min_step(top, best, Qv[arg], B + vmax)
        switch = cbest < cmasked[tau, cols]
        if not switch.any():
            break
        tau = np.where(switch, carg, tau)
        ref = (P, Q, V)
    values = [Fraction(p, q) for p, q in means]
    chi = tuple([values[k] for k in rank])
    if stats is not None:
        stats.runs += 1
        stats.rounds += rounds
        stats.ranked_rounds += ranked
        stats.bigint_runs += dt == object
    return chi, tuple(sigma.tolist()), tuple(tau.tolist()), rounds, dt == object, (Q, V)


def _report(chi, d: int, sigma, tau) -> GameValueReport:
    """The report of a game over denominator d from its grids' values chi.
    A run's chi repeats one Fraction object per distinct mean, so each
    object is divided by d and compared with 0 once."""
    distinct = {id(c): c for c in chi}
    if d != 1:
        distinct = {k: c / d for k, c in distinct.items()}
        chi = tuple([distinct[id(c)] for c in chi])
    nonneg = {id(c) for c in distinct.values() if c >= 0}
    win = frozenset(j for j, c in enumerate(chi) if id(c) in nonneg)
    return GameValueReport(chi, win, MaxStrategy(sigma), MinStrategy(tau))


def _oracle_core(m, n, a, b):
    """(chi, winning Min nodes, winning Max nodes, sigma, tau) of an integer
    game, by a cold run of policy iteration."""
    chi, sigma, tau = _policy_iteration(*_game_arrays(a, b))[:3]
    win_min = frozenset(j for j in range(n) if chi[j] >= 0)
    win_max = frozenset(i for i in range(m) if any(b[i][l] is not None for l in win_min))
    return chi, win_min, win_max, sigma, tau


def integer_oracle(game: MeanPayoffGame) -> OracleReport:
    """Partition Min nodes into {chi >= 0} and {chi < 0} with witness strategies.

    Policy iteration runs on the integer grids, d times the payments, which
    leaves value signs unchanged.  The strategies are optimal, so they
    certify both sides of the partition.
    """
    _chi, win_min, win_max, sigma, tau = _oracle_core(game.m, game.n, game.a, game.b)
    return OracleReport(win_min, win_max, MaxStrategy(sigma), MinStrategy(tau))


def scaled_copy(game: MeanPayoffGame, mult: int, b_shift: Fraction = Fraction(0)) -> MeanPayoffGame:
    """Game with payments mult*a/d and mult*b/d + b_shift (exact).

    The grids are put over the least common denominator of the new payments,
    as integer_grids would put them.
    """
    shift = Fraction(b_shift)
    d = lcm(game.d, shift.denominator)
    k, s = mult * (d // game.d), shift.numerator * (d // shift.denominator)
    a = [[None if x is None else k * x for x in row] for row in game.a]
    b = [[None if x is None else k * x + s for x in row] for row in game.b]
    g = gcd(d, *(x for row in a + b for x in row if x is not None))

    def grid(rows):
        return tuple(tuple(None if x is None else x // g for x in row) for row in rows)

    return MeanPayoffGame(grid(a), grid(b), d // g)


def value_report(game: MeanPayoffGame) -> GameValueReport:
    """Exact values of all Min nodes with optimal strategies for both players.

    Policy iteration runs on the integer grids, whose values are d times the
    game's; strategies are the same for both.
    """
    chi, _win_min, _win_max, sigma, tau = _oracle_core(game.m, game.n, game.a, game.b)
    return _report(chi, game.d, sigma, tau)


def game_value(game: MeanPayoffGame, j: int) -> Fraction:
    """Exact chi_j by policy iteration."""
    return value_report(game).chi[j]


@dataclass
class OracleStats:
    """The policy-iteration work of one instance's parametric game."""

    runs: int = 0  # policy-iteration runs
    memo_hits: int = 0  # queries answered by the instance's memo of solved games
    rounds: int = 0  # improvement rounds over all runs
    ranked_rounds: int = 0  # rounds whose evaluation found more than one cycle mean
    bigint_runs: int = 0  # runs that ended on Python ints (object arrays)
    seeded_runs: int = 0  # runs started from value steps (steps > 1), cold or warm
    value_steps: int = 0  # value steps taken for those starts


# Solved games kept in an instance's memo.
GAME_MEMO_SIZE = 8
# On games of at least VALUE_STEP_ENTRIES entries per grid (the benchmark's
# 31 x 31 and 51 x 51 games) an instance's runs start from up to VALUE_STEPS
# value steps: the first from 0, and each later one from the last run's
# biases when that run had the same denominator.  Below, the first run
# starts from one step, the greedy pair, and later runs from the last pair:
# on games of up to 81 entries the numpy steps cost more than the one or two
# rounds they save.  On the larger games 10 to 30 steps from 0 solve about
# equally fast, and 5 or fewer leave rounds unsaved.
VALUE_STEP_ENTRIES = 256
VALUE_STEPS = 15


class HomogeneousInstance:
    """A program's scaled homogeneous form, and policy iteration on its
    parametric game.

    U = [[C],[u]] and V = [[D],[v]] with C=[A,c], D=[B,d], u=[p,r], v=[q,s]
    are integer grids with None for -inf, so C, D, u and v are ``U[:-1]``,
    ``V[:-1]``, ``U[-1]`` and ``V[-1]``, of m + 1 rows and n + 1 columns.
    All finite entries are integers after multiplying by ``scale`` (the lcm
    of the original denominators), and the minimal zero of the scaled
    spectral function is ``scale`` times the original one.  ``image`` is
    their masks and weights (``grid_arrays``), and ``M``, an int, bounds
    every |entry|.

    The parametric game is U and V(lam), where V(lam) is V with lam added
    to the finite entries of its last row: ``spectral.game_at``'s games,
    asked by lam and formed as integer grids d*U and d*V, d the denominator
    of lam, with lam's numerator added to the last row, over the
    denominator d.  They share their support, so it is validated once, and
    their masks and weights come from ``image`` in each dtype a run asks
    for.  Each query builds the shifted last row in Python ints and takes
    the game's exact payment bound from it and the other rows, so a run
    starts on the dtype a cold run would, and hands the bound to
    ``_policy_iteration``.

    ``report`` keeps the last GAME_MEMO_SIZE answers, each with its run's
    biases, since a solve asks about the same game more than once (the
    perturbed game at the optimum is probed by Newton and again by the
    certificate).  ``last`` holds the strategies of the last query
    answered, and ``biases`` that query's denominator d and its run's
    biases V_j/Q_j as (Q, V), so the two always describe the same report.
    A run on a game of at least ``VALUE_STEP_ENTRIES`` entries per grid
    starts from up to ``VALUE_STEPS`` of ``_policy_iteration``'s value
    steps: the first from 0, as a cold run does, and a later one from
    floor(V_j/Q_j) when its denominator is d (biases over another
    denominator are not rescaled).  Every other run starts from ``last``
    (the first from one value step, the greedy pair), and so does a run
    whose value steps decline.  So the runs follow the caller's games.  A
    memo hit counts as that query, and moves ``last`` and ``biases``, only
    where the last Min node's value (phi, in ``spectral``'s terms) is
    positive: such a lam lies right of every zero of phi, as the games just
    left of it that Newton asks next usually do, while at a zero the next
    games may lie on the negative side, nearer the last run.  So a report's
    sigma and tau are an optimal pair of the game, not necessarily a cold
    run's.  ``stats`` counts the
    runs, their rounds and ranked rounds, the runs that ended on Python
    ints, the memo hits, and the runs started from value steps with their
    steps.
    """

    def __init__(self, U: tuple, V: tuple, scale: int, image: tuple):
        self.U, self.V, self.scale, self.image = U, V, scale, image
        self.m, self.n = len(U) - 1, len(U[0]) - 1
        self.k_bound = min(self.m, self.n)  # the turn-count bound in denominators and caps
        Vw = image[3]
        self._rest = max(abs_max(image[2]), abs_max(Vw[:-1]))  # all but V's last row
        self.M = max(self._rest, abs_max(Vw[-1]))
        self.stats = OracleStats()
        self.last = None  # (sigma, tau) a run starts from
        self.biases = None, None  # (d, (Q, V)) of the run behind last: biases V/Q
        self.memo = OrderedDict()  # Fraction lam -> (GameValueReport, its run's (Q, V))
        self._problems = validate_shape(U, V)  # raised by the first query
        self._weights = {}  # dtype -> weights of U and of V's other rows
        self._built = None  # (lam, arrays) of the last game built
        self._constraints = None

    def arrays(self, lam) -> tuple:
        """((masks of U and V, weights of d*U and d*V with V's last row
        shifted), W, d): the game at lam as _policy_iteration and
        least_solution_fixed read it, W bounding every |payment| + 1 of the
        grids and d their denominator.  The last game built is kept, so right
        after ``report``'s run on it this returns that run's arrays; callers
        treat all arrays as read-only."""
        lam = Fraction(lam)
        if self._built is None or self._built[0] != lam:
            self._built = lam, self._build(lam)
        return self._built[1]

    def _build(self, lam: Fraction) -> tuple:
        d = lam.denominator
        if self._problems:
            raise AssumptionViolated("; ".join(self._problems))
        Um, Vm, Uw, Vw = self.image
        last = [0 if x is None else d * x + lam.numerator for x in self.V[-1]]
        W = 1 + max(d * self._rest, max(abs(x) for x in last))
        # numpy multiplies int64 weights only by a factor that fits int64
        dt = _payment_dtype(Um.shape[1], W) if d < 2**62 else object
        if dt not in self._weights:
            self._weights[dt] = Uw.astype(dt, copy=False), Vw[:-1].astype(dt, copy=False)
        Uw, Vr = self._weights[dt]
        Vw = np.empty(Vm.shape, dtype=dt)
        np.multiply(Vr, d, out=Vw[:-1])
        Vw[-1] = last
        return (Um, Vm, Uw * d if d != 1 else Uw, Vw), W, d

    def constraints(self) -> tuple:
        """The arrays of the constraint rows U[:-1] and V[:-1], as the game
        at 0 holds them; built once, since they do not depend on lambda."""
        if self._constraints is None:
            self._constraints = tuple(x[:-1] for x in self.arrays(0)[0])
        return self._constraints

    def report(self, lam) -> GameValueReport:
        """The exact values and an optimal strategy pair of the game at lam,
        from the memo when it holds them.  Raises AssumptionViolated when a
        row of V or a column of U is all -inf."""
        key = Fraction(lam)
        hit = self.memo.get(key)
        if hit is not None:
            self.memo.move_to_end(key)
            self.stats.memo_hits += 1
            rep, qv = hit
            if rep.chi[-1] > 0:
                self.last = rep.sigma.choices, rep.tau.choices
                self.biases = key.denominator, qv
            return rep
        arrays, W, d = self.arrays(key)
        steps = VALUE_STEPS if arrays[0].size >= VALUE_STEP_ENTRIES else 1
        x0 = None
        if steps > 1 and self.biases[0] == d:
            x0 = [v // q for q, v in zip(*self.biases[1])]
        chi, sigma, tau, _rounds, _bigint, qv = _policy_iteration(
            arrays, W, self.last, self.stats, steps, x0)
        self.last, self.biases = (sigma, tau), (d, qv)
        rep = _report(chi, d, sigma, tau)
        self.memo[key] = rep, qv
        if len(self.memo) > GAME_MEMO_SIZE:
            self.memo.popitem(last=False)
        return rep


# ---------------------------------------------------------------------------
# One-player graphs on the Min nodes, and the least solution of A x <= B^sigma x.
# ---------------------------------------------------------------------------


def min_graph(arrays, sigma) -> tuple:
    """(weights, mask) of Min's graph against sigma's choices on the Min
    nodes, with its weights negated: an arc j -> sigma(i) of weight
    a_ij - b_i,sigma(i) for each finite a_ij, the largest where rows share
    sigma(i), by a segment max of the rows."""
    Am, _Bm, Aw, Bw = arrays
    sigma = np.asarray(sigma, dtype=np.intp)
    vals = Aw - Bw[np.arange(len(sigma)), sigma][:, None]
    low = vals.min(initial=0) - 1  # initial: a program may have no constraint rows
    G = np.full((Am.shape[1],) * 2, low, dtype=vals.dtype)
    np.maximum.at(G, sigma, np.where(Am, vals, low))
    return G.T, (G > low).T


def max_graph(arrays, tau) -> tuple:
    """(weights, mask) of Max's graph against tau's choices on the Min
    nodes: an arc j -> l of weight b[tau(j)][l] - a[tau(j)][j] for each
    finite b[tau(j)][l]."""
    _Am, Bm, Aw, Bw = arrays
    tau = np.asarray(tau, dtype=np.intp)
    return Bw[tau] - Aw[tau, np.arange(len(tau))][:, None], Bm[tau]


def least_solution_fixed(arrays, sigma: MaxStrategy, l: int) -> tuple:
    """Least x with a x <= b^sigma x and x_l = 0, as ints (None for -inf).

    ``arrays`` is the game as ``_game_arrays`` gives it.  Rows i with
    sigma(i) != l say x_t >= a_ij - b_it + x_j for t = sigma(i), so x is the
    longest paths from l in Min's graph against sigma without the rows
    sigma sends to l.  Every row is verified afterwards: a failing row with
    sigma(i) = l raises SecondSubsystemViolated, any other
    InternalCertificateMismatch.  PositiveCycleDiverges propagates.  The
    first and the last indicate the caller's sigma was not actually winning.
    """
    Am, _Bm, Aw, Bw = arrays
    sig = np.array(sigma.choices, dtype=np.intp)
    w, mask = min_graph(arrays, sig)
    mask[:, l] = False  # the arcs into l, those of the rows sigma sends to l
    x = longest_paths(w, mask, l)
    vals = Aw - Bw[np.arange(len(sig)), sig][:, None]
    # Row i fails where a finite a_ij + x_j exceeds b_i,sigma(i) + x_sigma(i),
    # or exists while x_sigma(i) is -inf.
    fin = np.array([v is not None for v in x])
    xv = np.array([0 if v is None else v for v in x], dtype=Aw.dtype)
    fails = Am & fin & ((vals + xv > xv[sig][:, None]) | ~fin[sig][:, None])
    bad = fails.any(axis=1).nonzero()[0]
    if len(bad):
        i = int(bad[0])
        if sig[i] == l:
            raise SecondSubsystemViolated(f"row {i} fails against the constant bound")
        raise InternalCertificateMismatch(f"row {i} of the least solution fails A x <= B x")
    return tuple(x)


def feasibility_witness(game: MeanPayoffGame, i: int) -> Optional[tuple]:
    """A vector x with A x <= B x and x_i = 0, or None when chi_i < 0."""
    arrays, W = _game_arrays(game.a, game.b)
    chi, sigma = _policy_iteration(arrays, W)[:2]
    if chi[i] < 0:
        return None
    x = least_solution_fixed(arrays, MaxStrategy(sigma), i)
    return tuple(NEG_INF if v is None else ExtendedNumber(0, Fraction(v, game.d)) for v in x)

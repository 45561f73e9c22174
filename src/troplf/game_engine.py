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

Policy iteration, the brute-force play evaluation and ``least_solution_fixed``
work on those grids.  Scaling every payment by d > 0 scales every value by
d and keeps every strategy optimal, so values are divided by d once at the
end.  ``integer_grids`` is the one scaling routine: it puts int and Fraction
entries over their least common denominator, for ``spectral.LfpInstance``
and for ``MeanPayoffGame(A, B)``, which takes two Fraction TropMatrix
objects.  The solver builds its parametric game from grids
(``spectral.game_at``) and keeps solved games in a per-instance memo.  The
TropMatrix views ``game.A`` and ``game.B`` serve only the Fraction API
(``dynamic_operator``, ``restrict_max``, ``restrict_min``).

``lifting_oracle`` races two pseudo-polynomial energy liftings instead; it is
kept as a reference implementation that tests compare against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .trop_core import (
    MAX_PLUS,
    NEG_INF,
    POS_INF,
    ExtendedNumber,
    TropMatrix,
    cycle_time_vector,  # noqa: F401  (tests import it from here)
    ext,
    kleene_star_int,
    residual_apply,
    trop_matvec,
)


class AssumptionViolated(Exception):
    """A payment matrix breaks Assumption 1 (B row) or 2 (A column)."""


class TooLarge(Exception):
    """Brute-force enumeration would exceed the strategy-space guard."""


class InternalCertificateMismatch(Exception):
    """A constructed witness failed verification: indicates an oracle bug."""


class SecondSubsystemViolated(Exception):
    """The Kleene least solution violates the discarded constant-side rows."""


class PolicyIterationStalled(Exception):
    """Policy iteration ran past its round cap: indicates an oracle bug."""


BRUTE_FORCE_GUARD = 10**6


class MeanPayoffGame:
    """Validated bipartite mean payoff game on m Max x n Min nodes.

    The payments are a/d and b/d: ``a`` and ``b`` are integer grids (tuples of
    rows, None for -inf) and ``d`` is a positive integer, the least common
    denominator of the payments wherever this package builds a game.
    ``MeanPayoffGame(A, B)`` scales two max-plus TropMatrix objects by the lcm
    of their denominators; ``from_grids`` takes the grids directly.  ``A`` and
    ``B`` give the payments back as TropMatrix objects, built on first access.
    """

    __slots__ = ("m", "n", "a", "b", "d", "_A", "_B")

    def __init__(self, A: TropMatrix, B: TropMatrix):
        if A.semiring != MAX_PLUS or B.semiring != MAX_PLUS:
            raise ValueError("payment matrices must be max-plus")
        if (A.rows, A.cols) != (B.rows, B.cols):
            raise ValueError("payment matrices must share a shape")
        (a, b), d = integer_grids(
            *([[e.value if e.is_finite else None for e in row] for row in M.entries] for M in (A, B))
        )
        self._set(a, b, d)
        self._A, self._B = A, B

    @classmethod
    def from_grids(cls, a: tuple, b: tuple, d: int = 1) -> "MeanPayoffGame":
        """The game with payments a/d and b/d (same-shape integer grids)."""
        game = cls.__new__(cls)
        game._set(a, b, d)
        return game

    def _set(self, a, b, d) -> None:
        self.m, self.n = len(a), len(a[0])
        self.a, self.b, self.d = a, b, d
        self._A = self._B = None
        problems = validate_shape(a, b)
        if problems:
            raise AssumptionViolated("; ".join(problems))

    def _matrix(self, grid) -> TropMatrix:
        return TropMatrix(
            [[NEG_INF if x is None else ExtendedNumber.finite(Fraction(x, self.d)) for x in row]
             for row in grid]
        )

    @property
    def A(self) -> TropMatrix:
        if self._A is None:
            self._A = self._matrix(self.a)
        return self._A

    @property
    def B(self) -> TropMatrix:
        if self._B is None:
            self._B = self._matrix(self.b)
        return self._B

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
    """winning_oracle output: winning Min nodes plus both witness strategies."""

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


def dynamic_operator(game: MeanPayoffGame, x: Sequence) -> tuple:
    """f_j(x) = min_k(-a_kj + max_l(b_kl + x_l)) = A# (B x)."""
    return residual_apply(game.A, trop_matvec(game.B, [ext(e) for e in x]))


def restrict_max(game: MeanPayoffGame, sigma: MaxStrategy) -> TropMatrix:
    """Min-plus n x n matrix of the min-only map f^sigma (x -> A# B^sigma x)."""
    sigma.check(game)
    n = game.n
    grid = [[None] * n for _ in range(n)]
    for j in range(n):
        for l in range(n):
            acc = None
            for i in range(game.m):
                if sigma.choices[i] != l:
                    continue
                a = game.A.entries[i][j]
                if not a.is_finite:
                    continue
                val = game.B.entries[i][l].value - a.value
                if acc is None or val < acc:
                    acc = val
            grid[j][l] = ExtendedNumber.finite(acc) if acc is not None else None
    return TropMatrix(
        [[e if e is not None else POS_INF for e in row] for row in grid],
        semiring="min_plus",
    )


def restrict_min(game: MeanPayoffGame, tau: MinStrategy) -> TropMatrix:
    """Max-plus n x n matrix of the max-only map f^tau."""
    tau.check(game)
    n = game.n
    grid = []
    for j in range(n):
        i = tau.choices[j]
        a = game.A.entries[i][j].value
        grid.append(
            [
                ExtendedNumber.finite(b.value - a) if b.is_finite else NEG_INF
                for b in game.B.entries[i]
            ]
        )
    return TropMatrix(grid, semiring=MAX_PLUS)


def _play_cycle(a, b, j: int, tau, sigma) -> tuple:
    """(total payment, length) of the cycle the play from Min node j reaches."""
    first_seen = {j: 0}
    payments = []
    cur = j
    while True:
        i = tau[cur]
        nxt = sigma[i]
        payments.append(b[i][nxt] - a[i][cur])
        if nxt in first_seen:
            cycle = payments[first_seen[nxt]:]
            return sum(cycle), len(cycle)
        first_seen[nxt] = len(payments)
        cur = nxt


def play_outcome(game: MeanPayoffGame, j: int, tau: MinStrategy, sigma: MaxStrategy) -> Fraction:
    """Mean payment per turn of the unique cycle reached from Min node j."""
    tau.check(game)
    sigma.check(game)
    total, length = _play_cycle(game.a, game.b, j, tau.choices, sigma.choices)
    return Fraction(total, length * game.d)


def _strategy_spaces(game: MeanPayoffGame):
    min_supports = [game.min_moves(j) for j in range(game.n)]
    max_supports = [game.max_moves(i) for i in range(game.m)]
    size = 1
    for s in min_supports:
        size *= len(s)
    for s in max_supports:
        size *= len(s)
    return min_supports, max_supports, size


def brute_force_value(game: MeanPayoffGame, j: int) -> Fraction:
    """min over tau of max over sigma of play_outcome, by full enumeration.

    Plays run on the integer payments; their means (total, length) compare
    by cross-multiplication.
    """
    min_supports, max_supports, size = _strategy_spaces(game)
    if size > BRUTE_FORCE_GUARD:
        raise TooLarge(f"strategy space of size {size} exceeds the guard")
    a, b = game.a, game.b
    best = None
    for tau in product(*min_supports):
        worst = None
        for sigma in product(*max_supports):
            total, length = _play_cycle(a, b, j, tau, sigma)
            if worst is None or total * worst[1] > worst[0] * length:
                worst = (total, length)
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    return Fraction(best[0], best[1] * game.d)


# ---------------------------------------------------------------------------
# Exact oracle: min-max policy iteration.
# ---------------------------------------------------------------------------


def _round_cap(m: int, n: int) -> int:
    """Improvement rounds (Max and Min together) allowed per game.

    Policy iteration needs a handful of rounds on every game seen so far; the
    cap only turns a cycling bug into PolicyIterationStalled, and it bounds
    the biases for the int64 overflow check in _policy_iteration.
    """
    return 100 * (m + n + 1)


def _evaluate(tau, sigma, a, b, ref):
    """Cycle means and biases of the policy graph j -> sigma(tau(j)).

    Arc j -> l weighs w_j = b[tau(j)][l] - a[tau(j)][j].  Returns lists
    (P, Q, V): from node j the graph reaches a cycle of mean eta_j = P_j/Q_j
    (reduced, Q_j > 0), and the bias v_j = V_j/Q_j obeys
    v_j = w_j - eta_j + v_next(j).  Each cycle's bias is pinned at its
    smallest node r, to ref's bias there when ref (the previous values, or
    None) gives r the same mean, else to 0.  The pin depends only on the
    cycle, so a cycle that survives a strategy change keeps its biases: that
    makes every improvement round a strict lexicographic step.
    """
    n = len(tau)
    nxt = [sigma[i] for i in tau]
    w = [b[i][l] - a[i][j] for j, (i, l) in enumerate(zip(tau, nxt))]
    P = [0] * n
    Q = [0] * n
    V = [0] * n
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
            r = cyc[0]
            same = ref is not None and ref[0][r] == p and ref[1][r] == q
            V[r] = ref[2][r] if same else 0
            for c in cyc:
                P[c], Q[c], state[c] = p, q, 2
            for c in reversed(cyc[1:]):
                V[c] = q * w[c] - p + V[nxt[c]]
        for c in reversed(walk):
            t = nxt[c]
            P[c], Q[c], state[c] = P[t], Q[t], 2
            V[c] = Q[t] * w[c] - P[t] + V[t]
    return P, Q, V


def _ranks(P, Q) -> list:
    """Dense ranks of the reduced rationals P_j/Q_j, by cross-multiplication."""
    distinct = sorted(set(zip(P, Q)), key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    pos = {pq: k for k, pq in enumerate(distinct)}
    return [pos[pq] for pq in zip(P, Q)]


def _policy_iteration(m, n, a, b):
    """Exact values and optimal positional strategies of an integer game.

    Returns (chi, sigma, tau) with chi[j] the Fraction value of Min node j.
    Values compare lexicographically as (eta, v), i.e. as the germ
    eta*t + v for large t.  Max's step moves each row to the lex-largest
    (eta_l, b_il + v_l); Min's step moves each column to the lex-smallest
    (top_i, best_i - a_ij) over its rows, where (top_i, best_i) is row i's
    best Max reply.  Both switch only on strict improvement.  At the end
    (eta, v) is a lexicographic fixed point of the Shapley operator, of its
    restriction to sigma and of its restriction to tau, so sigma and tau
    are optimal from every node.

    All payments, biases and products live in one numpy dtype: int64 when
    the a-priori bound (|v| grows by at most 4nW per Min round) fits, else
    Python ints (object), so large payments stay exact instead of wrapping.
    """
    W = 1 + max((abs(x) for row in a + b for x in row if x is not None), default=0)
    cap = _round_cap(m, n)
    bound = 4 * n * n * W * (cap + 1) + 2 * n * W + 2
    dt = np.int64 if bound < 2**62 else object
    Am = np.array([[x is not None for x in row] for row in a], dtype=bool)
    Bm = np.array([[x is not None for x in row] for row in b], dtype=bool)
    Aw = np.array([[0 if x is None else x for x in row] for row in a], dtype=dt)
    Bw = np.array([[0 if x is None else x for x in row] for row in b], dtype=dt)
    rows, cols = np.arange(m), np.arange(n)

    def max_step(rk, Qv, Vv):
        """Per row: best eta rank, all keys Q_l*b_il + V_l, best key, argmax."""
        top = np.where(Bm, rk[None, :], -1).max(axis=1)
        val = Qv[None, :] * Bw + Vv[None, :]
        masked = np.where(Bm & (rk[None, :] == top[:, None]), val, val.min() - 1)
        return top, val, masked.max(axis=1), masked.argmax(axis=1)

    def min_step(top, best, Qtop):
        """Per column: least row rank, all keys, least key, argmin."""
        cand = best[:, None] - Qtop[:, None] * Aw
        mtop = np.where(Am, top[:, None], n).min(axis=0)
        masked = np.where(Am & (top[:, None] == mtop[None, :]), cand, cand.max() + 1)
        return mtop, cand, masked.min(axis=0), masked.argmin(axis=0)

    # Greedy start: the best replies when every value and bias is 0.
    unit = np.ones(n, dtype=dt)
    top, _val, best, sigma = max_step(np.zeros(n, dtype=np.int64), unit, unit - 1)
    tau = min_step(top, best, unit[sigma])[3]
    ref = None
    rounds = 0
    while True:
        used = np.zeros(m, dtype=bool)
        used[tau] = True
        while True:  # Howard: Max's best reply to tau
            rounds += 1
            if rounds > cap:
                raise PolicyIterationStalled(f"no fixed point after {cap} rounds")
            P, Q, V = _evaluate(tau.tolist(), sigma.tolist(), a, b, ref)
            rk = np.array(_ranks(P, Q), dtype=np.int64)
            Qv = np.array(Q, dtype=dt)
            top, val, best, arg = max_step(rk, Qv, np.array(V, dtype=dt))
            cur = rk[sigma]
            switch = (top > cur) | ((top == cur) & (best > val[rows, sigma]))
            sigma = np.where(switch, arg, sigma)
            if not (switch & used).any():
                break
        mtop, cand, cbest, carg = min_step(top, best, Qv[arg])
        cur = top[tau]
        switch = (mtop < cur) | ((mtop == cur) & (cbest < cand[tau, cols]))
        if not switch.any():
            break
        tau = np.where(switch, carg, tau)
        ref = (P, Q, V)
    chi = tuple(Fraction(p, q) for p, q in zip(P, Q))
    return chi, tuple(sigma.tolist()), tuple(tau.tolist())


def _oracle_core(m, n, a, b):
    """(chi, winning Min nodes, winning Max nodes, sigma, tau) of an integer game."""
    chi, sigma, tau = _policy_iteration(m, n, a, b)
    win_min = frozenset(j for j in range(n) if chi[j] >= 0)
    win_max = frozenset(
        i for i in range(m) if any(b[i][l] is not None for l in win_min)
    )
    return chi, win_min, win_max, sigma, tau


def winning_oracle(game: MeanPayoffGame) -> OracleReport:
    """Partition Min nodes into {chi >= 0} and {chi < 0} with witness strategies.

    Policy iteration runs on the integer grids, d times the payments, which
    leaves value signs unchanged.  The strategies are optimal, so they
    certify both sides of the partition.
    """
    _chi, win_min, win_max, sigma, tau = _oracle_core(game.m, game.n, game.a, game.b)
    return OracleReport(win_min, win_max, MaxStrategy(sigma), MinStrategy(tau))


integer_oracle = winning_oracle


def scaled_copy(game: MeanPayoffGame, mult: int, b_shift: Fraction = Fraction(0)) -> MeanPayoffGame:
    """Game with payments mult*a/d and mult*b/d + b_shift (exact).

    The grids are put over the least common denominator of the new payments,
    as MeanPayoffGame(A, B) would put them.
    """
    shift = Fraction(b_shift)
    d = lcm(game.d, shift.denominator)
    k, s = mult * (d // game.d), shift.numerator * (d // shift.denominator)
    a = [[None if x is None else k * x for x in row] for row in game.a]
    b = [[None if x is None else k * x + s for x in row] for row in game.b]
    g = gcd(d, *(x for row in a + b for x in row if x is not None))

    def grid(rows):
        return tuple(tuple(None if x is None else x // g for x in row) for row in rows)

    return MeanPayoffGame.from_grids(grid(a), grid(b), d // g)


def value_report(game: MeanPayoffGame) -> GameValueReport:
    """Exact values of all Min nodes with optimal strategies for both players.

    Policy iteration runs on the integer grids, whose values are d times the
    game's; strategies are the same for both.
    """
    chi, win_min, _win_max, sigma, tau = _oracle_core(game.m, game.n, game.a, game.b)
    if game.d != 1:
        chi = tuple(c / game.d for c in chi)
    return GameValueReport(chi, win_min, MaxStrategy(sigma), MinStrategy(tau))


def game_value_and_strategy(game: MeanPayoffGame, j: int):
    """Exact chi_j with a Max strategy guaranteeing exactly chi_j from j.

    Both come from one policy-iteration run: its sigma is optimal from every
    node, so chi^sigma_j = chi_j.
    """
    rep = value_report(game)
    return rep.chi[j], rep.sigma


def game_value(game: MeanPayoffGame, j: int) -> Fraction:
    """Exact chi_j by policy iteration."""
    return value_report(game).chi[j]


# ---------------------------------------------------------------------------
# Reference oracle: racing energy liftings (pseudo-polynomial).
# ---------------------------------------------------------------------------


class _LiftState:
    """Incremental least-progress-measure lifting of a bipartite energy game.

    Survivor nodes S minimize over their moves (s -> t with weight w: the
    measure obeys eS = min_t max(0, eT - w)); adversary nodes T maximize.
    Values strictly above ``cap`` stand for top.  ``run`` processes a bounded
    number of worklist pops so two liftings can be interleaved.
    """

    __slots__ = ("nS", "nT", "succS", "succT", "predS", "predT", "cap", "top",
                 "eS", "eT", "queue", "inqS", "inqT")

    def __init__(self, nS, nT, succS, succT, predS, predT, cap):
        self.nS = nS
        self.nT = nT
        self.succS = succS
        self.succT = succT
        self.predS = predS
        self.predT = predT
        self.cap = cap
        self.top = cap + 1
        self.eS = [0] * nS
        self.eT = [0] * nT
        self.queue = deque([(0, s) for s in range(nS)] + [(1, t) for t in range(nT)])
        self.inqS = [True] * nS
        self.inqT = [True] * nT

    def run(self, quantum: int) -> bool:
        """Process up to ``quantum`` pops; True when the fixpoint is reached."""
        queue = self.queue
        cap, top = self.cap, self.top
        eS, eT = self.eS, self.eT
        pops = 0
        while queue and pops < quantum:
            pops += 1
            side, v = queue.popleft()
            if side == 0:
                self.inqS[v] = False
                best = None
                for (t, w) in self.succS[v]:
                    e = eT[t]
                    if e > cap:
                        nv = top
                    else:
                        nv = e - w
                        if nv < 0:
                            nv = 0
                    if best is None or nv < best:
                        best = nv
                        if best == 0:
                            break
                if best is None or best > top:
                    best = top
                if best > eS[v]:
                    eS[v] = best
                    for t in self.predS[v]:
                        if not self.inqT[t]:
                            self.inqT[t] = True
                            queue.append((1, t))
            else:
                self.inqT[v] = False
                best = 0
                for (s, w) in self.succT[v]:
                    e = eS[s]
                    if e > cap:
                        nv = top
                    else:
                        nv = e - w
                        if nv < 0:
                            nv = 0
                    if nv > best:
                        best = nv
                        if best >= top:
                            break
                if best > top:
                    best = top
                if best > eT[v]:
                    eT[v] = best
                    for s in self.predT[v]:
                        if not self.inqS[s]:
                            self.inqS[s] = True
                            queue.append((0, s))
        return not queue


class _VecLift:
    """Synchronous numpy lifting for dense games; same contract as _LiftState.

    One round applies the lifting operator to every node at once: survivor
    values are row minima of max(0, eT - WS) and adversary values column
    maxima of max(0, eS + WT), with values above the cap clamped to top.
    From the all-zero start the iterates increase monotonically to the least
    fixpoint, so the result matches the worklist lifting exactly.

    Nodes above the cap act as +infinity sources: before each round they are
    promoted to ``high`` (top plus the largest weight magnitude), which forces
    every outgoing contribution above the cap no matter the arc weight.
    Missing arcs carry a sentinel weight so large that their contribution can
    never win the reduction, which keeps the inner loop free of fancy
    indexing: each round is two broadcast ops, two reductions and clips.
    """

    __slots__ = ("cap", "top", "high", "eS", "eT", "_eS2", "_eT2", "WS", "WT",
                 "_bufS", "_bufT")

    def __init__(self, WS, okS, WT, okT, cap):
        self.cap = cap
        self.top = cap + 1
        wmax = 1
        if WS.size and okS.any():
            wmax = max(wmax, int(np.abs(WS[okS]).max()))
        if WT.size and okT.any():
            wmax = max(wmax, int(np.abs(WT[okT]).max()))
        self.high = self.top + wmax
        big = 2 * self.high + 1
        # cand = eT - WS: a missing arc must lose every row minimum
        self.WS = np.where(okS, WS, -big)
        # contrib = eS + WT: a missing arc must lose every column maximum
        self.WT = np.where(okT, WT, -big)
        nS, nT = WS.shape
        self.eS = np.zeros(nS, dtype=np.int64)
        self.eT = np.zeros(nT, dtype=np.int64)
        self._eS2 = np.empty(nS, dtype=np.int64)
        self._eT2 = np.empty(nT, dtype=np.int64)
        self._bufS = np.empty((nS, nT), dtype=np.int64)
        self._bufT = np.empty((nS, nT), dtype=np.int64)

    def run(self, quantum: int) -> bool:
        cap, top, high = self.cap, self.top, self.high
        WS, WT, bufS, bufT = self.WS, self.WT, self._bufS, self._bufT
        eS, eT, eS2, eT2 = self.eS, self.eT, self._eS2, self._eT2
        for _ in range(quantum):
            src = np.where(eS > cap, high, eS)
            np.add(src[:, None], WT, out=bufT)
            np.max(bufT, axis=0, out=eT2)
            np.clip(eT2, 0, top, out=eT2)
            src = np.where(eT2 > cap, high, eT2)
            np.subtract(src[None, :], WS, out=bufS)
            np.min(bufS, axis=1, out=eS2)
            np.clip(eS2, 0, top, out=eS2)
            if (eS2 == eS).all() and (eT2 == eT).all():
                self.eS, self.eT = eS2, eT2
                self._eS2, self._eT2 = eS, eT
                return True
            eS, eS2 = eS2, eS
            eT, eT2 = eT2, eT
        self.eS, self.eT = eS, eT
        self._eS2, self._eT2 = eS2, eT2
        return False


def _lift_bipartite(nS, nT, succS, succT, predS, predT, cap):
    """Least progress measures by the worklist, run to the fixpoint; (eS, eT)."""
    state = _LiftState(nS, nT, succS, succT, predS, predT, cap)
    while not state.run(1 << 16):
        pass
    return state.eS, state.eT


def _lifting_race(m, n, a, b, vectorized):
    """Winning Min/Max node sets plus both strategies for integer payments.

    Two liftings race in bounded quanta: the primal one (survivor Max, at the
    completeness cap) whose finite fixpoint values certify chi >= 0, and the
    dual one (survivor Min, negated payments scaled by min(m,n) and shifted
    by -1) whose finite values certify chi < 0.  Whichever reaches its
    fixpoint first fixes the partition by completeness of its cap; the other
    side's strategy is then recovered on its closed certified subregion,
    where the remaining lifting has no divergent nodes and stays cheap.
    """
    w_max = 1
    for i in range(m):
        for j in range(n):
            if a[i][j] is not None:
                w_max = max(w_max, abs(a[i][j]))
            if b[i][j] is not None:
                w_max = max(w_max, abs(b[i][j]))
    scale = max(1, min(m, n))

    # Primal energy game: survivor = Max.  Max move i -> l has weight b_il,
    # Min move j -> i weight -a_ij.
    p_succS = [[(l, b[i][l]) for l in range(n) if b[i][l] is not None] for i in range(m)]
    p_succT = [[(i, -a[i][j]) for i in range(m) if a[i][j] is not None] for j in range(n)]
    p_predS = [[j for j in range(n) if a[i][j] is not None] for i in range(m)]
    p_predT = [[i for i in range(m) if b[i][j] is not None] for j in range(n)]

    # Dual energy game: survivor = Min.  Min move j -> i has weight
    # (scale*a_ij - 1), Max move i -> l weight -scale*b_il.
    d_succS = [
        [(i, scale * a[i][j] - 1) for i in range(m) if a[i][j] is not None]
        for j in range(n)
    ]
    d_succT = [[(l, -scale * b[i][l]) for l in range(n) if b[i][l] is not None] for i in range(m)]
    d_predS = [[i for i in range(m) if b[i][j] is not None] for j in range(n)]
    d_predT = [[j for j in range(n) if a[i][j] is not None] for i in range(m)]

    cap_primal = (m + n + 2) * w_max + 1
    cap_dual = (m + n + 2) * (scale * w_max + 1) + 1
    if vectorized:
        Aw = np.array([[x if x is not None else 0 for x in row] for row in a], dtype=np.int64)
        Am = np.array([[x is not None for x in row] for row in a])
        Bw = np.array([[x if x is not None else 0 for x in row] for row in b], dtype=np.int64)
        Bm = np.array([[x is not None for x in row] for row in b])
        primal = _VecLift(Bw, Bm, Aw, Am, cap_primal)
        dual = _VecLift(scale * Aw.T - 1, Am.T, scale * Bw.T, Bm.T, cap_dual)
        quantum = 64
    else:
        primal = _LiftState(m, n, p_succS, p_succT, p_predS, p_predT, cap_primal)
        dual = _LiftState(n, m, d_succS, d_succT, d_predS, d_predT, cap_dual)
        quantum = 4096
    while True:
        if primal.run(quantum):
            primal_finished = True
            break
        if dual.run(quantum):
            primal_finished = False
            break

    if primal_finished:
        eMax, eMin = primal.eS, primal.eT
        win_min = frozenset(j for j in range(n) if eMin[j] <= cap_primal)
        win_max = frozenset(i for i in range(m) if eMax[i] <= cap_primal)
        lose_min = frozenset(range(n)) - win_min
        lose_max = frozenset(range(m)) - win_max
        # Dual lifting restricted to the losing region (closed under all Max
        # moves; Min moves into the winning region are never useful to Min).
        sub_succS = [
            [(i, w) for (i, w) in d_succS[j] if i in lose_max] if j in lose_min else []
            for j in range(n)
        ]
        sub_succT = [d_succT[i] if i in lose_max else [] for i in range(m)]
        sub_predS = [[i for i in d_predS[j] if i in lose_max] for j in range(n)]
        sub_predT = [[j for j in d_predT[i] if j in lose_min] for i in range(m)]
        fMin, fMax = _lift_bipartite(n, m, sub_succS, sub_succT, sub_predS, sub_predT, cap_dual)
        for j in lose_min:
            if fMin[j] > cap_dual:
                raise AssertionError("dual lifting diverged on a certified losing node")
    else:
        fMin, fMax = dual.eS, dual.eT
        lose_min = frozenset(j for j in range(n) if fMin[j] <= cap_dual)
        lose_max = frozenset(i for i in range(m) if fMax[i] <= cap_dual)
        win_min = frozenset(range(n)) - lose_min
        win_max = frozenset(range(m)) - lose_max
        # Primal lifting restricted to the winning region (closed under all
        # Min moves; Max moves into the losing region never help Max).
        sub_succS = [
            [(l, w) for (l, w) in p_succS[i] if l in win_min] if i in win_max else []
            for i in range(m)
        ]
        sub_succT = [p_succT[j] if j in win_min else [] for j in range(n)]
        sub_predS = [[j for j in p_predS[i] if j in win_min] for i in range(m)]
        sub_predT = [[i for i in p_predT[j] if i in win_max] for j in range(n)]
        eMax, eMin = _lift_bipartite(m, n, sub_succS, sub_succT, sub_predS, sub_predT, cap_primal)
        for i in win_max:
            if eMax[i] > cap_primal:
                raise AssertionError("primal lifting diverged on a certified winning node")

    top_p = cap_primal + 1
    sigma = []
    for i in range(m):
        if i in win_max:
            best_l, best_v = None, None
            for (l, w) in p_succS[i]:
                if l not in win_min:
                    continue
                e = eMin[l]
                v = top_p if e > cap_primal else max(0, e - w)
                if best_v is None or v < best_v:
                    best_v, best_l = v, l
            sigma.append(best_l)
        else:
            sigma.append(next(l for l in range(n) if b[i][l] is not None))
    top_d = cap_dual + 1
    tau = []
    for j in range(n):
        if j in lose_min:
            best_i, best_v = None, None
            for (i, w) in d_succS[j]:
                if i not in lose_max:
                    continue
                e = fMax[i]
                v = top_d if e > cap_dual else max(0, e - w)
                if best_v is None or v < best_v:
                    best_v, best_i = v, i
            tau.append(best_i)
        else:
            tau.append(next(i for i in range(m) if a[i][j] is not None))
    return win_min, win_max, tuple(sigma), tuple(tau)


def lifting_oracle(game: MeanPayoffGame, vectorized: bool = False) -> OracleReport:
    """Reference winning oracle: the energy-lifting race, kept for cross-checks.

    Its liftings climb to caps proportional to the payment size, so it is far
    slower than winning_oracle on large payments; ``vectorized`` picks the
    numpy synchronous lifting over the worklist for the raced liftings.
    """
    win_min, win_max, sigma, tau = _lifting_race(game.m, game.n, game.a, game.b, vectorized)
    return OracleReport(win_min, win_max, MaxStrategy(sigma), MinStrategy(tau))


# ---------------------------------------------------------------------------
# Reduction of A x <= B^sigma x with one coordinate pinned to 0.
# ---------------------------------------------------------------------------


def _fixed_system(a, b, sigma, l: int):
    """Split a x <= b^sigma x with x_l = 0 into an integer Kleene system.

    Rows i with sigma(i) != l become x_t >= a_ij - b_it + x_j for t = sigma(i),
    over the coordinates targeted by sigma; the x_l = 0 column gives the
    constants h, and coordinates no row targets are pinned to -inf, so their
    coefficients drop out.  Rows with sigma(i) = l have a constant right-hand
    side and are left to verification.  Returns (targets, rows, h) where
    rows[k] lists (position, weight) arcs of the system over targets.
    """
    targets = sorted({t for t in sigma if t != l})
    tpos = {t: k for k, t in enumerate(targets)}
    coef = [dict() for _ in targets]
    h = [None] * len(targets)
    for i, t in enumerate(sigma):
        if t == l:
            continue
        k = tpos[t]
        bv = b[i][t]
        row = coef[k]
        for j, av in enumerate(a[i]):
            if av is None:
                continue
            w = av - bv
            if j == l:
                if h[k] is None or h[k] < w:
                    h[k] = w
            elif j in tpos:
                pj = tpos[j]
                if pj not in row or row[pj] < w:
                    row[pj] = w
    return targets, [list(row.items()) for row in coef], h


def least_solution_fixed(a, b, sigma: MaxStrategy, l: int) -> tuple:
    """Least x with a x <= b^sigma x and x_l = 0 (via the Kleene star).

    a and b are integer grids (None for -inf); the result is a tuple of
    ExtendedNumber.  Every row is verified afterwards.  Raises
    SecondSubsystemViolated when a constant-side row (sigma(i) = l) fails,
    and propagates PositiveCycleDiverges: both indicate the caller's sigma
    was not actually winning.
    """
    targets, rows, h = _fixed_system(a, b, sigma.choices, l)
    z = kleene_star_int(rows, h)
    x = [None] * len(a[0])
    x[l] = 0
    for k, t in enumerate(targets):
        x[t] = z[k]
    for i, t in enumerate(sigma.choices):
        lhs = max((av + xj for av, xj in zip(a[i], x) if av is not None and xj is not None),
                  default=None)
        if lhs is None or (x[t] is not None and lhs <= b[i][t] + x[t]):
            continue
        if t == l:
            raise SecondSubsystemViolated(f"row {i} fails against the constant bound")
        raise InternalCertificateMismatch(f"row {i} of the least solution fails A x <= B x")
    return tuple(NEG_INF if v is None else ExtendedNumber.finite(v) for v in x)


def feasibility_witness(game: MeanPayoffGame, i: int) -> Optional[tuple]:
    """A vector x with A x <= B x and x_i = 0, or None when chi_i < 0."""
    rep = integer_oracle(game)
    if i not in rep.winning:
        return None
    x = least_solution_fixed(game.a, game.b, rep.sigma, i)
    if game.d == 1:
        return x
    return tuple(ExtendedNumber.finite(e.value / game.d) if e.is_finite else e for e in x)

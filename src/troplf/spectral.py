"""Homogenization, the parametric game, and the spectral function.

A linear-fractional instance asks for the minimum of (px v r) - (qx v s) over
the tropical polyhedron Ax v c <= Bx v d.  Homogenizing gives C = [A,c],
D = [B,d], u = [p,r], v = [q,s]; the optimum is the minimal zero of the
spectral function phi(lambda) = chi_{n+1}(U# V(lambda)) of the parametric
mean payoff game with payment matrices U = [[C],[u]] and V(lambda) =
[[D],[lambda + v]].

Every game the algorithms, the certificate checks and the command line ask
about is this one game at some lambda.  An ``LfpInstance`` therefore holds
nothing but U and V(0), scaled to integer grids (None for -inf) when it is
built; ``homogenize`` converts them once to numpy, their image, and
returns the ``HomogeneousInstance`` (``game_engine``) that holds the grids,
the image and their bound M and owns their parametric game, and
``game_at`` forms the game at lambda from them: a MeanPayoffGame whose
grids are U and V(0) times d, the denominator of lambda, with lambda's
numerator added to the objective row, over the denominator d.
``H.report(lambda)`` solves that game without building it, from the
instance's memo or by policy iteration warm started from its last query
(from its strategies, or on a large game from value steps from its
biases; a memo hit counts where phi > 0), so a report's sigma and tau are
an optimal pair, not necessarily the pair a cold ``value_report`` returns;
``H.arrays(lambda)`` gives its masks and weights to the strategy graphs.

phi is piecewise affine, and its breakpoints, like those of each partial
function phi_tau, are rationals with denominator <= min(m,n)+1;
``grid_point_between`` is the one place that bound is read.  ``reconstruct``
finds the pieces by a dichotomy on [-R, R]: an interval is final when no such
rational lies inside it, or when the optimal strategies at its ends prove
phi affine there (phi_sigma <= phi <= phi_tau, decided on their graphs by
``trop_core.means_at_most``).  Its oracle runs grow with the pieces, not the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .game_engine import (
    AssumptionViolated,
    HomogeneousInstance,
    MaxStrategy,
    MeanPayoffGame,
    MinStrategy,
    _policy_iteration,
    grid_arrays,
    integer_grids,
    max_graph,
    min_graph,
)
from .trop_core import NEG_INF, POS_INF, ExtendedNumber, ext, means_at_most

Rational = Union[int, Fraction]


def _entry(x, plus_inf: str):
    """An entry other than None or an int as a Fraction or None (-inf); a +inf
    raises ValueError(plus_inf)."""
    if isinstance(x, ExtendedNumber):
        if x.kind == 1:
            raise ValueError(plus_inf)
        return x.value if x.kind == 0 else None
    return x if type(x) is Fraction else Fraction(x)


def _entries(values, plus_inf: str) -> list:
    """values as int, Fraction or None (-inf)."""
    return [x if x is None or type(x) is int else _entry(x, plus_inf) for x in values]


class LfpInstance:
    """Tropical linear-fractional program data (A,B,c,d,p,q,r,s), no +inf.

    Entries are int, Fraction or ExtendedNumber (None also stands for -inf).
    The instance keeps only its homogeneous form scaled to integers: the
    grids U = [[A, c], [p, r]] and V(0) = [[B, d], [q, s]] (tuples of integer
    rows, None for -inf) times ``scale``, the lcm of all denominators, and the
    shape m x n of A.

    Construction checks the shape and the game assumptions on the homogenized
    constraint block: every row of [B|d] and every column of [[A],[p]] and
    [[c],[r]] needs a finite entry.  The objective rows u and v may be all
    -inf: the solver's prechecks classify v = -inf by the parametric game of
    the program whose v is e_{n+1}, and every other instance by its own.
    """

    __slots__ = ("U", "V", "scale", "m", "n")

    def __init__(self, A, B, c, d, p, q, r, s):
        A, B = list(A), list(B)
        if any(len(row) != len(M[0]) for M in (A, B) for row in M):
            raise ValueError("ragged entry grid")
        A, B = ([_entries(row, "max_plus matrix cannot store +inf") for row in M] for M in (A, B))
        m, n = len(A), len(A[0]) if A else len(p)  # with no rows, p gives n
        if (len(B), len(B[0]) if B else n) != (m, n):
            raise ValueError("A and B must share a shape")
        if len(c) != m or len(d) != m:
            raise ValueError("c and d must have one entry per constraint row")
        if len(p) != n or len(q) != n:
            raise ValueError("p and q must have one entry per variable")
        c, d, p, q, (r, s) = (
            _entries(v, "+inf coefficients are not allowed") for v in (c, d, p, q, (r, s))
        )
        (U, V), scale = integer_grids(
            [row + [ci] for row, ci in zip(A, c)] + [p + [r]],
            [row + [di] for row, di in zip(B, d)] + [q + [s]],
        )
        problems = [f"row {i} of [B|d] has no finite entry"
                    for i in range(m) if all(x is None for x in V[i])]
        problems += [f"column {j} of [[A],[p]] has no finite entry"
                     for j in range(n) if all(row[j] is None for row in U)]
        if all(row[n] is None for row in U):
            problems.append("column [[c],[r]] has no finite entry")
        if problems:
            raise AssumptionViolated("; ".join(problems))
        self.U, self.V, self.scale, self.m, self.n = U, V, scale, m, n


def homogenize(inst: LfpInstance) -> HomogeneousInstance:
    """The instance's grids U and V(0) and their image, as the instance
    that owns their parametric game."""
    (Um, Uw), (Vm, Vw) = grid_arrays(inst.U), grid_arrays(inst.V)
    return HomogeneousInstance(inst.U, inst.V, inst.scale, (Um, Vm, Uw, Vw))


def game_at(H: HomogeneousInstance, lam: Rational) -> MeanPayoffGame:
    """The game with payments U and V(lam), V(lam) = [[D],[lam+v]].

    Its grids are U and V(0) times d, the denominator of lam, with lam's
    numerator added to the finite entries of the objective row; its
    denominator is d.  Raises AssumptionViolated when v is all -inf.
    """
    lam = Fraction(lam)
    d = lam.denominator
    last = tuple(None if x is None else d * x + lam.numerator for x in H.V[-1])
    if d == 1:
        return MeanPayoffGame(H.U, H.V[:-1] + (last,), d)
    a = tuple(tuple(None if x is None else d * x for x in row) for row in H.U)
    b = tuple(tuple(None if x is None else d * x for x in row) for row in H.V[:-1])
    return MeanPayoffGame(a, b + (last,), d)


def phi(H: HomogeneousInstance, lam: Rational) -> Fraction:
    """The spectral function: value of the parametric game at Min node n+1."""
    return H.report(lam).chi[H.n]


def phi_nonneg(H: HomogeneousInstance, lam: Rational):
    """(phi(lam) >= 0, Max strategy on the winning side, Min strategy off it)."""
    rep = H.report(lam)
    return H.n in rep.winning, rep.sigma, rep.tau


def _frozen_value(H: HomogeneousInstance, lam: Rational, strategy) -> Fraction:
    """phi_sigma or phi_tau: node n+1's value in the game at lam with the
    strategy's player held to its moves, by policy iteration on H's
    arrays.  The strategy is checked on game_at(H, 0), whose support is all."""
    strategy.check(game_at(H, 0))
    (Am, Bm, Aw, Bw), W, d = H.arrays(lam)
    moves = np.array(strategy.choices, dtype=np.intp)
    if isinstance(strategy, MaxStrategy):
        Bm = moves[:, None] == np.arange(Bm.shape[1])  # row i: sigma(i) alone
    else:
        Am = np.arange(Am.shape[0])[:, None] == moves  # column j: tau(j) alone
    return _policy_iteration((Am, Bm, Aw, Bw), W)[0][H.n] / d


def phi_sigma(H: HomogeneousInstance, sigma: MaxStrategy, lam: Rational) -> Fraction:
    """Partial spectral function with Max frozen: concave, <= phi."""
    return _frozen_value(H, lam, sigma)


def phi_tau(H: HomogeneousInstance, tau: MinStrategy, lam: Rational) -> Fraction:
    """Partial spectral function with Min frozen: convex, >= phi."""
    return _frozen_value(H, lam, tau)


def initial_bounds(H: HomogeneousInstance):
    """(-2M(min(m,n)+1), +2M(min(m,n)+1)): finite minimal zeros live inside."""
    bound = 2 * H.M * (H.k_bound + 1)
    return -bound, bound


def deep_lambda(H: HomogeneousInstance) -> Fraction:
    """-(2M(min(m,n)+2) + 1), below initial_bounds: every cycle through row
    m+1 weighs at most lambda + 2M(min(m,n)+1) < 0 there, so a Max strategy
    optimal there with node n+1 winning wins at every lambda, and
    phi(deep_lambda) >= 0 exactly when phi never falls below 0."""
    return -(2 * (H.k_bound + 2) * H.M + 1)


@dataclass(frozen=True)
class SpectralPiece:
    """One maximal affine piece of phi: value (alpha + beta*lambda)/k on [lo, hi]."""

    lo: ExtendedNumber
    hi: ExtendedNumber
    alpha: Fraction
    beta: int
    k: int

    def value_at(self, lam: Rational) -> Fraction:
        return Fraction(self.alpha + self.beta * Fraction(lam), self.k)


def grid_point_between(H: HomogeneousInstance, a: Rational, b: Rational) -> Optional[Fraction]:
    """The rational with denominator <= min(m,n)+1 nearest the middle of
    (a, b), or None when no such rational lies strictly inside (a, b).

    Every breakpoint of phi and of each phi_tau has such a denominator, so
    None proves them all affine on [a, b].
    """
    c = ((Fraction(a) + Fraction(b)) / 2).limit_denominator(H.k_bound + 1)
    return c if a < c < b else None


def reconstruct(H: HomogeneousInstance) -> list:
    """The maximal affine pieces of phi, by a dichotomy that strategies certify.

    phi is affine outside [-R, R], R = 4M(min(m,n)+1)^2, so the end pieces
    extend to -inf and +inf.  An interval [a, b] of [-R, R] is final when
    grid_point_between finds no point inside it, or when sigma optimal at a
    and tau optimal at b give phi_sigma(b) = phi(b) and phi_tau(a) = phi(a):
    then chord <= phi_sigma <= phi <= phi_tau <= chord on [a, b], since
    phi_sigma is concave and phi_tau convex.  phi_tau(a) = phi(a) holds
    exactly when tau's graph at a has no cycle mean above phi(a), and
    phi_sigma(b) = phi(b) when sigma's negated Min graph at b has none above
    -phi(b) (``trop_core.means_at_most``); a strategy optimal at both ends
    needs no graph.  Other intervals split at grid_point_between's point.
    Adjacent final intervals of equal slope make one piece: slopes are exact.
    """
    k1 = H.k_bound + 1
    # With M = 0 the breakpoints still spread over [-4(k1)^2, 4(k1)^2].
    radius = 4 * max(H.M, 1) * k1 * k1

    def probe(lam):
        return Fraction(lam), H.report(lam)

    def bounded(graph, strategy, lam, c: Fraction) -> bool:
        """No cycle mean above c (in phi's units) reachable from node n+1 in
        graph(arrays, strategy) of the game at lam."""
        arrays, _W, d = H.arrays(lam)
        c *= d
        w, mask = graph(arrays, strategy.choices)
        return means_at_most(w, mask, H.n, c.numerator, c.denominator) is not None

    # Left to right: the right ends still to reach wait on a stack, and grid
    # and values collect the ends of the final intervals in order.
    (a, rep_a), pending = probe(-radius), [probe(radius)]
    grid, values = [a], [rep_a.chi[H.n]]
    while pending:
        b, rep_b = pending[-1]
        mid = grid_point_between(H, a, b)
        if mid is None or (
            (rep_a.sigma == rep_b.sigma or bounded(min_graph, rep_a.sigma, b, -rep_b.chi[H.n]))
            and (rep_b.tau == rep_a.tau or bounded(max_graph, rep_b.tau, a, rep_a.chi[H.n]))
        ):
            a, rep_a = pending.pop()
            grid.append(a)
            values.append(rep_a.chi[H.n])
        else:
            pending.append(probe(mid))
    pieces = []
    start = 0
    slopes = [
        Fraction(values[i + 1] - values[i], grid[i + 1] - grid[i])
        for i in range(len(grid) - 1)
    ]

    def emit(first: int, last: int):
        """Piece spanning grid[first] .. grid[last] with uniform slope."""
        slope = slopes[first]
        lo = NEG_INF if first == 0 else ext(grid[first])
        hi = POS_INF if last == len(grid) - 1 else ext(grid[last])
        if slope == 0:
            pieces.append(SpectralPiece(lo, hi, values[first], 0, 1))
        else:
            k = slope.denominator
            if slope.numerator != 1:
                raise AssertionError(f"unexpected piece slope {slope}")
            alpha = k * values[first] - grid[first]
            pieces.append(SpectralPiece(lo, hi, alpha, 1, k))

    for i in range(1, len(slopes)):
        if slopes[i] != slopes[start]:
            emit(start, i)
            start = i
    emit(start, len(slopes))
    return pieces

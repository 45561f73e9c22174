"""Lexicographic germ semiring and brute-force germ-valued games.

The reference for the perturbed games of the Newton step: the tests compare
the left-optimal Max strategies of ``solver.left_optimal_max_strategy`` with
the germ-optimal strategies found here by enumeration.

A germ (a, b) stands for the function epsilon -> a + epsilon*b near 0+;
addition is lexicographic max and multiplication is componentwise sum, with a
single bottom element standing for -inf.  Germ games validate the perturbed
integer-scaled games used by the solver: for small enough epsilon, the germ
value (chi, kappa) of a game matches the real value chi + epsilon*kappa of
the epsilon-perturbed game, with the same optimal strategies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

from brute_force import BRUTE_FORCE_GUARD, TooLarge
from troplf.game_engine import MaxStrategy, MinStrategy

Rational = Fraction


class Germ:
    """An element a + epsilon*b of the germ semiring, or the bottom -inf."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def bottom() -> "Germ":
        g = object.__new__(Germ)
        g.a = None
        g.b = None
        return g

    @property
    def is_bottom(self) -> bool:
        return self.a is None

    def eval_at(self, eps) -> Optional[Fraction]:
        """a + eps*b, or None for bottom."""
        if self.is_bottom:
            return None
        return self.a + Fraction(eps) * self.b

    def _key(self):
        if self.is_bottom:
            return (0, Fraction(0), Fraction(0))
        return (1, self.a, self.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Germ):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "Germ") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Germ") -> bool:
        return self._key() <= other._key()

    def __repr__(self) -> str:
        if self.is_bottom:
            return "Germ(bottom)"
        return f"Germ({self.a}, {self.b})"


GERM_BOTTOM = Germ.bottom()
GERM_ZERO = Germ(0, 0)


def germ(a, b=0) -> Germ:
    return Germ(a, b)


def germ_add(g1: Germ, g2: Germ) -> Germ:
    """Lexicographic maximum; bottom is the neutral element."""
    return g1 if g2 < g1 else g2


def germ_mul(g1: Germ, g2: Germ) -> Germ:
    """Componentwise sum; bottom is absorbing."""
    if g1.is_bottom or g2.is_bottom:
        return GERM_BOTTOM
    return Germ(g1.a + g2.a, g1.b + g2.b)


def germ_neg(g: Germ) -> Germ:
    """Multiplicative inverse (componentwise negation); undefined on bottom."""
    if g.is_bottom:
        raise ValueError("bottom has no multiplicative inverse")
    return Germ(-g.a, -g.b)


def _germ_mean(payments: Sequence[Germ]) -> Germ:
    total_a = sum(g.a for g in payments)
    total_b = sum(g.b for g in payments)
    k = len(payments)
    return Germ(Fraction(total_a, k), Fraction(total_b, k))


def _validate_germ_game(A: Sequence[Sequence[Germ]], B: Sequence[Sequence[Germ]]):
    m = len(A)
    n = len(A[0]) if m else 0
    if len(B) != m or any(len(row) != n for row in A) or any(len(row) != n for row in B):
        raise ValueError("germ payment grids must share a shape")
    for i in range(m):
        if all(g.is_bottom for g in B[i]):
            raise ValueError(f"row {i} of B is all bottom (Max node stuck)")
    for j in range(n):
        if all(A[i][j].is_bottom for i in range(m)):
            raise ValueError(f"column {j} of A is all bottom (Min node stuck)")
    return m, n


def _germ_sunflower_values(A, B, n: int, tau: Sequence[int], sigma: Sequence[int]) -> List[Germ]:
    """Play outcomes at every Min node once both strategies are fixed.

    Every node has a single outgoing arc, so each play falls into a unique
    cycle; nodes on or leading to the same cycle share its mean.
    """
    values: List[Optional[Germ]] = [None] * n
    for start in range(n):
        if values[start] is not None:
            continue
        path = []
        first_seen = {}
        cur = start
        while values[cur] is None and cur not in first_seen:
            first_seen[cur] = len(path)
            path.append(cur)
            cur = sigma[tau[cur]]
        if values[cur] is None:
            cycle = path[first_seen[cur]:]
            mean = _germ_mean(
                [germ_mul(B[tau[v]][sigma[tau[v]]], germ_neg(A[tau[v]][v])) for v in cycle]
            )
        else:
            mean = values[cur]
        for v in path:
            values[v] = mean
    return values  # type: ignore[return-value]


def _germ_strategy_spaces(A, B, m: int, n: int):
    min_supports = [[i for i in range(m) if not A[i][j].is_bottom] for j in range(n)]
    max_supports = [[l for l in range(n) if not B[i][l].is_bottom] for i in range(m)]
    size = 1
    for s in min_supports + max_supports:
        size *= len(s)
    return min_supports, max_supports, size


def germ_brute_force_value(A: Sequence[Sequence[Germ]], B: Sequence[Sequence[Germ]], j: int) -> Germ:
    """min over tau of max over sigma (lexicographically) of the cycle mean germ."""
    return germ_optimal_strategies(A, B, j)[0]


def germ_optimal_strategies(
    A: Sequence[Sequence[Germ]], B: Sequence[Sequence[Germ]], j: int
) -> Tuple[Germ, MaxStrategy, MinStrategy]:
    """Germ value at Min node j with uniformly optimal positional strategies.

    The returned sigma maximizes the guaranteed (min over tau) germ outcome
    at every Min node simultaneously, and tau minimizes the exposed (max over
    sigma) one at every node; positional determinacy guarantees such uniform
    strategies exist and makes the two value vectors coincide, both of which
    are asserted.  Ties are broken toward the lexicographically first choice
    vector, so the result is deterministic.
    """
    m, n = _validate_germ_game(A, B)
    min_supports, max_supports, size = _germ_strategy_spaces(A, B, m, n)
    if size > BRUTE_FORCE_GUARD:
        raise TooLarge(f"strategy space of size {size} exceeds the guard")
    sigmas = list(product(*max_supports))
    taus = list(product(*min_supports))
    guaranteed: List[Optional[List[Germ]]] = [None] * len(sigmas)
    exposed: List[Optional[List[Germ]]] = [None] * len(taus)
    for si, sigma in enumerate(sigmas):
        for ti, tau in enumerate(taus):
            vals = _germ_sunflower_values(A, B, n, tau, sigma)
            g = guaranteed[si]
            if g is None:
                guaranteed[si] = list(vals)
            else:
                for v in range(n):
                    if vals[v] < g[v]:
                        g[v] = vals[v]
            e = exposed[ti]
            if e is None:
                exposed[ti] = list(vals)
            else:
                for v in range(n):
                    if e[v] < vals[v]:
                        e[v] = vals[v]
    optimal = [max(g[v] for g in guaranteed) for v in range(n)]
    lower = [min(e[v] for e in exposed) for v in range(n)]
    if optimal != lower:
        raise AssertionError("germ game lost positional determinacy")
    best_sigma = next((sigmas[si] for si in range(len(sigmas)) if guaranteed[si] == optimal), None)
    best_tau = next((taus[ti] for ti in range(len(taus)) if exposed[ti] == optimal), None)
    if best_sigma is None or best_tau is None:
        raise AssertionError("no uniformly optimal positional strategy")
    return optimal[j], MaxStrategy(best_sigma), MinStrategy(best_tau)

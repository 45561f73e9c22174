"""Exact tropical (max-plus / min-plus) scalars, matrices and digraph utilities.

Everything here is pure and immutable: extended numbers wrap exact rationals
with infinity flags, matrices are dense grids of extended numbers carrying a
semiring tag, and the digraph helpers (Tarjan decomposition, Karp cycle means,
cycle-time vectors) serve the tests' cross-checks.
``longest_paths`` is the one integer longest-path kernel: Bellman-Ford sweeps
on a dense numpy weight matrix, on int64 while its sentinels fit and on
Python ints past that.  The Newton step's least solution, the certificates'
witnesses and potentials, and ``kleene_least_solution`` all run on it.
``means_at_most`` asks it the one question every strategy graph of a solve,
a reconstruction or a check poses: are the cycle means reachable from a
node at most p/q?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

MAX_PLUS = "max_plus"
MIN_PLUS = "min_plus"


class PositiveCycleDiverges(Exception):
    """A strictly positive cycle reaches the support of h: E*h has a +inf coordinate."""


class ExtendedNumber:
    """An element of R united with {-inf, +inf}, stored as an exact rational.

    ``kind`` is -1 for -inf, 0 for finite, +1 for +inf.  Addition comes in two
    flavours because the two semirings disagree on (-inf) + (+inf): ``add_max``
    resolves it to -inf (max-plus convention), ``add_min`` to +inf.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: int, value: Fraction):
        self.kind = kind
        self.value = value

    @staticmethod
    def finite(x: Rational) -> "ExtendedNumber":
        return ExtendedNumber(0, Fraction(x))

    @property
    def is_finite(self) -> bool:
        return self.kind == 0

    def add_max(self, other: "ExtendedNumber") -> "ExtendedNumber":
        if self.kind == 0 and other.kind == 0:
            return ExtendedNumber(0, self.value + other.value)
        if self.kind == -1 or other.kind == -1:
            return NEG_INF
        return POS_INF

    def add_min(self, other: "ExtendedNumber") -> "ExtendedNumber":
        if self.kind == 0 and other.kind == 0:
            return ExtendedNumber(0, self.value + other.value)
        if self.kind == 1 or other.kind == 1:
            return POS_INF
        return NEG_INF

    def _key(self):
        return (self.kind, self.value if self.kind == 0 else Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedNumber):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "ExtendedNumber") -> bool:
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.kind == 0 and self.value < other.value

    def __le__(self, other: "ExtendedNumber") -> bool:
        return self == other or self < other

    def __gt__(self, other: "ExtendedNumber") -> bool:
        return other < self

    def __ge__(self, other: "ExtendedNumber") -> bool:
        return other <= self

    def __repr__(self) -> str:
        if self.kind == -1:
            return "-inf"
        if self.kind == 1:
            return "+inf"
        return str(self.value)


NEG_INF = ExtendedNumber(-1, Fraction(0))
POS_INF = ExtendedNumber(1, Fraction(0))


def ext(x) -> ExtendedNumber:
    """Coerce ints/Fractions (or pass through ExtendedNumber) to ExtendedNumber."""
    if isinstance(x, ExtendedNumber):
        return x
    return ExtendedNumber.finite(x)


class TropMatrix:
    """Dense rectangular matrix of ExtendedNumber with a semiring tag.

    A max_plus matrix never stores +inf entries and a min_plus matrix never
    stores -inf entries; those only arise as results of residuation, which
    switches the tag.
    """

    __slots__ = ("rows", "cols", "entries", "semiring")

    def __init__(self, entries: Sequence[Sequence], semiring: str = MAX_PLUS):
        if semiring not in (MAX_PLUS, MIN_PLUS):
            raise ValueError(f"unknown semiring tag {semiring!r}")
        grid = tuple(tuple(ext(e) for e in row) for row in entries)
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        for row in grid:
            if len(row) != cols:
                raise ValueError("ragged entry grid")
        banned = POS_INF if semiring == MAX_PLUS else NEG_INF
        for row in grid:
            for e in row:
                if e.kind == banned.kind:
                    raise ValueError(f"{semiring} matrix cannot store {banned!r}")
        self.rows = rows
        self.cols = cols
        self.entries = grid
        self.semiring = semiring

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return (self.semiring == other.semiring and self.entries == other.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.entries)
        return f"TropMatrix[{self.semiring} {self.rows}x{self.cols}: {body}]"


@dataclass(frozen=True)
class WeightedDigraph:
    """Finite digraph with exact rational arc weights and no parallel arcs."""

    n: int
    arcs: tuple  # of (src, dst, Fraction)

    def __post_init__(self):
        seen = set()
        for (s, t, w) in self.arcs:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"arc ({s},{t}) out of range")
            if (s, t) in seen:
                raise ValueError(f"duplicate arc ({s},{t})")
            seen.add((s, t))

    @staticmethod
    def from_arcs(n: int, arcs: Iterable) -> "WeightedDigraph":
        return WeightedDigraph(n, tuple((s, t, Fraction(w)) for (s, t, w) in arcs))


@dataclass(frozen=True)
class SccDecomposition:
    """Tarjan decomposition plus (optionally) the forward-access set of a node.

    ``components`` are in reverse topological order (successors first);
    ``comp_of[v]`` indexes into ``components``; ``access`` is the set of nodes
    forward-reachable from the query node, or None when no query was given.
    """

    components: tuple
    comp_of: tuple
    access: Optional[frozenset]


def scc_and_access(D: WeightedDigraph, source: Optional[int] = None) -> SccDecomposition:
    """Tarjan's strongly connected components, iteratively, plus reachability."""
    n = D.n
    succ = [[] for _ in range(n)]
    for (s, t, _w) in D.arcs:
        succ[s].append(t)

    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    comp_of = [None] * n
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] is None:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(comp))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]

    access = None
    if source is not None:
        seen = {source}
        frontier = [source]
        while frontier:
            v = frontier.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        access = frozenset(seen)
    return SccDecomposition(tuple(comps), tuple(comp_of), access)


def _karp_max_mean(nodes: Sequence[int], arcs_in: dict) -> Optional[Fraction]:
    """Karp's maximal cycle mean on one strongly connected component.

    ``arcs_in[v]`` lists (u, w) for arcs u -> v inside the component.  Returns
    None when the component has no cycle (single node without a self-loop).
    """
    k = len(nodes)
    if k == 1:
        v = nodes[0]
        self_loops = [w for (u, w) in arcs_in.get(v, ()) if u == v]
        return Fraction(max(self_loops)) if self_loops else None
    # The dynamic program runs on plain integers: scaling every weight by the
    # common denominator avoids per-step Fraction normalization.
    denom = 1
    for arcs in arcs_in.values():
        for (_u, w) in arcs:
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
    scaled_in = {
        v: [(u, w.numerator * (denom // w.denominator)) for (u, w) in arcs]
        for v, arcs in arcs_in.items()
    }
    pos = {v: i for i, v in enumerate(nodes)}
    NEG = None  # sentinel for -inf path weight
    # table[t][i] = max weight of a t-arc path from source to nodes[i]
    table = [[NEG] * k for _ in range(k + 1)]
    table[0][0] = 0
    for t in range(1, k + 1):
        prev = table[t - 1]
        cur = table[t]
        for v in nodes:
            best = NEG
            for (u, w) in scaled_in.get(v, ()):
                pu = prev[pos[u]]
                if pu is None:
                    continue
                cand = pu + w
                if best is None or cand > best:
                    best = cand
            cur[pos[v]] = best
    # Means (last - table[t]) / (k - t) are compared as integer pairs by
    # cross-multiplication; the denominators k - t are positive.
    best_num, best_den = None, 1
    last = table[k]
    for i in range(k):
        if last[i] is None:
            continue
        worst_num, worst_den = None, 1
        for t in range(k):
            pt = table[t][i]
            if pt is None:
                continue
            num, den = last[i] - pt, k - t
            if worst_num is None or num * worst_den < worst_num * den:
                worst_num, worst_den = num, den
        if worst_num is not None and (
            best_num is None or worst_num * best_den > best_num * worst_den
        ):
            best_num, best_den = worst_num, worst_den
    return None if best_num is None else Fraction(best_num, best_den * denom)


def cycle_means(D: WeightedDigraph, mode: str = "max"):
    """Per-SCC maximal (or minimal) cycle mean, exact, via Karp's algorithm.

    Returns (decomposition, means) where means[c] aligns with
    decomposition.components[c] and is None for acyclic components.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    flip = -1 if mode == "min" else 1
    decomp = scc_and_access(D)
    arcs_in_by_comp = [dict() for _ in decomp.components]
    for (s, t, w) in D.arcs:
        c = decomp.comp_of[s]
        if c == decomp.comp_of[t]:
            arcs_in_by_comp[c].setdefault(t, []).append((s, flip * w))
    means = []
    for c, comp in enumerate(decomp.components):
        mean = _karp_max_mean(comp, arcs_in_by_comp[c])
        means.append(None if mean is None else flip * mean)
    return decomp, tuple(means)


def digraph_of_matrix(E: TropMatrix) -> WeightedDigraph:
    """Arcs i -> j for every finite entry e_ij, weighted by it."""
    arcs = []
    for i, row in enumerate(E.entries):
        for j, e in enumerate(row):
            if e.is_finite:
                arcs.append((i, j, e.value))
    return WeightedDigraph(E.rows, tuple(arcs))


def cycle_time_vector(E: TropMatrix, mode: str = "max") -> tuple:
    """chi_i = max (resp. min) of per-SCC cycle means over SCCs accessible from i.

    Nodes accessing no cycle yield -inf in max mode, +inf in min mode.
    """
    if E.rows != E.cols:
        raise ValueError("cycle_time_vector requires a square matrix")
    D = digraph_of_matrix(E)
    decomp, means = cycle_means(D, mode)
    comp_succ = [set() for _ in means]
    for (s, t, _w) in D.arcs:
        comp_succ[decomp.comp_of[s]].add(decomp.comp_of[t])
    best = list(means)  # the best mean over the components each reaches
    pick = max if mode == "max" else min
    # Components are in reverse topological order: successors come first.
    for c, succ in enumerate(comp_succ):
        for d in succ:
            if best[d] is not None:
                best[c] = best[d] if best[c] is None else pick(best[c], best[d])
    empty = NEG_INF if mode == "max" else POS_INF
    return tuple(empty if best[c] is None else ExtendedNumber.finite(best[c]) for c in decomp.comp_of)


def longest_paths(w: np.ndarray, mask: np.ndarray, source: int) -> list:
    """The least z >= e_source with z_v >= z_u + w[u, v] on every arc u -> v
    (mask[u, v]), None for -inf at the nodes ``source`` does not reach: the
    longest path weights from ``source``.  Raises PositiveCycleDiverges when
    a cycle of positive weight is reachable from it.

    w is an N x N array of int64 or Python ints.  z starts as the arcs out
    of the source, and each Bellman-Ford sweep is (G.T + z).max(axis=1), G
    being w with a sentinel L at the missing arcs.  After k sweeps the real
    values of z are the longest walks of at most k + 1 arcs, within
    R = (N + 1)W over N sweeps, W the largest |entry| of w; a sum with a
    sentinel term starts below L + R and grows by at most W a sweep, so with
    L = -(3R + 2) it stays below -R and reads as -inf.  int64 holds it all
    while 2L >= -2**63 (3R + 2 <= 2**62); past that the sweeps run on Python
    ints.  Real values settle within N - 1 sweeps unless a positive cycle is
    reachable, so a change at sweep N proves divergence.
    """
    n = len(w)
    reach = (n + 1) * int(np.abs(w).max())
    dt = np.int64 if 3 * reach + 2 <= 2**62 else object
    low = -(3 * reach + 2)
    G = np.where(mask, w if w.dtype == dt else w.astype(dt), low)
    z = G[source].copy()
    z[source] = max(z[source], 0)
    G, floor = G.T, np.full(n, -reach - 1, dtype=dt)
    for _ in range(n):
        cand = (G + z).max(axis=1)
        # Stop when no real value of cand is above the real (or -inf) z.
        if not np.count_nonzero(cand > np.maximum(z, floor)):
            return [None if v < -reach else v for v in z.tolist()]
        z = np.maximum(z, cand)
    raise PositiveCycleDiverges("a strictly positive cycle is reachable from the source")


def means_at_most(w: np.ndarray, mask: np.ndarray, source: int, p: int, q: int):
    """The longest paths from ``source`` of the graph reweighted to q*w - p,
    q > 0, as a tuple, or None when they diverge: they exist exactly when
    every cycle that ``source`` reaches has mean at most p/q.

    The oracle's int64 arrays of N nodes have (2N+1)W + 2 < 2**62 and
    |w| < 2W, and the means asked about have q <= N + 1 and |p| <= 2NW, so
    |q*w - p| < 2**63; past that the weights are reweighted in Python ints.
    """
    if (p, q) != (0, 1):
        if w.dtype != object and q * int(np.abs(w).max()) + abs(p) >= 2**63:
            w = w.astype(object)
        w = q * w - p
    try:
        return tuple(longest_paths(w, mask, source))
    except PositiveCycleDiverges:
        return None


def kleene_least_solution(E: TropMatrix, h: Sequence[ExtendedNumber]) -> tuple:
    """E*h, raising PositiveCycleDiverges instead of producing +inf components.

    E and h are scaled to integers by their common denominator; E*h is then
    the longest paths from an extra node n with an arc of weight h_i to each
    node i, E's arcs being j -> i of weight e_ij.
    """
    if E.semiring != MAX_PLUS:
        raise ValueError("kleene star is defined on max-plus matrices here")
    if E.rows != E.cols:
        raise ValueError("kleene star requires a square matrix")
    h = tuple(ext(e) for e in h)
    if len(h) != E.rows:
        raise ValueError("dimension mismatch")
    if any(e.kind == 1 for e in h):
        raise ValueError("+inf is not a valid component of h")
    n = E.rows
    grid = tuple(zip(*E.entries)) + (h,)  # row u: the arcs out of node u
    denom = math.lcm(*(e.value.denominator for row in grid for e in row if e.is_finite))
    mask = np.array([[e.is_finite for e in row] + [False] for row in grid])
    w = np.array([[int(e.value * denom) for e in row] + [0] for row in grid], dtype=object)
    z = longest_paths(w, mask, n)[:n]
    return tuple(NEG_INF if v is None else ExtendedNumber.finite(Fraction(v, denom)) for v in z)

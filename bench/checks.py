"""Independent answer checks for the benchmark.

Nothing here imports ``troplf``: instances and certificates are read from
their JSON documents, and every test is done in exact max-plus arithmetic
over ``Fraction`` with ``None`` standing for -inf.

Conventions, in the homogeneous form of an instance document:

* ``C = [A | c]`` and ``D = [B | d]`` are m x (n+1), ``u = [p, r]`` and
  ``v = [q, s]`` have n+1 entries; a ``"maximize"`` document swaps the
  numerator ``(p, r)`` with the denominator ``(q, s)`` and its optimum is
  the negated minimum.
* ``S`` is the set of vectors y over R u {-inf} with y_n = 0 and
  ``C y <= D y``.  The program asks for the least lambda with some y in S
  and ``u y <= lambda + v y``.
* The parametric game at lambda has payments ``U = [[C], [u]]`` (Min node j
  moves to Max row i on a finite ``U[i][j]``) and
  ``V = [[D], [lambda + v]]`` (Max row i moves to Min node l on a finite
  ``V[i][l]``); node n is the homogenizing coordinate.

Every function returns ``None`` when the answer checks out and a one-line
reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm


# --- documents ---------------------------------------------------------------


def entry(token):
    """A document entry as a Fraction, or None for "-inf"."""
    if token == "-inf":
        return None
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ValueError(f"unsupported entry {token!r}")
    return Fraction(token)


class Homogeneous:
    """C, D, u, v of an instance document, with m constraint rows and n variables."""

    def __init__(self, doc: dict):
        self.maximize = doc.get("objective", "minimize") == "maximize"
        if "C" in doc:
            self.C = [[entry(x) for x in row] for row in doc["C"]]
            self.D = [[entry(x) for x in row] for row in doc["D"]]
            u = [entry(x) for x in doc["u"]]
            v = [entry(x) for x in doc["v"]]
        else:
            self.C = [[entry(x) for x in row] + [entry(ci)] for row, ci in zip(doc["A"], doc["c"])]
            self.D = [[entry(x) for x in row] + [entry(di)] for row, di in zip(doc["B"], doc["d"])]
            u = [entry(x) for x in doc["p"]] + [entry(doc.get("r", "-inf"))]
            v = [entry(x) for x in doc["q"]] + [entry(doc.get("s", "-inf"))]
        self.u, self.v = (v, u) if self.maximize else (u, v)
        self.m = len(self.C)
        self.n = len(self.u) - 1

    def document_value(self, lam: Fraction) -> Fraction:
        """The optimum as the document states it (negated for maximize)."""
        return -lam if self.maximize else lam

    def U(self) -> list:
        return self.C + [self.u]

    def V(self, lam) -> list:
        return self.D + [[None if x is None else x + lam for x in self.v]]

    def scale(self) -> int:
        """The lcm of all denominators: the factor troplf scales the data by."""
        k = 1
        for x in [x for row in self.C + self.D for x in row] + self.u + self.v:
            if x is not None:
                k = lcm(k, x.denominator)
        return k


# --- max-plus arithmetic ------------------------------------------------------


def dot(row, y):
    """max_j (row_j + y_j) with None as -inf."""
    best = None
    for a, b in zip(row, y):
        if a is not None and b is not None and (best is None or a + b > best):
            best = a + b
    return best


def leq(a, b) -> bool:
    return a is None or (b is not None and a <= b)


# --- graphs: reachability, strongly connected components, Karp ----------------


def reachable(n_nodes: int, arcs, source: int) -> set:
    succ = [[] for _ in range(n_nodes)]
    for s, t, _w in arcs:
        succ[s].append(t)
    seen = {source}
    stack = [source]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def components(nodes, arcs) -> list:
    """Strongly connected components (Kosaraju) of the subgraph on ``nodes``."""
    nodes = sorted(nodes)
    inside = set(nodes)
    succ = {v: [] for v in nodes}
    pred = {v: [] for v in nodes}
    for s, t, _w in arcs:
        if s in inside and t in inside:
            succ[s].append(t)
            pred[t].append(s)
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for t in it:
                if t not in seen:
                    seen.add(t)
                    stack.append((t, iter(succ[t])))
                    break
            else:
                stack.pop()
                order.append(v)
    comps, assigned = [], set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp, stack = [], [root]
        assigned.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for s in pred[v]:
                if s not in assigned:
                    assigned.add(s)
                    stack.append(s)
        comps.append(comp)
    return comps


def karp_max_mean(comp, arcs):
    """The largest cycle mean inside one strongly connected component, or
    None when it holds no cycle (Karp 1978, exact)."""
    inside = set(comp)
    inner = [(s, t, w) for s, t, w in arcs if s in inside and t in inside]
    if not inner:
        return None
    k = len(comp)
    walks = [{comp[0]: 0}]  # walks[t][v]: heaviest walk of t arcs from comp[0] to v
    for _ in range(k):
        prev, cur = walks[-1], {}
        for s, t, w in inner:
            if s in prev and (t not in cur or prev[s] + w > cur[t]):
                cur[t] = prev[s] + w
        walks.append(cur)
    best = None
    for v, final in walks[k].items():
        worst = min(Fraction(final - walks[t][v], k - t) for t in range(k) if v in walks[t])
        if best is None or worst > best:
            best = worst
    return best


def reachable_cycle_means(n_nodes: int, arcs, source: int) -> list:
    """(component, largest cycle mean) for each cyclic component reachable from source.

    Weights are scaled to integers first: Karp then adds ints, not Fractions.
    """
    k = 1
    for _s, _t, w in arcs:
        k = lcm(k, Fraction(w).denominator)
    scaled = [(s, t, int(w * k)) for s, t, w in arcs]
    seen = reachable(n_nodes, scaled, source)
    out = []
    for comp in components(seen, scaled):
        mean = karp_max_mean(comp, scaled)
        if mean is not None:
            out.append((comp, mean / k))
    return out


# --- certificates ---------------------------------------------------------------


def check_optimal(H: Homogeneous, lam: Fraction, cert: dict):
    """An optimality certificate document proves that lam is the minimum.

    The witness y must lie in S and attain lam: ``u y - v y = lam`` with both
    sides finite.  Under tau, every cycle of the game at lam reachable from
    node n must weigh <= 0, and < 0 once Max row m (the objective row) is
    removed; then every such cycle is negative below lam, so no smaller
    value is feasible.
    """
    if cert.get("type") != "optimality":
        return f"expected an optimality certificate, got {cert.get('type')!r}"
    if Fraction(cert["lambda"]) != lam:
        return f"certificate lambda {cert['lambda']} differs from the reported {lam}"
    m, n = H.m, H.n
    U, V = H.U(), H.V(lam)
    tau = [i - 1 for i in cert["tau"]]
    if len(tau) != n + 1 or any(not 0 <= i <= m or U[i][j] is None for j, i in enumerate(tau)):
        return "tau is not a Min strategy of the game"
    if "witness" not in cert:
        return "the certificate has no witness"
    y = [entry(x) for x in cert["witness"]]
    if len(y) != n + 1 or y[n] is None:
        return "the witness is not a vector with a finite homogenizing coordinate"
    for i in range(m):
        if not leq(dot(H.C[i], y), dot(H.D[i], y)):
            return f"the witness violates constraint row {i}"
    num, den = dot(H.u, y), dot(H.v, y)
    if num is None or den is None or num - den != lam:
        return f"the witness has objective {num} - {den}, not {lam}"
    arcs = [
        (j, l, V[tau[j]][l] - U[tau[j]][j])
        for j in range(n + 1)
        for l in range(n + 1)
        if V[tau[j]][l] is not None
    ]
    for _comp, mean in reachable_cycle_means(n + 1, arcs, n):
        if mean > 0:
            return f"under tau a cycle reachable from node n has mean {mean} > 0"
    kept = [(j, l, w) for j, l, w in arcs if tau[j] != m]
    for _comp, mean in reachable_cycle_means(n + 1, kept, n):
        if mean >= 0:
            return f"without the objective row a reachable cycle has mean {mean} >= 0"
    return None


def check_unbounded(H: Homogeneous, cert: dict):
    """An unboundedness certificate document proves that the infimum is -inf.

    Max fixes sigma; in the game at lambda = 0 no cycle reachable from Min
    node n may pass through the objective row or have negative weight.  Then
    lambda moves no reachable cycle and Min never wins, at any lambda.
    """
    if cert.get("type") != "unboundedness":
        return f"expected an unboundedness certificate, got {cert.get('type')!r}"
    m, n = H.m, H.n
    U, V = H.U(), H.V(0)
    sigma = [l - 1 for l in cert["sigma"]]
    if len(sigma) != m + 1 or any(not 0 <= l <= n or V[i][l] is None for i, l in enumerate(sigma)):
        return "sigma is not a Max strategy of the game"
    # Min node j is graph node j, Max row i is graph node n + 1 + i.
    arcs = [(n + 1 + i, sigma[i], V[i][sigma[i]]) for i in range(m + 1)]
    arcs += [
        (j, n + 1 + i, -U[i][j]) for i in range(m + 1) for j in range(n + 1) if U[i][j] is not None
    ]
    flipped = [(s, t, -w) for s, t, w in arcs]
    for comp, neg_mean in reachable_cycle_means(n + m + 2, flipped, n):
        if n + 1 + m in comp:
            return "a reachable cycle passes through the objective row"
        if neg_mean > 0:
            return f"a reachable cycle has negative mean {-neg_mean}"
    return None


# --- outcomes without a certificate ---------------------------------------------


def _integer_system(H: Homogeneous):
    k = H.scale()
    C = [[None if x is None else int(x * k) for x in row] for row in H.C]
    D = [[None if x is None else int(x * k) for x in row] for row in H.D]
    return C, D


def max_support(H: Homogeneous, forced=frozenset()) -> frozenset:
    """Coordinates finite in some solution of C y <= D y with y = -inf on forced.

    Solutions are closed under max and under adding a constant, so the
    greatest solution below y = 0 has the largest support.  It is the limit
    of y <- min(y, f(y)) with f_j(y) = min_i (max_l (d_il + y_l) - c_ij),
    started at 0 off the forced set.  On integer data a coordinate of that
    limit is either -inf or at least -K, K = (m+n+2)*(1 + max|c| + max|d|) + 1,
    the largest finite credit of the equivalent energy game; a coordinate
    that falls below -K is therefore set to -inf, which bounds the rounds.
    """
    C, D = _integer_system(H)
    m, cols = H.m, H.n + 1
    top = 1 + max((abs(x) for row in C for x in row if x is not None), default=0)
    top += max((abs(x) for row in D for x in row if x is not None), default=0)
    K = (m + cols + 1) * top + 1
    y = [None if j in forced else 0 for j in range(cols)]
    # Each round lowers a coordinate by at least 1 or ends, so cols * (K + 2) + 1
    # rounds always suffice; running out of them means a bug here.
    for _ in range(cols * (K + 2) + 1):
        rhs = [dot(row, y) for row in D]
        changed = False
        for j in range(cols):
            if y[j] is None:
                continue
            bound = y[j]
            for i in range(m):
                if C[i][j] is None:
                    continue
                if rhs[i] is None:
                    bound = None
                    break
                bound = min(bound, rhs[i] - C[i][j])
            if bound is not None and bound < -K:
                bound = None
            if bound != y[j]:
                y[j] = bound
                changed = True
        if not changed:
            return frozenset(j for j in range(cols) if y[j] is not None)
    raise RuntimeError("max_support did not reach its fixed point")


def check_infeasible(H: Homogeneous):
    """No lambda is feasible: no y in S has a finite denominator v y, and
    none has numerator u y = -inf."""
    n = H.n
    full = max_support(H)
    if n in full and any(H.v[j] is not None for j in full):
        return "some feasible point has a finite denominator"
    supp_u = frozenset(j for j in range(n + 1) if H.u[j] is not None)
    if n not in supp_u and n in max_support(H, supp_u):
        return "some feasible point has numerator -inf"
    return None


def check_unbounded_degenerate(H: Homogeneous):
    """The denominator is identically -inf and some y in S has u y = -inf,
    so every lambda is feasible."""
    n = H.n
    if any(x is not None for x in H.v):
        return "an unbounded outcome without a certificate needs v = -inf everywhere"
    supp_u = frozenset(j for j in range(n + 1) if H.u[j] is not None)
    if n in supp_u or n not in max_support(H, supp_u):
        return "no feasible point has numerator -inf"
    return None


# --- brute-force game values and spectral pieces --------------------------------


def game_value(U, V, j: int) -> Fraction:
    """min over Min strategies of max over Max strategies of the mean weight
    of the cycle the play from Min node j ends in (positional strategies)."""
    rows, cols = len(U), len(U[0])
    min_moves = [[i for i in range(rows) if U[i][c] is not None] for c in range(cols)]
    max_moves = [[c for c in range(cols) if V[i][c] is not None] for i in range(rows)]
    best = None
    for tau in product(*min_moves):
        worst = None
        for sigma in product(*max_moves):
            seen, weights, c = {}, [], j
            while c not in seen:
                seen[c] = len(weights)
                i = tau[c]
                weights.append(V[i][sigma[i]] - U[i][c])
                c = sigma[i]
            cycle = weights[seen[c]:]
            mean = Fraction(sum(cycle), len(cycle))
            if worst is None or mean > worst:
                worst = mean
        if best is None or worst < best:
            best = worst
    return best


def phi(H: Homogeneous, lam) -> Fraction:
    """The spectral function: the game value at node n, by brute force."""
    return game_value(H.U(), H.V(Fraction(lam)), H.n)


def piece_value(piece, lam) -> Fraction:
    _lo, _hi, alpha, beta, k = piece
    return Fraction(alpha + beta * Fraction(lam), k)


def check_pieces(H: Homogeneous, pieces, samples=()):
    """Spectral pieces (lo, hi, alpha, beta, k), in the units of the data
    scaled by H.scale(), with lo/hi None at -inf/+inf: they tile the line,
    join continuously, rise with slope 0 or 1/k for k <= min(m,n)+1, and
    agree with the brute-force spectral function at each sample."""
    if not pieces or pieces[0][0] is not None or pieces[-1][1] is not None:
        return "the pieces do not run from -inf to +inf"
    k_max = min(H.m, H.n) + 1
    for lo, hi, alpha, beta, k in pieces:
        slope = Fraction(beta, k)
        if slope != 0 and (slope.numerator != 1 or slope.denominator > k_max):
            return f"slope {slope} is not 0 or 1/k with k <= {k_max}"
        if lo is not None and hi is not None and not lo < hi:
            return f"empty piece [{lo}, {hi}]"
    for left, right in zip(pieces, pieces[1:]):
        if left[1] is None or left[1] != right[0]:
            return f"a gap or overlap at {left[1]}"
        if piece_value(left, left[1]) != piece_value(right, right[0]):
            return f"a jump at {left[1]}"
    scale = H.scale()
    for lam in samples:
        lam = Fraction(lam)
        covering = [p for p in pieces if (p[0] is None or p[0] <= lam) and (p[1] is None or lam <= p[1])]
        if piece_value(covering[0], lam) != scale * phi(H, lam / scale):
            return f"the pieces miss the spectral function at {lam}"
    return None


def smallest_zero(pieces):
    """The least lambda where the nondecreasing pieces reach 0, or None."""
    for lo, hi, alpha, beta, k in pieces:
        if beta == 0:
            if alpha == 0:
                return lo
            continue
        z = -Fraction(alpha)
        if (lo is None or lo <= z) and (hi is None or z <= hi):
            return z
    return None

"""Strategy certificates of optimality and unboundedness, with validation.

An optimality certificate is a Min strategy tau plus lambda* (and by default
a feasible witness vector); it is accepted when every cycle of the
tau-restricted game digraph accessible from node n+1 has nonpositive weight,
strictly negative once the objective row m+1 is deleted, and phi(lambda*) is
confirmed nonnegative.  An unboundedness certificate is a Max strategy sigma
whose restricted digraph at lambda = 0 shows only nonnegative cycles
accessible from node n+1, none through row m+1: the oracle's sigma at
``spectral.deep_lambda``.

Each of the four cycle conditions reads the game of ``spectral.game_at`` (at
lambda* for optimality, at 0 for unboundedness) and says that no cycle of
positive weight is reachable from node n+1 in a one-player graph: Max's
graph against tau; the same without the columns tau routes to row m+1, each
arc reweighted to (n+2)w + 1 (a simple cycle has at most n+1 arcs, so it is
positive under the new weights exactly when its old weight is nonnegative);
and Min's graph against sigma, weighted 1 on the arcs row m+1 realizes and
0 elsewhere, or with its weights negated.  Its dual witness is a vector of
integer potentials z, -inf off the nodes that node n+1 reaches, with
z_{n+1} finite and z_v >= z_u + w on every arc that leaves a node of finite
z: ``potentials`` and ``strict_potentials``, ``through_potentials`` and
``negated_potentials``.  The potentials issued are the least ones, longest
paths on the same graphs built from the instance's arrays
(``trop_core.means_at_most``), and a certificate without them gets them the
same way; the witness is ``least_solution_fixed`` at lambda* on those arrays.
What a certificate without them or without a witness needs, a check builds
and solves on a spare instance, so the instance's state stays as it was.

The check trusts no solver code (McConnell, Mehlhorn, Naeher & Schweitzer,
"Certifying algorithms", 2011).  It reads the instance's grids, or their
read-only numpy image, converted from them entry for entry by
``homogenize``, from which it forms the game at lambda* with its own code:
trusting the image is trusting the instance.  An optimality check with both potential vectors
runs on int64 arrays (one masked comparison per vector over tau's rows of
V, two masked row maxima for the witness) when the game has at least
ARRAY_CHECK_ENTRIES entries per grid, below which numpy's fixed cost is not
repaid, and an exact bound on every value computed fits int64.  Every other
check loops over the grids in Python, exact at any size.  Both paths give
the same result, down to the first broken arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from .game_engine import MaxStrategy, MinStrategy, least_solution_fixed
from .game_engine import max_graph, min_graph
from .spectral import HomogeneousInstance, deep_lambda, game_at, phi_nonneg
from .trop_core import NEG_INF, ExtendedNumber, means_at_most


class CertificateSynthesisFailed(Exception):
    """A generated certificate failed validation: indicates an oracle bug."""


# The potential vectors of each certificate type: field names and JSON keys.
OPTIMALITY_POTENTIALS = ("potentials", "strict_potentials")
UNBOUNDEDNESS_POTENTIALS = ("through_potentials", "negated_potentials")


@dataclass(frozen=True)
class OptimalityCertificate:
    """lambda* (unscaled), a left-optimal Min strategy, and a feasible witness.

    The witness is the full homogeneous vector in the caller's units, with
    coordinate n+1 normalized to 0.  The optional potentials (n+1 ints, None
    for -inf, in the units of the grids of game_at(H, lam * H.scale)) prove
    the two cycle conditions on tau's graph.
    """

    lam: Fraction
    tau: MinStrategy
    witness: Optional[tuple]
    potentials: Optional[tuple] = None
    strict_potentials: Optional[tuple] = None


@dataclass(frozen=True)
class UnboundednessCertificate:
    """A Max strategy certifying phi >= 0 for every lambda.

    The optional potentials (n+1 ints, None for -inf, in the units of the
    grids of game_at(H, 0)) prove the two cycle conditions on sigma's graph.
    """

    sigma: MaxStrategy
    through_potentials: Optional[tuple] = None
    negated_potentials: Optional[tuple] = None


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def _witness_numerators(y: tuple, g: int) -> tuple:
    """(den, z, top): den the lcm of y's finite denominators, z the ints
    den*g*y (None off them), and top the +inf coordinates."""
    den = lcm(*(e.value.denominator for e in y if e.kind == 0))
    z = [g * e.value.numerator * (den // e.value.denominator) if e.kind == 0 else None for e in y]
    return den, z, [j for j, e in enumerate(y) if e.kind == 1]


def _witness_satisfies(y: tuple, g: int, a, b) -> bool:
    """U y <= V y on the integer grids a, b, with y in units that g scales to theirs.

    Both sides are compared exactly in integers: with den the lcm of the
    denominators of y, den*g*y is integral, and the grids are multiplied
    by den.
    """
    den, z, top = _witness_numerators(y, g)

    def side(row):
        # (kind, value) keys order -inf < finite < +inf like ExtendedNumber.
        if any(row[j] is not None for j in top):
            return (1, 0)
        best = max(
            (den * x + zj for x, zj in zip(row, z) if x is not None and zj is not None),
            default=None,
        )
        return (-1, 0) if best is None else (0, best)

    return all(side(ai) <= side(bi) for ai, bi in zip(a, b))


# Each cycle condition is a one-player graph on the Min nodes 0..n (node n is
# the paper's n+1, the source), read from grid rows in bundles of arcs
# (out, node, row, k, c): with out true, node -> l of weight k*row[l] + c for
# each finite row[l]; else j -> node of weight k*row[j] + c for each finite
# row[j].


def _optimality_bundles(g, tau: tuple, m: int, strict: bool) -> list:
    """Max's graph against tau, arcs j -> l of weight b[tau(j)][l] - a[tau(j)][j];
    strict drops the columns routed to row m (the objective row) and
    reweights each arc from w to (n+2)w + 1."""
    a, b = g.a, g.b
    if strict:
        k = g.n + 1  # the game's n is the instance's n + 1
        return [(True, j, b[i], k, 1 - k * a[i][j]) for j, i in enumerate(tau) if i != m]
    return [(True, j, b[i], 1, -a[i][j]) for j, i in enumerate(tau)]


def _unboundedness_bundles(g, sigma: tuple, m: int, through: bool) -> list:
    """Min's graph against sigma, arcs j -> sigma(i) for each row i: weighted
    1 on row m's arcs and 0 elsewhere (through), or a_ij - b_i,sigma(i)."""
    a, b = g.a, g.b
    if through:
        return [(False, l, a[i], 0, int(i == m)) for i, l in enumerate(sigma)]
    return [(False, l, a[i], 1, -b[i][l]) for i, l in enumerate(sigma)]


def _optimality_graphs(arrays, tau: tuple, m: int) -> tuple:
    """The graphs of _optimality_bundles as (weights, mask, p, q) of the
    instance's arrays, their cycle means to be at most p/q: Max's against tau,
    at most 0, and without the columns tau routes to row m, at most
    -1/(N+1) for N Min nodes (reweighted to (N+1)w + 1, as the bundles
    read them)."""
    tau = np.array(tau, dtype=np.intp)
    w, mask = max_graph(arrays, tau)
    return (w, mask, 0, 1), (w, mask & (tau != m)[:, None], -1, len(tau) + 1)


def _unboundedness_graphs(arrays, sigma: tuple, m: int) -> tuple:
    """The graphs of _unboundedness_bundles as (weights, mask, 0, 1): Min's
    against sigma, through and negated, their cycle means to be at most 0.
    They share their arcs; only row m's, j -> sigma(m), weigh 1 in the
    first."""
    w, mask = min_graph(arrays, sigma)
    through = np.zeros(mask.shape, dtype=np.int64)
    through[arrays[0][m], sigma[m]] = 1
    return (through, mask, 0, 1), (w, mask, 0, 1)


def _broken_potentials(z, bundles: list, n: int, key: str) -> str:
    """Why z fails to prove that no cycle of positive weight is reachable
    from node n, or "" when it proves it: z_n is finite and z_v >= z_u + w on
    every arc that leaves a node u with finite z_u.  Then every node that n
    reaches has a finite z, and the weights of a reachable cycle sum to at
    most the sum of z_v - z_u around it, which is 0."""
    if len(z) != n + 1:
        return f"{key} has the wrong length"
    if z[n] is None:
        return f"{key}: node n+1 is -inf"
    for out, node, row, k, c in bundles:
        if out:
            zu = z[node]
            if zu is None:
                continue
            t = zu + c
            for l, (zl, x) in enumerate(zip(z, row)):
                if x is not None and (zl is None or zl < t + k * x):
                    return _broken_arc(key, node, l, k * x + c)
        else:
            zl = z[node]
            for j, (zj, x) in enumerate(zip(z, row)):
                if x is not None and zj is not None and (zl is None or zl < zj + k * x + c):
                    return _broken_arc(key, j, node, k * x + c)
    return ""


def _broken_arc(key: str, u: int, v: int, w: int) -> str:
    return f"{key}: the arc {u + 1} -> {v + 1} of weight {w} breaks z_v >= z_u + w"


def _cycle_condition(z, bundles: list, graph, n: int, key: str, diverged: str) -> str:
    """Why the condition fails ("" when it holds), checked on the potentials
    z, or on the longest paths from node n on graph = (weights, mask, p, q)
    when z is None; ``diverged`` when those do not exist."""
    if z is None:
        w, mask, p, q = graph
        z = means_at_most(w, mask, n, p, q)
        if z is None:
            return diverged
    return _broken_potentials(z, bundles, n, key)


POSITIVE = "a cycle accessible from node n+1 has positive weight"
NOT_NEGATIVE = "a cycle avoiding row m+1 accessible from node n+1 is not negative"
THROUGH_ROW = "a cycle accessible from node n+1 passes through row m+1"
NEGATIVE = "a cycle accessible from node n+1 has negative weight"


ARRAY_CHECK_ENTRIES = 256  # the measured break-even of the two paths


def check_optimality(H: HomogeneousInstance, cert: OptimalityCertificate) -> CheckResult:
    """Accept iff tau's restricted digraph certifies lambda* per the three
    conditions: nonpositive accessible cycles, strictly negative ones without
    row m+1, and a confirmed phi(lambda*) >= 0, by the array path or the
    loops as the module docstring says."""
    potentials = cert.potentials, cert.strict_potentials
    if H.image[0].size >= ARRAY_CHECK_ENTRIES and None not in potentials:
        if (result := _check_optimality_arrays(H, cert)) is not None:
            return result
    return _check_optimality_loops(H, cert)


def _spare(H: HomogeneousInstance) -> HomogeneousInstance:
    """A new instance on H's grids and image, which converts nothing."""
    return HomogeneousInstance(H.U, H.V, H.scale, H.image)


def _witness_reason(H: HomogeneousInstance, cert: OptimalityCertificate, lam_s, satisfied) -> str:
    """Why the witness (phi(lambda*) >= 0 without one) fails; ``satisfied()``
    tests U y <= V(lambda*) y on a well-formed witness."""
    y = cert.witness
    if y is None:
        return "" if phi_nonneg(_spare(H), lam_s)[0] else "phi(lambda*) < 0"
    if len(y) != H.n + 1:
        return "witness has the wrong length"
    if not y[H.n].is_finite:
        return "witness coordinate n+1 is not finite"
    return "" if satisfied() else "witness violates U y <= V(lambda*) y"


def _check_optimality_loops(H: HomogeneousInstance, cert: OptimalityCertificate) -> CheckResult:
    """check_optimality by loops over the grids of game_at(H, lambda*);
    potentials it lacks come from longest paths on a spare's arrays."""
    lam_s = Fraction(cert.lam) * H.scale
    g = game_at(H, lam_s)
    cert.tau.check(g)
    tau, m, n = cert.tau.choices, H.m, H.n
    missing = None in (cert.potentials, cert.strict_potentials)
    graphs = _optimality_graphs(_spare(H).arrays(lam_s)[0], tau, m) if missing else (None, None)
    reason = _cycle_condition(
        cert.potentials, _optimality_bundles(g, tau, m, False), graphs[0], n,
        "potentials", POSITIVE,
    ) or _cycle_condition(
        cert.strict_potentials, _optimality_bundles(g, tau, m, True), graphs[1], n,
        "strict_potentials", NOT_NEGATIVE,
    ) or _witness_reason(
        H, cert, lam_s, lambda: _witness_satisfies(cert.witness, g.d * H.scale, g.a, g.b)
    )
    return CheckResult(not reason, reason)


def _check_optimality_arrays(H: HomogeneousInstance,
                             cert: OptimalityCertificate) -> Optional[CheckResult]:
    """check_optimality, for a certificate with both potential vectors, on
    int64 arrays of the game at lambda* built from H.image as game_at builds
    its grids; None when an exact bound on some value does not fit int64."""
    lam_s = Fraction(cert.lam) * H.scale
    cert.tau.check(game_at(H, 0))  # the game's support is the same at every lambda
    d, shift = lam_s.denominator, lam_s.numerator
    n, k, y, zs = H.n, H.n + 2, cert.witness, (cert.potentials, cert.strict_potentials)
    # |payments| <= G, so |weights| <= 2kG + 1, and the sums the checks form
    # stay within Z + 2kG + 1 (potentials) and den*G + max|den*g*y| (witness).
    G = d * H.M + abs(shift)
    bound = max(max(map(abs, filter(None, zs[0] + zs[1])), default=0) + 2 * k * G + 1, d)
    if y is not None and len(y) == n + 1:
        den, zw, _top = _witness_numerators(y, d * H.scale)
        bound = max(bound, den, den * G + max(map(abs, filter(None, zw)), default=0))
    if bound >= 2**62:
        return None
    Um, Vm, Uw, Vw = H.image
    a = Uw * d
    last = [[0 if x is None else d * x + shift for x in H.V[-1]]]
    b = np.vstack((Vw[:-1] * d, np.array(last, dtype=np.int64)))
    tau = np.array(cert.tau.choices, dtype=np.intp)
    w, arcs = b[tau] - a[tau, np.arange(n + 1)][:, None], Vm[tau]
    # Row-major order is the bundles' order: argmax finds the arc the loops name.
    strict = arcs & (tau != H.m)[:, None]
    for z, weights, arcs, key in ((zs[0], w, arcs, "potentials"),
                                  (zs[1], k * w + 1, strict, "strict_potentials")):
        reason = _broken_potentials(z, (), n, key)  # no bundles: z's own checks
        if reason:
            return CheckResult(False, reason)
        fin = np.array([x is not None for x in z])
        zv = np.array([0 if x is None else x for x in z], dtype=np.int64)
        broken = arcs & fin[:, None] & (~fin | (zv < zv[:, None] + weights))
        if broken.any():
            j, l = divmod(int(broken.argmax()), n + 1)
            return CheckResult(False, _broken_arc(key, j, l, int(weights[j, l])))

    def satisfied() -> bool:
        kinds = np.array([e.kind for e in y])
        zv = np.array([0 if x is None else x for x in zw], dtype=np.int64)
        low = -bound - 1  # below every finite side, as -inf; -low above, as +inf
        sides = [np.where((mask & (kinds == 1)).any(axis=1), -low,
                          np.where(mask & (kinds == 0), den * grid + zv, low).max(axis=1))
                 for mask, grid in ((Um, a), (Vm, b))]
        return bool((sides[0] <= sides[1]).all())

    reason = _witness_reason(H, cert, lam_s, satisfied)
    return CheckResult(not reason, reason)


def check_unboundedness(H: HomogeneousInstance, cert: UnboundednessCertificate) -> CheckResult:
    """Accept iff every cycle of G^sigma_0 accessible from Min node n+1 avoids
    Max row m+1 and has nonnegative weight."""
    g = game_at(H, 0)
    cert.sigma.check(g)
    sigma, m, n = cert.sigma.choices, H.m, H.n
    missing = None in (cert.through_potentials, cert.negated_potentials)
    graphs = _unboundedness_graphs(_spare(H).arrays(0)[0], sigma, m) if missing else (None, None)
    reason = _cycle_condition(
        cert.through_potentials, _unboundedness_bundles(g, sigma, m, True), graphs[0],
        n, "through_potentials", THROUGH_ROW,
    ) or _cycle_condition(
        cert.negated_potentials, _unboundedness_bundles(g, sigma, m, False), graphs[1],
        n, "negated_potentials", NEGATIVE,
    )
    return CheckResult(not reason, reason)


def make_optimality_certificate(H: HomogeneousInstance, lam_scaled: Fraction) -> OptimalityCertificate:
    """Build and validate a certificate for the minimal zero lambda* (scaled).

    tau comes from the oracle on the perturbed game at lambda* -
    1/(min(m,n)+2), where node n+1 loses; the witness from the least
    solution on the integer game at lambda*, and the potentials from
    longest paths on tau's graph at lambda*, both on the instance's arrays.
    """
    lam_scaled = Fraction(lam_scaled)
    rep = H.report(lam_scaled - Fraction(1, H.k_bound + 2))
    if H.n in rep.winning:
        raise CertificateSynthesisFailed(
            "node n+1 still wins below lambda*: the value is not the minimal zero"
        )
    at_opt = H.report(lam_scaled)
    if H.n not in at_opt.winning:
        raise CertificateSynthesisFailed("no feasible witness at lambda*")
    arrays, _W, d = H.arrays(lam_scaled)
    y = least_solution_fixed(arrays, at_opt.sigma, H.n)
    den = d * H.scale
    witness = tuple(NEG_INF if v is None else ExtendedNumber(0, Fraction(v, den)) for v in y)
    graphs = _optimality_graphs(arrays, rep.tau.choices, H.m)
    z = [means_at_most(w, mask, H.n, p, q) for w, mask, p, q in graphs]
    cert = OptimalityCertificate(lam_scaled / H.scale, rep.tau, witness, *z)
    return _validated(check_optimality(H, cert), cert)


def _validated(result: CheckResult, cert):
    """cert when it passed its check; a failed check means an oracle bug."""
    if not result:
        raise CertificateSynthesisFailed(result.reason)
    return cert


def make_unboundedness_certificate(H: HomogeneousInstance) -> UnboundednessCertificate:
    """Build and validate a Max strategy certifying unboundedness.

    sigma is the oracle's at deep_lambda, where every cycle through row m+1
    has negative weight: node n+1 wins there only on lambda-free cycles,
    which certify at lambda = 0.  The prechecks solved that game already.
    The potentials come from longest paths on sigma's graph at lambda = 0.
    """
    rep = H.report(deep_lambda(H))
    if H.n not in rep.winning:
        raise CertificateSynthesisFailed("no certifying Max strategy was found")
    graphs = _unboundedness_graphs(H.arrays(0)[0], rep.sigma.choices, H.m)
    z = [means_at_most(w, mask, H.n, p, q) for w, mask, p, q in graphs]
    cert = UnboundednessCertificate(rep.sigma, *z)
    return _validated(check_unboundedness(H, cert), cert)

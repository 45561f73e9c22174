"""Strategy certificates of optimality and unboundedness, with validation.

An optimality certificate is a Min strategy tau plus lambda* (and by default
a feasible witness vector); it is accepted when every cycle of the
tau-restricted game digraph accessible from node n+1 has nonpositive weight,
strictly negative once the objective row m+1 is deleted, and phi(lambda*) is
confirmed nonnegative.  An unboundedness certificate is a Max strategy sigma
whose restricted digraph at lambda = 0 shows only nonnegative cycles
accessible from node n+1, none through row m+1.

Both checks read the integer grids of ``spectral.game_at`` and are
one-player longest-path questions: a cycle condition holds exactly when the
longest paths from node n+1, suitably weighted, converge, which the integer
Kleene iteration decides (``trop_core.positive_cycle_reachable``).  The strict
condition becomes the same test after reweighting each arc to (n+2)w + 1: a
simple cycle has at most n+1 arcs, so it is positive under the new weights
exactly when its old weight is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .game_engine import MaxStrategy, MinStrategy, least_solution_fixed
from .spectral import (
    HomogeneousInstance,
    game_at,
    game_report,
    phi_nonneg,
    sigma_arcs,
    tau_arcs,
)
from .trop_core import ExtendedNumber, positive_cycle_reachable


class CertificateSynthesisFailed(Exception):
    """A generated certificate failed validation: indicates an oracle bug."""


@dataclass(frozen=True)
class OptimalityCertificate:
    """lambda* (unscaled), a left-optimal Min strategy, and a feasible witness.

    The witness is the full homogeneous vector in the caller's units, with
    coordinate n+1 normalized to 0.
    """

    lam: Fraction
    tau: MinStrategy
    witness: Optional[tuple]


@dataclass(frozen=True)
class UnboundednessCertificate:
    """A Max strategy certifying phi >= 0 for every lambda."""

    sigma: MaxStrategy


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def _witness_satisfies(y: tuple, g: int, a, b) -> bool:
    """U y <= V y on the integer grids a, b, with y in units that g scales to theirs.

    Both sides are compared exactly: y times g is brought to integers by the
    lcm of its denominators, which multiplies the grids too.
    """
    vals = [Fraction(e.value) * g if e.is_finite else None for e in y]
    den = lcm(*(v.denominator for v in vals if v is not None))
    z = [None if v is None else v.numerator * (den // v.denominator) for v in vals]
    top = [j for j, e in enumerate(y) if e.kind == 1]

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


def check_optimality(H: HomogeneousInstance, cert: OptimalityCertificate) -> CheckResult:
    """Accept iff tau's restricted digraph certifies lambda* per the three
    conditions: nonpositive accessible cycles, strictly negative ones without
    row m+1, and a confirmed phi(lambda*) >= 0."""
    lam_s = Fraction(cert.lam) * H.scale
    g = game_at(H, lam_s)
    arcs = tau_arcs(g, cert.tau)
    if positive_cycle_reachable(H.n + 1, arcs.items(), H.n):
        return CheckResult(False, "a cycle accessible from node n+1 has positive weight")

    # Delete Max node m+1: drop the arcs of the columns routed to it.
    tau, k = cert.tau.choices, H.n + 2
    kept = (((j, l), k * w + 1) for (j, l), w in arcs.items() if tau[j] != H.m)
    if positive_cycle_reachable(H.n + 1, kept, H.n):
        return CheckResult(
            False, "a cycle avoiding row m+1 accessible from node n+1 is not negative"
        )

    if cert.witness is not None:
        if len(cert.witness) != H.n + 1:
            return CheckResult(False, "witness has the wrong length")
        if not cert.witness[H.n].is_finite:
            return CheckResult(False, "witness coordinate n+1 is not finite")
        if not _witness_satisfies(cert.witness, g.d * H.scale, g.a, g.b):
            return CheckResult(False, "witness violates U y <= V(lambda*) y")
    else:
        ok, _, _ = phi_nonneg(H, lam_s)
        if not ok:
            return CheckResult(False, "phi(lambda*) < 0")
    return CheckResult(True)


def check_unboundedness(H: HomogeneousInstance, cert: UnboundednessCertificate) -> CheckResult:
    """Accept iff every cycle of G^sigma_0 accessible from Min node n+1 avoids
    Max row m+1 and has nonnegative weight."""
    g = game_at(H, 0)
    arcs = sigma_arcs(g, cert.sigma)
    # A cycle passes through row m+1 when it uses an arc j -> sigma(m+1) that
    # row m+1 can realize; weighting those arcs 1 and the rest 0 makes such a
    # cycle the positive ones.
    l_obj, enters = cert.sigma.choices[H.m], g.a[H.m]
    through = (((j, l), int(l == l_obj and enters[j] is not None)) for (j, l) in arcs)
    if positive_cycle_reachable(H.n + 1, through, H.n):
        return CheckResult(False, "a cycle accessible from node n+1 passes through row m+1")
    negated = (((j, l), -w) for (j, l), w in arcs.items())
    if positive_cycle_reachable(H.n + 1, negated, H.n):
        return CheckResult(False, "a cycle accessible from node n+1 has negative weight")
    return CheckResult(True)


def _unscale_vec(y, scale: int) -> tuple:
    return tuple(
        ExtendedNumber.finite(Fraction(e.value, scale)) if e.is_finite else e for e in y
    )


def make_optimality_certificate(H: HomogeneousInstance, lam_scaled: Fraction) -> OptimalityCertificate:
    """Build and validate a certificate for the minimal zero lambda* (scaled).

    tau comes from the oracle on the integer-scaled perturbed game at
    lambda* - 1/(min(m,n)+2), where node n+1 loses; the witness from the
    Kleene least solution on the integer game at lambda*.
    """
    lam_scaled = Fraction(lam_scaled)
    k2 = H.k_bound + 2
    rep = game_report(H, lam_scaled - Fraction(1, k2), k2)
    if H.n in rep.winning:
        raise CertificateSynthesisFailed(
            "node n+1 still wins below lambda*: the value is not the minimal zero"
        )
    at_opt = game_report(H, lam_scaled)
    if H.n not in at_opt.winning:
        raise CertificateSynthesisFailed("no feasible witness at lambda*")
    g = game_at(H, lam_scaled)
    y = least_solution_fixed(g.a, g.b, at_opt.sigma, H.n)
    cert = OptimalityCertificate(lam_scaled / H.scale, rep.tau, _unscale_vec(y, g.d * H.scale))
    result = check_optimality(H, cert)
    if not result:
        raise CertificateSynthesisFailed(result.reason)
    return cert


def make_unboundedness_certificate(H: HomogeneousInstance) -> UnboundednessCertificate:
    """Build and validate a Max strategy certifying unboundedness.

    Two constructions are tried.  When the objective constant is -inf and a
    feasible homogeneous vector exists that is -inf on the support of u (and
    finite at n+1), sigma picks for each row the column attaining the
    right-hand side; the telescoping inequality makes every accessible cycle
    nonnegative, and supp(u) screening keeps row m+1 inaccessible.  Otherwise
    sigma is taken from the winning oracle at a lambda so negative that any
    cycle through row m+1 has negative weight: a strategy winning there can
    only rely on lambda-free cycles, which certify at lambda = 0.
    """
    cert = _support_condition_certificate(H)
    if cert is None:
        cert = _deep_lambda_certificate(H)
    if cert is None:
        raise CertificateSynthesisFailed("no certifying Max strategy was found")
    result = check_unboundedness(H, cert)
    if not result:
        raise CertificateSynthesisFailed(result.reason)
    return cert


def _support_condition_certificate(H: HomogeneousInstance):
    from .solver import homogeneous_solution_with_zeros

    n = H.n
    supp_u = frozenset(j for j, x in enumerate(H.U[-1]) if x is not None)
    if n in supp_u:
        return None
    ybar = homogeneous_solution_with_zeros(H.U[:-1], H.V[:-1], supp_u, n)
    if ybar is None:
        return None
    choices = []
    for row in game_at(H, 0).b:
        moves = [l for l, x in enumerate(row) if x is not None]
        best_l, best_v = moves[0], None
        for l in moves:
            if ybar[l] is not None and (best_v is None or row[l] + ybar[l] > best_v):
                best_v, best_l = row[l] + ybar[l], l
        choices.append(best_l)
    return UnboundednessCertificate(MaxStrategy(tuple(choices)))


def _deep_lambda_certificate(H: HomogeneousInstance):
    # M bounds every payment of the game at lambda = 0.
    lam_low = -(2 * (H.k_bound + 2) * H.M + 1)
    rep = game_report(H, lam_low)
    if H.n not in rep.winning:
        return None
    return UnboundednessCertificate(rep.sigma)

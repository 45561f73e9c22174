"""Strategy certificates of optimality and unboundedness, with validation.

An optimality certificate is a Min strategy tau plus lambda* (and by default
a feasible witness vector); it is accepted when every cycle of the
tau-restricted game digraph accessible from node n+1 has nonpositive weight,
strictly negative once the objective row m+1 is deleted, and phi(lambda*) is
confirmed nonnegative.  An unboundedness certificate is a Max strategy sigma
whose restricted digraph at lambda = 0 shows only nonnegative cycles
accessible from node n+1, none through row m+1.  Both checks are
polynomial-time: SCC decomposition plus Karp cycle means.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .game_engine import (
    MaxStrategy,
    MinStrategy,
    least_solution_fixed,
    restrict_min,
    trop_matvec,
)
from .spectral import HomogeneousInstance, game_at, game_report, integer_game, phi_nonneg
from .trop_core import (
    NEG_INF,
    ExtendedNumber,
    TropMatrix,
    WeightedDigraph,
    cycle_means,
    digraph_of_matrix,
    scc_and_access,
)


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


def _scale_vec(y, scale: int) -> tuple:
    return tuple(
        ExtendedNumber.finite(e.value * scale) if e.is_finite else e for e in y
    )


def check_optimality(H: HomogeneousInstance, cert: OptimalityCertificate) -> CheckResult:
    """Accept iff tau's restricted digraph certifies lambda* per the three
    conditions: nonpositive accessible cycles, strictly negative ones without
    row m+1, and a confirmed phi(lambda*) >= 0."""
    lam_s = Fraction(cert.lam) * H.scale
    game = game_at(H, lam_s)
    cert.tau.check(game)

    mat = restrict_min(game, cert.tau)
    D = digraph_of_matrix(mat)
    access = scc_and_access(D, H.n).access
    decomp, means = cycle_means(D, "max")
    for c, comp in enumerate(decomp.components):
        if means[c] is not None and means[c] > 0 and any(v in access for v in comp):
            return CheckResult(False, "a cycle accessible from node n+1 has positive weight")

    # Delete Max node m+1: silence the columns routed to it.
    rows = [
        [NEG_INF] * mat.cols if cert.tau.choices[j] == H.m else list(mat.entries[j])
        for j in range(mat.rows)
    ]
    mat2 = TropMatrix(rows)
    D2 = digraph_of_matrix(mat2)
    access2 = scc_and_access(D2, H.n).access
    decomp2, means2 = cycle_means(D2, "max")
    for c, comp in enumerate(decomp2.components):
        if means2[c] is not None and means2[c] >= 0 and any(v in access2 for v in comp):
            return CheckResult(
                False, "a cycle avoiding row m+1 accessible from node n+1 is not negative"
            )

    if cert.witness is not None:
        y = _scale_vec(cert.witness, H.scale)
        if len(y) != H.n + 1:
            return CheckResult(False, "witness has the wrong length")
        if not y[H.n].is_finite:
            return CheckResult(False, "witness coordinate n+1 is not finite")
        lhs = trop_matvec(game.A, y)
        rhs = trop_matvec(game.B, y)
        if not all(a <= b for a, b in zip(lhs, rhs)):
            return CheckResult(False, "witness violates U y <= V(lambda*) y")
    else:
        ok, _, _ = phi_nonneg(H, lam_s)
        if not ok:
            return CheckResult(False, "phi(lambda*) < 0")
    return CheckResult(True)


def check_unboundedness(H: HomogeneousInstance, cert: UnboundednessCertificate) -> CheckResult:
    """Accept iff every cycle of G^sigma_0 accessible from Min node n+1 avoids
    Max row m+1 and has nonnegative weight."""
    game = game_at(H, 0)
    cert.sigma.check(game)
    n_min = H.n + 1
    n_nodes = n_min + H.m + 1
    arcs = []
    for i in range(H.m + 1):
        mx = n_min + i
        l = cert.sigma.choices[i]
        arcs.append((mx, l, game.B.entries[i][l].value))
        for j in range(n_min):
            a = game.A.entries[i][j]
            if a.is_finite:
                arcs.append((j, mx, -a.value))
    D = WeightedDigraph.from_arcs(n_nodes, arcs)
    access = scc_and_access(D, H.n).access
    decomp, means = cycle_means(D, "min")
    objective_row = n_min + H.m
    if objective_row in access:
        comp = decomp.components[decomp.comp_of[objective_row]]
        if len(comp) > 1:
            return CheckResult(False, "a cycle accessible from node n+1 passes through row m+1")
    for c, comp in enumerate(decomp.components):
        if means[c] is not None and means[c] < 0 and any(v in access for v in comp):
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
    _f, rep = game_report(H, lam_scaled - Fraction(1, k2), k2)
    if H.n in rep.winning:
        raise CertificateSynthesisFailed(
            "node n+1 still wins below lambda*: the value is not the minimal zero"
        )
    _f, at_opt = game_report(H, lam_scaled)
    if H.n not in at_opt.winning:
        raise CertificateSynthesisFailed("no feasible witness at lambda*")
    f, a, b = integer_game(H, lam_scaled)
    y = least_solution_fixed(a, b, at_opt.sigma, H.n)
    cert = OptimalityCertificate(lam_scaled / H.scale, rep.tau, _unscale_vec(y, f * H.scale))
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
    supp_u = frozenset(j for j in range(n + 1) if H.u[j].is_finite)
    if n in supp_u:
        return None
    ybar = homogeneous_solution_with_zeros(H.C, H.D, supp_u, n)
    if ybar is None:
        return None
    game = game_at(H, 0)
    choices = []
    for i in range(H.m + 1):
        best_l, best_v = None, None
        for l in game.max_moves(i):
            b = game.B.entries[i][l]
            cand = b.add_max(ybar[l])
            if cand.is_finite and (best_v is None or cand.value > best_v):
                best_v, best_l = cand.value, l
        if best_l is None:
            best_l = game.max_moves(i)[0]
        choices.append(best_l)
    return UnboundednessCertificate(MaxStrategy(tuple(choices)))


def _deep_lambda_certificate(H: HomogeneousInstance):
    # M bounds every payment of the game at lambda = 0.
    lam_low = -(2 * (H.k_bound + 2) * H.M + 1)
    _f, rep = game_report(H, lam_low)
    if H.n not in rep.winning:
        return None
    return UnboundednessCertificate(rep.sigma)

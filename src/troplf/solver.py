"""Solution algorithms: prechecks, bisection, positive and negative Newton.

All three algorithms locate the minimal zero lambda* of the spectral function
phi on the integer-scaled homogeneous instance, then attach a feasible witness
and a validated strategy certificate.  The prechecks classify every instance
by a parametric game: its own, which also brackets lambda*, or that of the
program whose v is e_{n+1} when v is identically -inf.  Negative Newton reads
phi_tau's sign from ``trop_core.means_at_most``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .game_engine import (
    InternalCertificateMismatch,
    MaxStrategy,
    MinStrategy,
    OracleStats,
    max_graph,
)
from .spectral import (
    HomogeneousInstance,
    LfpInstance,
    deep_lambda,
    game_at,  # noqa: F401  (the benchmark's tracer test reads solver.game_at)
    homogenize,
    initial_bounds,
    phi_nonneg,
)
from .trop_core import NEG_INF, ExtendedNumber, means_at_most


class IterationCapExceeded(Exception):
    """A solver ran past its proven iteration bound: an implementation bug."""


class InfeasibleStart(ValueError):
    """Positive Newton's start lies below the optimum: phi(lam0) < 0."""


class _NoneLeftWinningType:
    """Marker: no Max strategy keeps node n+1 winning in the perturbed game.

    Returned by left_optimal_max_strategy when the current lambda_k is already
    the minimal zero of phi.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "NoneLeftWinning"


NoneLeftWinning = _NoneLeftWinningType()

METHODS = ("newton", "bisection", "negative-newton")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve: status, unscaled lambda*, witness, certificate, trace.

    The trace lists (iteration, lambda_k, phi sign) triples in the scaled
    units the algorithms iterate in.  ``solve`` adds ``stats``, the work of
    the instance's parametric game (runs, memo hits, policy-iteration
    rounds and ranked rounds, runs that ended on Python ints); it is not
    part of the answer, so outcomes compare without it.
    """

    status: str  # "Optimal" | "Unbounded" | "Infeasible"
    lam: Optional[Fraction]
    witness: Optional[tuple]
    certificate: Optional[object]
    trace: list
    stats: Optional[OracleStats] = field(default=None, compare=False)


# --- precheck result markers ----------------------------------------------


@dataclass(frozen=True)
class Proceed:
    lam0: Fraction


@dataclass(frozen=True)
class PrecheckInfeasible:
    reason: str = ""


@dataclass(frozen=True)
class PrecheckUnbounded:
    # True when v is identically -inf: the game of v = e_{n+1} decides, and no
    # strategy certificate can read the instance's own game, undefined there.
    degenerate: bool = False


# --- a denominator row identically -inf -----------------------------------


def homogeneous_solution_with_zeros(H: HomogeneousInstance) -> Optional[tuple]:
    """For v identically -inf: a y with C y <= D y, y_{n+1} = 0 and u y =
    -inf, as ints (None for -inf), or None when there is none.

    Such a y exists exactly when the program with v = e_{n+1} (q = -inf,
    s = 0, objective u y) is unbounded: its feasible set is a finitely
    generated tropical cone, so an infimum of -inf is attained at a
    generator.  Its game decides that at deep_lambda, whose optimal sigma
    wins at every lambda, so the least solution against sigma, which does
    not depend on lambda, has u y <= lambda for all lambda.  That program has
    H's U, M, m and n, so its instance is asked at deep_lambda(H), is built
    on H's image with v's row replaced, and H's stats book the run.
    """
    from .game_engine import least_solution_fixed

    m, n = H.m, H.n
    e = tuple(0 if j == n else None for j in range(n + 1))
    Um, Vm, Uw, Vw = H.image
    Vm, Vw = Vm.copy(), Vw.copy()
    Vm[-1], Vw[-1] = [j == n for j in range(n + 1)], 0  # e's mask and weights
    He = HomogeneousInstance(H.U, H.V[:-1] + (e,), H.scale, (Um, Vm, Uw, Vw))
    He.stats = H.stats
    rep = He.report(deep_lambda(H))
    if n not in rep.winning:
        return None
    y = least_solution_fixed(He.constraints(), MaxStrategy(rep.sigma.choices[:m]), n)
    if any(u is not None and yj is not None for u, yj in zip(H.U[m], y)):
        raise InternalCertificateMismatch("the point of an unbounded program has u y > -inf")
    return y


# --- prechecks -------------------------------------------------------------


def precheck(H: HomogeneousInstance):
    """Classify the instance before iterating, with at most two games.

    With v identically -inf, homogeneous_solution_with_zeros decides by the
    game of v = e_{n+1}: unbounded when it finds a point, else infeasible.
    Otherwise phi alone does: infeasible when phi(lam_hi) < 0, unbounded
    when phi >= 0 at deep_lambda, else Proceed.  Proceed leaves lambda*
    finite, hence in [lam_lo, lam_hi], so phi(lam_lo - 1) < 0 as well.
    """
    if all(x is None for x in H.V[-1]):
        if homogeneous_solution_with_zeros(H) is None:
            return PrecheckInfeasible("no feasible point makes the numerator -inf")
        return PrecheckUnbounded(degenerate=True)
    _, lam_hi = initial_bounds(H)
    if not phi_nonneg(H, lam_hi)[0]:
        return PrecheckInfeasible("phi is negative at the upper bound")
    if phi_nonneg(H, deep_lambda(H))[0]:
        return PrecheckUnbounded()
    return Proceed(Fraction(lam_hi))


# --- Newton machinery ------------------------------------------------------


def newton_step(H: HomogeneousInstance, sigma: MaxStrategy) -> ExtendedNumber:
    """One positive-Newton step: the minimal zero of phi^sigma.

    With l = sigma(m+1) and y_l pinned to 0, the least solution y of
    C y <= D^sigma y (longest paths on Min's graph against sigma, the rows
    sigma sends to l verified afterwards, on the instance's arrays of C and D)
    gives lambda_next = (u y) - v_l, or -inf when u y is -inf.
    """
    from .game_engine import least_solution_fixed

    if len(sigma.choices) != H.m + 1:
        raise ValueError("sigma must cover all m+1 Max rows of the parametric game")
    l = sigma.choices[H.m]
    vl = H.V[H.m][l]
    if vl is None:
        raise ValueError("sigma routes the objective row to a -inf column")
    y = least_solution_fixed(H.constraints(), MaxStrategy(sigma.choices[: H.m]), l)
    uy = max(
        (u + yj for u, yj in zip(H.U[H.m], y) if u is not None and yj is not None), default=None
    )
    if uy is None:
        return NEG_INF
    return ExtendedNumber.finite(uy - vl)


def left_optimal_max_strategy(
    H: HomogeneousInstance, lam: Union[int, Fraction]
) -> Union[MaxStrategy, _NoneLeftWinningType]:
    """Max strategy winning at lambda_k - 1/(min(m,n)+2), or NoneLeftWinning.

    The game there has grids times lambda's denominator, min(m,n)+2 at an
    integer lambda_k.  A strategy that keeps node n+1 winning just left of
    lambda_k is left optimal at lambda_k; when none exists, lambda_k is the
    minimal zero of phi.
    """
    rep = H.report(Fraction(lam) - Fraction(1, H.k_bound + 2))
    if H.n not in rep.winning:
        return NoneLeftWinning
    # The oracle's sigma guarantees exactly the perturbed value at node n+1,
    # i.e. it is optimal there, not merely winning, which pins the
    # left-optimal choice.
    return rep.sigma


def positive_newton_cap(H: HomogeneousInstance) -> int:
    """Iteration bound for the positive Newton method: 4M(min(m,n)+1)+1."""
    return 4 * H.M * (H.k_bound + 1) + 1


def bisection_cap(H: HomogeneousInstance) -> int:
    """Oracle-call bound for bisection: ceil(log2(4M(min(m,n)+1)+1))+1."""
    width = 4 * H.M * (H.k_bound + 1) + 1
    return math.ceil(math.log2(width)) + 1 if width > 1 else 1


def _least_integer(holds, lo: int, hi: int, hi_holds: bool = False) -> Optional[int]:
    """The least integer in (lo, hi], lo < hi, where the nondecreasing
    predicate ``holds`` is true, given that it is false at lo; None when it
    is false at hi too.  A dichotomy that asks about hi only when hi_holds
    does not already say it is true and no smaller integer is."""
    while hi - lo > 1:
        mid = -((-(hi + lo)) // 2)
        if holds(mid):
            hi, hi_holds = mid, True
        else:
            lo = mid
    return hi if hi_holds or holds(hi) else None


def positive_newton_solve(
    H: HomogeneousInstance, lam0: Optional[Fraction] = None
) -> SolveOutcome:
    """Newton iteration from above: strictly decreasing feasible lambda_k,
    from lam0 or lam_hi.  phi is asked at the start first, and
    InfeasibleStart raised when it is negative there.  The trace opens with
    lam0, and the iteration runs from ceil(lam0): lambda* is an integer and
    phi nondecreasing, while a rational start just above lambda* has its
    perturbed game left of lambda*.  After the prechecks lam_hi is a memo
    hit, so where phi > 0 there the first run starts from its strategies,
    not from deep_lambda's."""
    _, lam_hi = initial_bounds(H)
    lam = Fraction(lam_hi if lam0 is None else lam0)
    if not phi_nonneg(H, lam)[0]:
        raise InfeasibleStart("lam0 is not feasible: phi(lam0) < 0")
    cap = positive_newton_cap(H)
    trace = [(0, lam, ">=0")]
    lam = Fraction(math.ceil(lam))
    for k in range(1, cap + 2):
        sigma = left_optimal_max_strategy(H, lam)
        if sigma is NoneLeftWinning:
            return _finish_optimal(H, lam, trace)
        nxt = newton_step(H, sigma)
        # sigma wins left of lam, so the minimal zero of phi^sigma lies below
        # lam, unless sigma wins without row m+1 and so at every lambda.
        if not nxt.is_finite or nxt.value >= lam:
            return _finish_unbounded(H, trace)
        lam = nxt.value
        trace.append((k, lam, ">=0"))
    raise IterationCapExceeded(f"positive Newton exceeded {cap} iterations")


def bisection_solve(H: HomogeneousInstance) -> SolveOutcome:
    """Integer dichotomy on the sign of phi over (lam_lo - 1, lam_hi], where
    phi(lam_lo - 1) < 0 <= phi(lam_hi) after Proceed.  The dichotomy takes
    both for granted, so an end it lands on is asked after, off the trace:
    Infeasible when phi(lam_hi) < 0, Unbounded when phi(lam_lo - 1) >= 0."""
    lam_lo, lam_hi = initial_bounds(H)
    trace = []

    def nonneg(lam: int) -> bool:
        ok = phi_nonneg(H, lam)[0]
        trace.append((len(trace), Fraction(lam), ">=0" if ok else "<0"))
        return ok

    lam = _least_integer(nonneg, lam_lo - 1, lam_hi, hi_holds=True)
    if lam == lam_hi and not phi_nonneg(H, lam)[0]:
        return SolveOutcome("Infeasible", None, None, None, trace)
    if lam == lam_lo and phi_nonneg(H, lam - 1)[0]:
        return _finish_unbounded(H, trace)
    return _finish_optimal(H, Fraction(lam), trace)


def _min_strategy_count(H: HomogeneousInstance) -> int:
    count = 1
    for j in range(H.n + 1):
        count *= sum(1 for row in H.U if row[j] is not None)
    return count


def _min_zero_phi_tau(
    H: HomogeneousInstance, tau: MinStrategy, lam_k: Fraction, lam_hi: int
) -> Optional[Fraction]:
    """Minimal zero of the convex nondecreasing phi_tau in (lam_k, lam_hi],
    where phi_tau(lam_k) < 0 and both ends are integers.

    The zero is an integer.  phi_tau is the largest cycle mean reachable
    from node n+1 in tau's one-player graph, whose arcs are integer except
    that the arcs leaving row m+1 carry lambda.  A cycle through row m+1
    c > 1 times splits there into c cycles whose mean it averages, so the
    largest mean is attained by a cycle through row m+1 at most once: each
    piece of phi_tau is w/L or (w + lambda)/L with w an integer, and the
    first to reach 0 does so at lambda = -w, the least integer where
    phi_tau >= 0 (``_least_integer``; lam_hi is probed only when every point
    below it is negative).  Returns None when phi_tau stays negative up to
    lam_hi.  At an integer lambda the means have denominators at most n+1,
    so phi_tau < 0 there exactly when ``trop_core.means_at_most`` bounds
    them by -1/(n+2).
    """

    def at_most(lam: int, p: int, q: int) -> bool:
        graph = max_graph(H.arrays(lam)[0], tau.choices)
        return means_at_most(*graph, H.n, p, q) is not None

    zero = _least_integer(lambda lam: not at_most(lam, -1, H.n + 2), int(lam_k), lam_hi)
    if zero is None:
        return None
    if not at_most(zero, 0, 1):
        raise AssertionError("phi_tau has no zero at the integer it crosses 0")
    return Fraction(zero)


def negative_newton_solve(H: HomogeneousInstance) -> SolveOutcome:
    """Newton iteration from below: strictly increasing infeasible lambda_k
    from deep_lambda, whose game the prechecks solved (Unbounded when phi
    >= 0 there).  Each step retires a Min strategy (its phi_tau stays >= 0),
    and the iterates are integers of [deep_lambda, lam_hi], fewer than the
    cap's numeric term when min(m,n) > 0; else Min has one strategy (m = 0),
    or each phi_tau is a loop at node n+1 and one step reaches lambda* (n = 0)."""
    _, lam_hi = initial_bounds(H)
    lam = Fraction(deep_lambda(H))
    k1 = H.k_bound + 1
    cap = min(_min_strategy_count(H), 4 * H.M * k1 * k1 * k1 + k1 + 4)
    trace = []
    for k in range(cap + 1):
        ok, _sigma, tau = phi_nonneg(H, lam)
        trace.append((k, lam, ">=0" if ok else "<0"))
        if ok:
            if k == 0:
                return _finish_unbounded(H, trace)
            return _finish_optimal(H, lam, trace)
        nxt = _min_zero_phi_tau(H, tau, lam, lam_hi)
        if nxt is None:
            return SolveOutcome("Infeasible", None, None, None, trace)
        if not nxt > lam:
            raise AssertionError("negative Newton step failed to increase")
        lam = nxt
    raise IterationCapExceeded(f"negative Newton exceeded {cap} iterations")


# --- outcome assembly ------------------------------------------------------


def _finish_optimal(H: HomogeneousInstance, lam_scaled: Fraction, trace: list) -> SolveOutcome:
    from . import certify

    cert = certify.make_optimality_certificate(H, lam_scaled)
    witness = cert.witness[: H.n] if cert.witness is not None else None
    return SolveOutcome("Optimal", Fraction(lam_scaled) / H.scale, witness, cert, trace)


def _finish_unbounded(
    H: HomogeneousInstance, trace: list, degenerate: bool = False
) -> SolveOutcome:
    from . import certify

    cert = None if degenerate else certify.make_unboundedness_certificate(H)
    return SolveOutcome("Unbounded", None, None, cert, trace)


def solve(inst: LfpInstance, method: str = "newton", lam0: Optional[Fraction] = None) -> SolveOutcome:
    """Homogenize, precheck, run the chosen method, and unscale the result,
    with the instance's stats.  The arguments are checked first: lam0 is a
    start for Newton alone."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if lam0 is not None and method != "newton":
        raise ValueError(f"lam0 is a start for newton, not for {method}")
    H = homogenize(inst)
    pre = precheck(H)
    if isinstance(pre, PrecheckInfeasible):
        out = SolveOutcome("Infeasible", None, None, None, [])
    elif isinstance(pre, PrecheckUnbounded):
        out = _finish_unbounded(H, [], pre.degenerate)
    elif method == "bisection":
        out = bisection_solve(H)
    elif method == "negative-newton":
        out = negative_newton_solve(H)
    else:
        out = positive_newton_solve(H, None if lam0 is None else Fraction(lam0) * H.scale)
    return replace(out, stats=replace(H.stats))

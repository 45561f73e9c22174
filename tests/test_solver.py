"""Bisection, positive/negative Newton, prechecks, and Newton steps."""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from troplf import (
    NEG_INF,
    AssumptionViolated,
    ExtendedNumber,
    LfpInstance,
    MaxStrategy,
    NoneLeftWinning,
    Proceed,
    PrecheckInfeasible,
    PrecheckUnbounded,
    check_optimality,
    check_unboundedness,
    game_at,
    homogenize,
    initial_bounds,
    left_optimal_max_strategy,
    newton_step,
    phi,
    phi_nonneg,
    phi_tau,
    precheck,
    solve,
)
from troplf import certify, game_engine, solver, spectral
from troplf.game_engine import _game_arrays, least_solution_fixed
from troplf.solver import (
    InfeasibleStart,
    _min_zero_phi_tau,
    bisection_cap,
    bisection_solve,
    negative_newton_solve,
    positive_newton_cap,
    positive_newton_solve,
)
from troplf.spectral import HomogeneousInstance, deep_lambda

from conftest import e, make_instance, random_instance, recorded_runs
from maxplus import payment_matrices, trop_matvec
from support_reference import homogeneous_solution_with_zeros, row_max

NI = "-inf"


def fin(x):
    return ExtendedNumber.finite(x)


# --- precheck --------------------------------------------------------------


def test_precheck_infeasible_denominator_neg_inf():
    # q = -inf, s = -inf with a finite r: the numerator is finite at every
    # feasible point while the denominator is always -inf, so no finite value.
    inst = make_instance(
        A=[[0]], B=[[0]], c=[0], d=[0], p=[1], q=[NI], r=0, s=NI
    )
    assert isinstance(precheck(homogenize(inst)), PrecheckInfeasible)


def test_precheck_example2_proceeds(example2):
    pre = precheck(homogenize(example2))
    assert isinstance(pre, Proceed)
    assert pre.lam0 == 36


def test_precheck_unbounded_special_case():
    # minimize r - s with numerator -inf via p=-inf, r=-inf is unbounded
    # whenever c <= d makes x = 0 feasible.
    inst = make_instance(
        A=[[0, NI], [NI, 0]], B=[[0, NI], [NI, 0]], c=[0, -1], d=[0, 0],
        p=[NI, NI], q=[0, 0], r=NI, s=0,
    )
    assert isinstance(precheck(homogenize(inst)), PrecheckUnbounded)


def test_precheck_degenerate_unbounded_flag():
    # denominator identically -inf but a feasible point avoids the numerator
    inst = make_instance(
        A=[[0, -1]], B=[[NI, 0]], c=[0], d=[0], p=[1, NI], q=[NI, NI], r=NI, s=NI
    )
    pre = precheck(homogenize(inst))
    assert isinstance(pre, PrecheckUnbounded) and pre.degenerate


# --- the support reference (tests/support_reference.py) -------------------


def test_homogeneous_solution_with_zeros_basic(example2):
    H = homogenize(example2)
    C, D = H.U[:-1], H.V[:-1]
    y = homogeneous_solution_with_zeros(C, D, frozenset(), H.n)
    assert y is not None and y[H.n] == 0

    def side(row):  # max_j row_j + y_j, with -inf below every integer
        return max(((1, r + x) for r, x in zip(row, y) if r is not None and x is not None),
                   default=(0, 0))

    assert all(side(ci) <= side(di) for ci, di in zip(C, D))


# --- instances with a -inf numerator constant: the game route alone -------

METHODS = ("newton", "bisection", "negative-newton")


# Which entries of u = [p, r] sparse_instance may draw finite: all, p only
# (r = -inf), none (u identically -inf), or all with r finite.
U_MODES = ("any", "p", "none", "r")


def sparse_instance(
    rng: random.Random, u_mode: str, v_neg_inf: bool = False, size: int = 4
) -> LfpInstance:
    """A sparse instance, up to size x size with entries in [-5, 5], whose u
    follows u_mode (U_MODES) and whose v is identically -inf when v_neg_inf,
    else has a finite entry.  When a row or column that the game assumptions
    need finite came out all -inf, one of its entries is drawn again as a
    finite one."""
    m, n = rng.randint(1, size), rng.randint(1, size)

    def entry():
        return rng.randint(-5, 5) if rng.random() < 0.5 else None

    U = [[entry() for _ in range(n + 1)] for _ in range(m + 1)]
    V = [[entry() for _ in range(n + 1)] for _ in range(m + 1)]
    free = {"any": n + 1, "p": n, "none": 0, "r": n + 1}[u_mode]  # u's columns that may be finite
    U[m] = U[m][:free] + [None] * (n + 1 - free)
    if u_mode == "r":
        U[m][n] = rng.randint(-5, 5)
    if v_neg_inf:
        V[m] = [None] * (n + 1)

    def patch(cells):
        if all(G[i][j] is None for G, i, j in cells):
            G, i, j = rng.choice(cells)
            G[i][j] = rng.randint(-5, 5)

    for i in range(m):
        patch([(V, i, j) for j in range(n + 1)])
    for j in range(n + 1):
        patch([(U, i, j) for i in range(m + (j < free))])
    if not v_neg_inf:
        patch([(V, m, j) for j in range(n + 1)])
    return LfpInstance(
        [row[:n] for row in U[:m]], [row[:n] for row in V[:m]],
        [row[n] for row in U[:m]], [row[n] for row in V[:m]],
        U[m][:n], V[m][:n], U[m][n], V[m][n],
    )


def _checked(H, cert) -> bool:
    """cert passes its check both with its potentials and without them."""
    if isinstance(cert, certify.OptimalityCertificate):
        check, keys = certify.check_optimality, certify.OPTIMALITY_POTENTIALS
    else:
        check, keys = certify.check_unboundedness, certify.UNBOUNDEDNESS_POTENTIALS
    return bool(check(H, cert)) and bool(check(H, replace(cert, **dict.fromkeys(keys))))


@given(st.randoms(use_true_random=False), st.booleans())
def test_the_game_route_agrees_with_the_support_test(rng, u_neg_inf):
    """With r = -inf, a point that is -inf on supp(u) and finite at n+1 makes
    the objective -inf, so each method returns Unbounded when the support
    test finds one; when u is identically -inf the objective is -inf at
    every feasible point, so it returns Unbounded exactly then.  phi's sign
    at lam_lo - 1 and at deep_lambda agree, and every unboundedness
    certificate passes its check."""
    inst = sparse_instance(rng, "none" if u_neg_inf else "p")
    H = homogenize(inst)
    supp_u = frozenset(j for j, x in enumerate(H.U[-1]) if x is not None)
    point = homogeneous_solution_with_zeros(H.U[:-1], H.V[:-1], supp_u, H.n) is not None
    lam_lo, _ = initial_bounds(H)
    assert phi_nonneg(H, lam_lo - 1)[0] == phi_nonneg(H, deep_lambda(H))[0]
    for method in METHODS:
        out = solve(inst, method=method)
        if point:
            assert out.status == "Unbounded"
        elif u_neg_inf:
            assert out.status == "Infeasible"
        if out.status == "Unbounded":
            assert _checked(H, out.certificate)


def test_unbounded_where_the_support_test_finds_no_point():
    """min x1 - x2 subject to x1 >= 0: r = -inf and every feasible x1 is
    finite, so the support test finds no point, but x2 grows without bound."""
    inst = make_instance(
        A=[[NI, NI], [NI, 0]], B=[[0, NI], [NI, 0]], c=[0, NI], d=[NI, NI],
        p=[0, NI], q=[NI, 0], r=NI, s=NI,
    )
    H = homogenize(inst)
    assert homogeneous_solution_with_zeros(H.U[:-1], H.V[:-1], frozenset({0}), H.n) is None
    for method in METHODS:
        out = solve(inst, method=method)
        assert out.status == "Unbounded" and _checked(H, out.certificate)


def test_support_test_runs_only_without_a_denominator(example1, example2, example3, monkeypatch):
    """With homogeneous_solution_with_zeros raising, every instance whose v
    has a finite entry still solves by all three methods, each certificate
    checked: examples 1-3, criterion 6's such instances, and 40 instances
    with r = -inf, half of them with u identically -inf.  An instance with v
    identically -inf still asks for the support test."""
    from test_acceptance import criterion_6_instances

    def support_test(*args):
        raise AssertionError("the support test ran")

    monkeypatch.setattr(solver, "homogeneous_solution_with_zeros", support_test)
    rng = random.Random(14)
    instances = [example1, example2, example3]
    instances += [inst for inst in criterion_6_instances() if any(x is not None for x in inst.V[-1])]
    instances += [sparse_instance(rng, "none" if k % 2 == 0 else "p") for k in range(40)]
    statuses = Counter()
    for inst in instances:
        H = homogenize(inst)
        for method in METHODS:
            out = solve(inst, method=method)
            statuses[out.status] += 1
            assert (out.certificate is None) == (out.status == "Infeasible")
            assert out.certificate is None or _checked(H, out.certificate)
    assert min(statuses.values()) >= 30 and len(statuses) == 3
    degenerate = make_instance(
        A=[[0, -1]], B=[[NI, 0]], c=[0], d=[0], p=[1, NI], q=[NI, NI], r=NI, s=NI
    )
    with pytest.raises(AssertionError, match="the support test ran"):
        solve(degenerate)


# --- a denominator row identically -inf: the game of v = e_{n+1} ------------


@given(st.randoms(use_true_random=False), st.sampled_from(U_MODES))
def test_the_degenerate_precheck_agrees_with_the_support_reference(rng, u_mode):
    """With v identically -inf, solver.homogeneous_solution_with_zeros finds
    a point exactly when the support reference does (none when n+1 is in
    supp(u)); the point satisfies C y <= D y, is 0 at n+1 and -inf on
    supp(u); and every method returns Unbounded exactly then, else
    Infeasible."""
    inst = sparse_instance(rng, u_mode, v_neg_inf=True)
    H = homogenize(inst)
    C, D, n = H.U[:-1], H.V[:-1], H.n
    supp_u = frozenset(j for j, x in enumerate(H.U[-1]) if x is not None)
    expected = None if n in supp_u else homogeneous_solution_with_zeros(C, D, supp_u, n)
    y = solver.homogeneous_solution_with_zeros(H)
    assert (y is None) == (expected is None)
    if y is not None:
        assert y[n] == 0 and all(y[j] is None for j in supp_u)
        for ci, di in zip(C, D):
            lhs, rhs = row_max(ci, y), row_max(di, y)
            assert lhs is None or (rhs is not None and lhs <= rhs)
    status = "Infeasible" if y is None else "Unbounded"
    assert all(solve(inst, method=method).status == status for method in METHODS)


def test_a_degenerate_solve_books_its_one_oracle_run():
    """The game that decides a v identically -inf instance is one oracle
    run in the solve's stats, Unbounded or Infeasible."""
    unbounded = make_instance(
        A=[[0, -1]], B=[[NI, 0]], c=[0], d=[0], p=[1, NI], q=[NI, NI], r=NI, s=NI
    )
    infeasible = make_instance(A=[[0]], B=[[0]], c=[0], d=[0], p=[1], q=[NI], r=0, s=NI)
    for inst, status in ((unbounded, "Unbounded"), (infeasible, "Infeasible")):
        for method in METHODS:
            out = solve(inst, method=method)
            assert out.status == status and out.stats.runs == 1


def test_one_homogeneous_instance_per_solve(example2, monkeypatch):
    """A solve builds one HomogeneousInstance, by every method, on example 2,
    and two on the degenerate-denominator family (v identically -inf,
    decided by the game of a nearby program): the program's and the nearby
    program's.  It converts U and V to numpy once; the nearby program's
    instance reuses those arrays."""
    built, converted = [], []
    original = HomogeneousInstance.__init__
    convert = game_engine.grid_arrays

    def counted(H, *args):
        built.append(H)
        original(H, *args)

    def counted_conversion(grid):
        converted.append(len(grid))
        return convert(grid)

    monkeypatch.setattr(HomogeneousInstance, "__init__", counted)
    for module in (game_engine, spectral):
        monkeypatch.setattr(module, "grid_arrays", counted_conversion)
    rng = random.Random(15)
    degenerate = [sparse_instance(rng, U_MODES[i % len(U_MODES)], v_neg_inf=True, size=6)
                  for i in range(200)]
    for inst in degenerate + [example2]:
        rows = len(inst.U)
        for method in METHODS:
            built.clear()
            converted.clear()
            solve(inst, method=method)
            assert len(built) == (2 if all(x is None for x in inst.V[-1]) else 1)
            assert converted == [rows, rows]


def test_no_solve_runs_a_lone_game(example1, example2, example3, monkeypatch):
    """With feasibility_witness, _oracle_core and _game_arrays raising in
    every troplf module, examples 1-3, criterion 6's instances and 40 sparse
    instances with v identically -inf solve by all three methods: every
    game of a solve is a parametric game."""
    from test_acceptance import criterion_6_instances

    def lone_game(*args):
        raise AssertionError("a lone game ran")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "troplf":
            for attr in ("feasibility_witness", "_oracle_core", "_game_arrays"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, lone_game)
    for inst in [example1, example2, example3, *criterion_6_instances()]:
        for method in METHODS:
            solve(inst, method=method)
    rng = random.Random(15)
    degenerate = [sparse_instance(rng, U_MODES[k % len(U_MODES)], v_neg_inf=True) for k in range(40)]
    statuses = Counter(solve(inst, method=method).status for inst in degenerate for method in METHODS)
    assert statuses["Unbounded"] > 0 and statuses["Infeasible"] > 0


# --- newton_step goldens ---------------------------------------------------


def test_newton_step_example3_golden(example3):
    H = homogenize(example3)
    sigma = MaxStrategy((3, 1, 0, 3, 0))  # rows 1..4 then the objective row
    l = sigma.choices[H.m]
    C, D = H.U[:-1], H.V[:-1]
    y = least_solution_fixed(_game_arrays(C, D)[0], MaxStrategy(sigma.choices[: H.m]), l)
    assert y == (0, -1, None, -2)
    assert newton_step(H, sigma) == fin(-4)


def test_newton_step_example2_golden(example2):
    H = homogenize(example2)
    sigma = MaxStrategy((0,) * 7 + (2,))
    l = sigma.choices[H.m]
    C, D = H.U[:-1], H.V[:-1]
    y = least_solution_fixed(_game_arrays(C, D)[0], MaxStrategy(sigma.choices[: H.m]), l)
    assert y[:2] == (2, None)
    assert newton_step(H, sigma) == fin(4)


def test_newton_step_example1_golden(example1):
    H = homogenize(example1)
    sigma = left_optimal_max_strategy(H, Fraction(3))
    assert sigma is not NoneLeftWinning
    l = sigma.choices[H.m]
    assert l == 1
    C, D = H.U[:-1], H.V[:-1]
    y = least_solution_fixed(_game_arrays(C, D)[0], MaxStrategy(sigma.choices[: H.m]), l)
    assert (y[0], y[2]) == (None, -1)
    assert newton_step(H, sigma) == fin(-4)


# --- left-optimal strategies -----------------------------------------------


def test_left_optimal_none_at_optimum(example2):
    H = homogenize(example2)
    assert left_optimal_max_strategy(H, Fraction(0)) is NoneLeftWinning


def test_left_optimal_step_from_15(example2):
    H = homogenize(example2)
    sigma = left_optimal_max_strategy(H, Fraction(15))
    assert sigma is not NoneLeftWinning
    assert newton_step(H, sigma) == fin(4)


def test_left_optimal_perturbed_scaling_example3(example3):
    from troplf.game_engine import scaled_copy

    H = homogenize(example3)
    k2 = H.k_bound + 2
    assert k2 == 5
    perturbed = scaled_copy(game_at(H, Fraction(-1, k2)), k2)
    entries = {
        x.value
        for mat in payment_matrices(perturbed)
        for row in mat.entries
        for x in row
        if x.is_finite
    }
    assert {-15, -20, 14} <= entries
    assert all(v.denominator == 1 for v in entries)


# --- solver traces ---------------------------------------------------------


def test_positive_newton_example2_trace(example2):
    out = solve(example2, method="newton", lam0=15)
    assert out.status == "Optimal" and out.lam == 0
    assert [lam for (_k, lam, _s) in out.trace] == [15, 4, 1, 0]
    H = homogenize(example2)
    assert [phi(H, lam) for (_k, lam, _s) in out.trace] == [
        Fraction(11, 2), Fraction(3, 2), Fraction(1, 2), Fraction(0),
    ]


def test_positive_newton_example1_trace(example1):
    out = solve(example1, method="newton", lam0=3)
    assert out.status == "Optimal" and out.lam == -5
    assert [lam for (_k, lam, _s) in out.trace] == [3, -4, -5]


def test_positive_newton_example3_trace(example3):
    out = solve(example3, method="newton", lam0=0)
    assert out.status == "Optimal" and out.lam == -4
    assert [lam for (_k, lam, _s) in out.trace] == [0, -4]


def test_bisection_goldens(example1, example2, example3):
    assert solve(example1, method="bisection").lam == -5
    assert solve(example2, method="bisection").lam == 0
    assert solve(example3, method="bisection").lam == -4


def test_negative_newton_golden(example2):
    out = solve(example2, method="negative-newton")
    assert out.status == "Optimal" and out.lam == 0


def test_negative_newton_starts_at_deep_lambda(example2):
    """Negative Newton starts where the prechecks left phi negative, and
    climbs through infeasible integers to lambda*."""
    H = homogenize(example2)
    out = negative_newton_solve(H)
    lams = [lam for (_k, lam, _s) in out.trace]
    assert lams[0] == deep_lambda(H) and lams[-1] == 0
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert [sign for (_k, _lam, sign) in out.trace] == ["<0"] * (len(lams) - 1) + [">=0"]


def test_negative_newton_steps_land_on_the_minimal_zero_of_phi_tau():
    """Each negative-Newton step returns an integer z with phi_tau(z) = 0
    and phi_tau < 0 at z - eps.  Breakpoints have denominators <=
    min(m,n)+1, so none lies in (z - eps, z): phi_tau is affine there, and z
    is its minimal zero."""
    rng = random.Random(83)
    steps = 0
    while steps < 30:
        H = homogenize(random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 5, 0.3))
        if not isinstance(precheck(H), Proceed):
            continue
        lam, lam_hi = initial_bounds(H)
        eps = Fraction(1, 2 * (H.k_bound + 1) ** 2)
        ok, _sigma, tau = phi_nonneg(H, lam)
        while not ok and (z := _min_zero_phi_tau(H, tau, lam, lam_hi)) is not None:
            assert z.denominator == 1 and z > lam
            assert phi_tau(H, tau, z) == 0 > phi_tau(H, tau, z - eps)
            steps += 1
            lam = z
            ok, _sigma, tau = phi_nonneg(H, lam)


def test_solve_rejects_unknown_method(example2):
    with pytest.raises(ValueError):
        solve(example2, method="sorcery")


def test_solve_rejects_infeasible_lambda0(example2):
    with pytest.raises(ValueError):
        solve(example2, method="newton", lam0=-1)


def test_newton_from_a_rational_start_just_above_the_optimum(example1, example2, example3):
    """Newton reaches lambda* from lam0 = lambda* + 1/5, + 1/8 and + 1/2,
    with a certificate the check accepts, though the game just left of
    lam0, at lam0 - 1/(min(m,n)+2) (1/4 on examples 1 and 2, 1/5 on example
    3), lies left of lambda* for + 1/8 and, on examples 1 and 2, for + 1/5.
    lambda* - 1/5 raises InfeasibleStart."""
    for inst in (example1, example2, example3):
        lam = solve(inst).lam
        H = homogenize(inst)
        for offset in (Fraction(1, 5), Fraction(1, 8), Fraction(1, 2)):
            out = solve(inst, lam0=lam + offset)
            assert (out.status, out.lam, out.trace[0][1]) == ("Optimal", lam, lam + offset)
            assert check_optimality(H, out.certificate)
        with pytest.raises(InfeasibleStart):
            solve(inst, lam0=lam - Fraction(1, 5))


def test_solve_checks_its_arguments_before_the_prechecks(example2, monkeypatch):
    """An unknown method, or a lam0 for a method other than newton, raises
    before the instance is homogenized: on an infeasible instance too, and
    with a start that bisection and negative Newton would otherwise ignore."""
    infeasible = make_instance(A=[[0]], B=[[-1]], c=[NI], d=[NI], p=[0], q=[0], r=0, s=NI)
    assert solve(infeasible).status == "Infeasible"

    def unreachable(inst):
        raise AssertionError("homogenized before the arguments were checked")

    monkeypatch.setattr(solver, "homogenize", unreachable)
    for inst in (infeasible, example2):
        with pytest.raises(ValueError, match="unknown method"):
            solve(inst, method="bogus")
        for method in ("bisection", "negative-newton"):
            with pytest.raises(ValueError, match="start for newton"):
                solve(inst, method=method, lam0=-10**9)


@given(st.integers(-50, 50), st.integers(1, 70), st.integers(1, 72), st.booleans())
@example(0, 5, 1, False)  # the answer at lo + 1
@example(0, 5, 6, False)  # no integer of (lo, hi] holds: None
@example(-3, 9, 4, True)  # hi is known to hold, and is not asked
def test_least_integer_agrees_with_a_linear_scan(lo, width, offset, hi_holds):
    """solver._least_integer on the threshold predicate x >= lo + offset, which
    every nondecreasing predicate false at lo is, against a linear scan of
    (lo, hi].  It asks only inside (lo, hi], never hi when hi_holds says
    hi holds, and at most ceil(log2(width)) + 1 times."""
    hi, threshold = lo + width, lo + offset
    hi_holds = hi_holds and threshold <= hi
    asked = []

    def holds(x):
        asked.append(x)
        return x >= threshold

    expected = next((x for x in range(lo + 1, hi + 1) if holds(x)), None)
    asked.clear()
    assert solver._least_integer(holds, lo, hi, hi_holds) == expected
    assert all(lo < x <= hi for x in asked)
    assert len(asked) <= (width - 1).bit_length() + 1
    if hi_holds:
        assert hi not in asked


# --- solver invariants -----------------------------------------------------


def test_positive_newton_invariants(example2):
    H = homogenize(example2)
    out = positive_newton_solve(H)
    lams = [lam for (_k, lam, _s) in out.trace]
    assert all(a > b for a, b in zip(lams, lams[1:]))  # strict descent
    assert all(phi_nonneg(H, lam)[0] for lam in lams)  # feasibility upheld
    assert all(Fraction(lam).denominator == 1 for lam in lams)  # integrality
    assert len(out.trace) <= positive_newton_cap(H) + 1


def test_bisection_cap(example2):
    H = homogenize(example2)
    out = bisection_solve(H)
    assert len(out.trace) <= bisection_cap(H)


def test_solve_reports_the_oracle_work(example2):
    """Newton on example 2 solves the two precheck games, one perturbed game
    per step (the certificate reuses the last one) and the game at lambda*.
    Newton's start check at lam_hi and the certificate's perturbed game are
    the memo's."""
    out = solve(example2)
    assert (out.stats.runs, out.stats.memo_hits) == (2 + len(out.trace) + 1, 2)
    assert out.stats.rounds >= out.stats.runs
    assert out == replace(out, stats=None)


def test_a_newton_solve_builds_each_game_once(example2, monkeypatch):
    """The oracle builds the arrays of each game it runs, and one more set
    for the constraint rows, which every Newton step reads; the certificate
    asks for the arrays at lambda* right after their run and gets that
    run's own."""
    builds = []
    build = HomogeneousInstance._build

    def counted(self, lam):
        builds.append(lam)
        return build(self, lam)

    monkeypatch.setattr(HomogeneousInstance, "_build", counted)
    out = solve(example2)
    assert len(out.trace) > 1
    assert len(builds) == out.stats.runs + 1


def test_newton_starts_from_the_strategies_at_lam_hi(example2, monkeypatch):
    """Newton's first run after the prechecks starts from the strategies of
    phi's game at lam_hi, where it starts, not from those at deep_lambda,
    which the prechecks solved last."""
    runs = recorded_runs(monkeypatch)
    out = solve(example2)
    assert out.trace[0][1] == initial_bounds(homogenize(example2))[1]
    (_, *at_hi), (_, *at_deep), (start, _, _) = runs[:3]
    assert start == tuple(at_hi) != tuple(at_deep)


def precheck_programs() -> tuple:
    """(infeasible, unbounded): an instance that phi(lam_hi) < 0 makes
    infeasible, and an unbounded one whose v has a finite entry."""
    infeasible = make_instance(A=[[0]], B=[[-1]], c=[NI], d=[NI], p=[0], q=[0], r=0, s=NI)
    unbounded = make_instance(
        A=[[0, NI], [NI, 0]], B=[[0, NI], [NI, 0]], c=[0, -1], d=[0, 0],
        p=[NI, NI], q=[0, 0], r=NI, s=0,
    )
    return infeasible, unbounded


def test_the_prechecks_solve_one_game_or_two():
    """An instance that phi(lam_hi) < 0 makes infeasible costs one game.  An
    unbounded one whose v has a finite entry costs two, phi at lam_hi and
    at deep_lambda, and its certificate reads the second from the memo."""
    infeasible, unbounded = precheck_programs()
    out = solve(infeasible)
    assert out.status == "Infeasible" and (out.stats.runs, out.stats.memo_hits) == (1, 0)
    out = solve(unbounded)
    assert out.status == "Unbounded" and out.certificate is not None
    assert (out.stats.runs, out.stats.memo_hits) == (2, 1)


def test_the_method_functions_answer_as_solve(example1, example2, example3):
    """positive_newton_solve, bisection_solve and negative_newton_solve,
    called on homogenize(inst) without the prechecks, return solve()'s
    status and lambda*, with a certificate that passes its check exactly
    when the status is not Infeasible, on precheck_programs(), examples 1-3
    and criterion 6's instances.  Positive Newton raises InfeasibleStart on
    an infeasible program, and all three raise AssumptionViolated when v is
    identically -inf: phi is not defined there, and solve's prechecks decide
    such a program by the game of another."""
    from test_acceptance import criterion_6_instances

    methods = {"newton": positive_newton_solve, "bisection": bisection_solve,
               "negative-newton": negative_newton_solve}
    seen = Counter()
    for inst in [*precheck_programs(), example1, example2, example3, *criterion_6_instances()]:
        expected = solve(inst)
        for method, run in methods.items():
            H = homogenize(inst)
            if all(x is None for x in H.V[-1]):
                with pytest.raises(AssumptionViolated):
                    run(H)
            elif method == "newton" and expected.status == "Infeasible":
                with pytest.raises(InfeasibleStart):
                    run(H)
            else:
                out = run(H)
                assert (out.status, out.lam) == (expected.status, expected.lam)
                assert (out.certificate is None) == (out.status == "Infeasible")
                if out.status != "Infeasible":
                    check = check_optimality if out.status == "Optimal" else check_unboundedness
                    assert check(homogenize(inst), out.certificate)
                seen[method, out.status] += 1
    assert all(seen[method, status] for method in methods for status in ("Optimal", "Unbounded"))
    assert seen["bisection", "Infeasible"] and seen["negative-newton", "Infeasible"]


def zero_entries_instances(count: int = 200, seed: int = 16) -> list:
    """count seeded programs up to 3 x 3 whose entries are 0 or -inf.  Their
    M is 0, so lam_lo = lam_hi = 0: every Optimal one has lambda* = 0, the
    lower end of the bracket."""
    rng = random.Random(seed)
    return [random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 0.5)
            for _ in range(count)]


def test_programs_whose_entries_are_zero_or_neg_inf():
    """On 0/-inf programs the three methods agree on the status, every
    Optimal lambda* is 0, the lower end of the bracket, and every
    certificate passes its check."""
    statuses = Counter()
    for inst in zero_entries_instances():
        H = homogenize(inst)
        outs = [solve(inst, method=m) for m in ("newton", "bisection", "negative-newton")]
        assert len({out.status for out in outs}) == 1
        statuses[outs[0].status] += 1
        for out in outs:
            if out.status == "Optimal":
                assert out.lam == 0 and check_optimality(H, out.certificate)
            elif out.certificate is not None:
                assert check_unboundedness(H, out.certificate)
    assert min(statuses[s] for s in ("Optimal", "Unbounded", "Infeasible")) > 0


def test_optimal_outcome_witness_and_certificate(example2):
    out = solve(example2)
    H = homogenize(example2)
    assert check_optimality(H, out.certificate)
    x = out.witness
    # witness satisfies the constraints and attains the optimum exactly
    lhs = trop_matvec(example2.A, x)
    rhs = trop_matvec(example2.B, x)
    for i in range(example2.m):
        a = lhs[i] if lhs[i] > example2.c[i] else example2.c[i]
        b = rhs[i] if rhs[i] > example2.d[i] else example2.d[i]
        assert a <= b
    num = _sup(trop_matvec_vec(example2.p, x), example2.r)
    den = _sup(trop_matvec_vec(example2.q, x), example2.s)
    assert num.value - den.value == out.lam


def trop_matvec_vec(coeffs, x):
    acc = NEG_INF
    for c, xj in zip(coeffs, x):
        term = c.add_max(xj)
        if acc < term:
            acc = term
    return acc


def _sup(a, b):
    return a if b < a else b


def test_cross_method_agreement_random():
    rng = random.Random(101)
    agreed = 0
    while agreed < 25:
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4), 5, 0.4)
        a = solve(inst, method="bisection")
        b = solve(inst, method="newton")
        c = solve(inst, method="negative-newton")
        assert a.status == b.status == c.status
        if a.status == "Optimal":
            assert a.lam == b.lam == c.lam
        agreed += 1


def test_lambda_scaling_invariance():
    rng = random.Random(103)
    done = 0
    while done < 10:
        inst = random_instance(rng, 2, 2, 3, 0.3)
        out1 = solve(inst, method="bisection")
        if out1.status != "Optimal":
            continue
        tripled = make_scaled(inst, 3)
        out3 = solve(tripled, method="bisection")
        assert out3.status == "Optimal" and out3.lam == 3 * out1.lam
        done += 1


def make_scaled(inst, k):
    from troplf import LfpInstance

    def s(x):
        return fin(x.value * k) if x.is_finite else x

    return LfpInstance(
        [[s(x) for x in row] for row in inst.A.entries],
        [[s(x) for x in row] for row in inst.B.entries],
        [s(x) for x in inst.c],
        [s(x) for x in inst.d],
        [s(x) for x in inst.p],
        [s(x) for x in inst.q],
        s(inst.r),
        s(inst.s),
    )


def test_unbounded_outcome_certified():
    inst = make_instance(
        A=[[0, NI], [NI, 0]], B=[[0, NI], [NI, 0]], c=[0, -1], d=[0, 0],
        p=[NI, NI], q=[0, 0], r=NI, s=0,
    )
    out = solve(inst)
    assert out.status == "Unbounded"
    assert check_unboundedness(homogenize(inst), out.certificate)

"""Bisection, positive/negative Newton, prechecks, and Newton steps."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from troplf import (
    NEG_INF,
    ExtendedNumber,
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
from troplf.game_engine import _game_arrays, least_solution_fixed
from troplf.solver import (
    _min_zero_phi_tau,
    bisection_cap,
    bisection_solve,
    homogeneous_solution_with_zeros,
    negative_newton_solve,
    positive_newton_cap,
    positive_newton_solve,
)

from conftest import e, make_instance, random_instance
from maxplus import payment_matrices, trop_matvec

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


# --- homogeneous feasibility helper ----------------------------------------


def test_homogeneous_solution_with_zeros_basic(example2):
    H = homogenize(example2)
    C, D = H.U[:-1], H.V[:-1]
    y = homogeneous_solution_with_zeros(C, D, frozenset(), H.n)
    assert y is not None and y[H.n] == 0

    def side(row):  # max_j row_j + y_j, with -inf below every integer
        return max(((1, r + x) for r, x in zip(row, y) if r is not None and x is not None),
                   default=(0, 0))

    assert all(side(ci) <= side(di) for ci, di in zip(C, D))


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
    per step (the certificate reuses the last one) and the game at lambda*."""
    out = solve(example2)
    assert (out.stats.runs, out.stats.memo_hits) == (2 + len(out.trace) + 1, 1)
    assert out.stats.rounds >= out.stats.runs
    assert out == replace(out, stats=None)


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

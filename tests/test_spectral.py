"""Homogenization, the parametric game, and the spectral function."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from troplf import (
    NEG_INF,
    ExtendedNumber,
    LfpInstance,
    MeanPayoffGame,
    MinStrategy,
    cycle_time_vector,
    game_at,
    homogenize,
    initial_bounds,
    phi,
    phi_nonneg,
    phi_sigma,
    phi_tau,
    reconstruct,
)
from troplf import certify, game_engine, solver, spectral, trop_core
from troplf.cli_io import parse_instance
from troplf.game_engine import (
    GAME_MEMO_SIZE,
    AssumptionViolated,
    MaxStrategy,
    restrict_min,
    scaled_copy,
    value_report,
)

from conftest import RawInstance, e, make_game, make_instance, random_instance, recorded_runs
from grid_reference import reconstruct as grid_reconstruct, spectral_grid
from maxplus import payment_matrices, restrict_max
from test_acceptance import criterion_10_instances


def fin(x):
    return ExtendedNumber.finite(x)


def grid_entries(vec) -> tuple:
    """ExtendedNumbers as grid entries: integers, None for -inf."""
    return tuple(x.value if x.is_finite else None for x in vec)


# --- homogenize ------------------------------------------------------------


def test_homogenize_example1(example1):
    H = homogenize(example1)
    assert H.U[-1] == (None, None, 0)
    assert H.V[-1] == (1, 3, None)
    assert H.scale == 1 and H.M == 3


def test_homogenize_example2(example2):
    H = homogenize(example2)
    assert H.U[-1] == (2, -4, None)
    assert H.V[-1] == (None, None, 0)
    assert H.scale == 1 and H.M == 6
    C, D = H.U[:-1], H.V[:-1]
    assert len(C[0]) == 3 and len(C) == 7
    assert tuple(row[2] for row in C) == grid_entries(example2.c)
    assert tuple(row[2] for row in D) == grid_entries(example2.d)


def test_homogenize_scales_rationals():
    inst = make_instance(
        A=[[Fraction(1, 2)]], B=[[Fraction(1, 3)]], c=[0], d=[0],
        p=[1], q=["-inf"], r="-inf", s=0,
    )
    H = homogenize(inst)
    assert H.scale == 6
    assert H.U[0][0] == 3
    assert H.V[0][0] == 2
    assert all(type(x) is int for row in H.U[:-1] for x in row if x is not None)


def _assert_image_of(image, U, V):
    """image holds U and V entry for entry, each grid as int64 exactly when
    every entry fits."""
    for grid, mask, weights in zip((U, V), image[:2], image[2:]):
        assert mask.tolist() == [[x is not None for x in row] for row in grid]
        assert weights.tolist() == [[0 if x is None else x for x in row] for row in grid]
        fits = all(-(2**63) <= x < 2**63 for row in grid for x in row if x is not None)
        assert (weights.dtype == np.int64) == fits


@pytest.mark.parametrize("big", [2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
def test_homogenize_converts_each_grid_once_into_its_image(big):
    """The image is U and V, int64 exactly where every entry fits, and M
    its bound, whether the entry is in U or in v; also on a program with no
    constraint rows."""
    for where in ("U", "v"):
        inst = make_instance(
            A=[[big if where == "U" else 0, "-inf"]], B=[[0, 1]], c=[0], d=["-inf"],
            p=[0, 1], q=[big if where == "v" else 1, 0], r=0, s="-inf",
        )
        H = homogenize(inst)
        _assert_image_of(H.image, H.U, H.V)
        assert H.M == abs(big)
    H = homogenize(make_instance(A=[], B=[], c=[], d=[], p=[big], q=[0], r=3, s=1))
    assert H.m == 0
    _assert_image_of(H.image, H.U, H.V)
    assert H.M == abs(big)


# --- the integer parametric game ------------------------------------------


def _perturbed(inst: RawInstance, rng: random.Random, big: int) -> RawInstance:
    """inst with each finite entry x replaced by big*x + t/q, |t| <= 3, q <= 4."""

    def f(x):
        if not x.is_finite:
            return x
        return fin(big * x.value + Fraction(rng.randint(-3, 3), rng.randint(1, 4)))

    return RawInstance(
        [[f(x) for x in row] for row in inst.A.entries],
        [[f(x) for x in row] for row in inst.B.entries],
        [f(x) for x in inst.c], [f(x) for x in inst.d],
        [f(x) for x in inst.p], [f(x) for x in inst.q], f(inst.r), f(inst.s),
    )


def _reference_game(inst: RawInstance, scale: int, lam) -> MeanPayoffGame:
    """The game at lam built from the instance's own entries times scale, as
    Fraction payments: U = [[A, c], [p, r]] and V = [[B, d], [q + lam, s + lam]]."""

    def row(entries, shift=0):
        return [fin(x.value * scale + shift) if x.is_finite else NEG_INF for x in entries]

    U = [row(r + (c,)) for r, c in zip(inst.A.entries, inst.c)] + [row(inst.p + (inst.r,))]
    V = [row(r + (d,)) for r, d in zip(inst.B.entries, inst.d)]
    V.append(row(inst.q + (inst.s,), Fraction(lam)))
    return make_game(U, V)


def assert_warm_report(g: MeanPayoffGame, warm, cold) -> None:
    """warm, an oracle report of g, has cold's values and winning set, and an
    optimal strategy pair: each one-player game it leaves has the values."""
    assert (warm.chi, warm.winning) == (cold.chi, cold.winning)
    chi = tuple(fin(c) for c in cold.chi)
    assert cycle_time_vector(restrict_max(g, warm.sigma), "min") == chi
    assert cycle_time_vector(restrict_min(g, warm.tau), "max") == chi


@pytest.mark.parametrize("big", [1, 2**70])
def test_game_at_matches_the_fraction_reference(big):
    """game_at(H, lam) has the integer payments of the Fraction game at lam,
    at lam and just left of it, at lam - 1/(min(m,n)+2).  At an integer lam
    the grids there are those of that game's payments times min(m,n)+2, and
    so are its values, with the same strategies.  These games, of at most
    4 x 4 nodes, lie below ``VALUE_STEP_ENTRIES``, so the oracle's first
    query on an instance is exactly a cold run, from the greedy pair; later
    ones are warm started and give the same values with an optimal
    strategy pair."""
    rng = random.Random(17)
    checked = rational = widest = bigint = 0
    while checked < 25:
        base = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 4, 0.35)
        inst = _perturbed(base, rng, big) if checked % 2 else base
        H = homogenize(inst)
        if all(x is None for x in H.V[-1]):
            continue  # no parametric game: see the next test
        k2 = H.k_bound + 2
        rational += H.scale > 1
        lams = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-30, 30), rng.randint(2, k2)))
        first = True
        for lam in lams:
            for mu in (lam, lam - Fraction(1, k2)):
                ref = _reference_game(inst, H.scale, mu)
                g = game_at(H, mu)
                assert (g.a, g.b, g.d) == (ref.a, ref.b, ref.d)
                widest = max([widest] + [abs(x) for row in g.a + g.b for x in row if x is not None])
                rep = value_report(g)
                if first:
                    assert rep == H.report(mu)
                    first = False
                else:
                    assert_warm_report(g, H.report(mu), rep)
                if mu != lam and lam.denominator == 1:
                    scaled = scaled_copy(ref, k2)
                    assert (scaled.a, scaled.b, scaled.d) == (g.a, g.b, 1)
                    times = value_report(scaled)
                    assert (times.sigma, times.tau, times.winning) == (rep.sigma, rep.tau, rep.winning)
                    assert times.chi == tuple(k2 * c for c in rep.chi)
        checked += 1
        bigint += H.stats.bigint_runs
    assert rational >= 10
    assert (widest > 2**63) == (big > 1) == (bigint > 0)


def _draw_instance(draw, m, n, finite):
    """An m x n LfpInstance whose entries are -inf (a third of them) or
    finite(), with finite() put where the game assumptions need an entry."""

    def entry():
        return None if draw(st.integers(0, 2)) == 0 else finite()

    A, B = ([[entry() for _ in range(n)] for _ in range(m)] for _ in range(2))
    c, d, p, q = ([entry() for _ in range(size)] for size in (m, m, n, n))
    r, s = entry(), entry()
    # the game assumptions: finite entries in each row of [B|d], each column
    # of [[A],[p]] and [[c],[r]], and in v = [q, s]
    for i in range(m):
        if all(x is None for x in B[i] + [d[i]]):
            d[i] = finite()
    for j in range(n):
        if all(row[j] is None for row in A) and p[j] is None:
            p[j] = finite()
    if all(x is None for x in c) and r is None:
        r = finite()
    if all(x is None for x in q) and s is None:
        s = finite()
    return LfpInstance(A, B, c, d, p, q, r, s)


@st.composite
def query_sequences(draw):
    """An instance up to 3 x 3 with -inf and rational entries, some of them
    past 2**63 in half the draws, and a few lambda queries on its
    parametric game, drawn from a pool of at most four, so that queries
    repeat and the oracle's memo answers some of them: an integer or a
    rational lambda, or an integer minus 1/(min(m,n)+2), as Newton asks."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bigs = draw(st.sampled_from(((1,), (1, 2**64))))
    big = bigs[-1]

    def finite():
        mult = draw(st.sampled_from(bigs))
        return mult * draw(st.integers(-6, 6)) + Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    inst = _draw_instance(draw, m, n, finite)
    k2 = min(m, n) + 2
    pool = draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9), st.integers(1, k2), st.booleans()),
        min_size=1, max_size=4,
    ))
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    lams = [Fraction(big * x + y) - Fraction(1, k2) if left else Fraction(big * x + y, den)
            for x, y, den, left in (pool[i] for i in order)]
    return inst, lams


@st.composite
def frozen_strategies(draw):
    """An instance up to 3 x 3 with -inf and rational entries, some of them
    past 2**63 in half the draws, a lambda, and a strategy of each player in
    its parametric game there."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bigs = draw(st.sampled_from(((1,), (1, 2**64))))

    def finite():
        mult = draw(st.sampled_from(bigs))
        return mult * draw(st.integers(-6, 6)) + Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    H = homogenize(_draw_instance(draw, m, n, finite))
    lam = Fraction(bigs[-1] * draw(st.integers(-6, 6)) + draw(st.integers(-9, 9)),
                   draw(st.integers(1, min(m, n) + 2)))
    g = game_at(H, lam)
    sigma = MaxStrategy(tuple(draw(st.sampled_from(g.max_moves(i))) for i in range(g.m)))
    tau = MinStrategy(tuple(draw(st.sampled_from(g.min_moves(j))) for j in range(g.n)))
    return H, lam, g, sigma, tau


@given(frozen_strategies())
def test_frozen_values_are_the_cycle_times(case):
    """phi_tau and phi_sigma, by policy iteration with one player held to
    the strategy, are the cycle times at node n+1 of tau's max-plus and
    sigma's min-plus one-player games, by Karp (restrict_min and
    restrict_max put the payments over g.d already).  Malformed strategies
    raise ValueError."""
    H, lam, g, sigma, tau = case
    assert phi_tau(H, tau, lam) == cycle_time_vector(restrict_min(g, tau), "max")[H.n].value
    assert phi_sigma(H, sigma, lam) == cycle_time_vector(restrict_max(g, sigma), "min")[H.n].value
    forbidden_tau = [tau.choices[:j] + (i,) + tau.choices[j + 1:]
                     for j in range(g.n) for i in range(g.m) if g.a[i][j] is None]
    for bad in [tau.choices[:-1], tau.choices[:-1] + (g.m,)] + forbidden_tau[:1]:
        with pytest.raises(ValueError):
            phi_tau(H, MinStrategy(bad), lam)
    forbidden_sigma = [sigma.choices[:i] + (j,) + sigma.choices[i + 1:]
                       for i in range(g.m) for j in range(g.n) if g.b[i][j] is None]
    for bad in [sigma.choices + (0,), sigma.choices[:-1] + (-1,)] + forbidden_sigma[:1]:
        with pytest.raises(ValueError):
            phi_sigma(H, MaxStrategy(bad), lam)


@given(query_sequences())
def test_warm_started_reports_match_cold_runs(case):
    """Each oracle report of a query sequence, warm started from the last
    query, has a cold value_report's values and an optimal strategy pair."""
    inst, queries = case
    H = homogenize(inst)
    for lam in queries:
        g = game_at(H, lam)
        assert_warm_report(g, H.report(lam), value_report(g))
    assert H.stats.runs == len(set(queries))


def test_warm_started_reports_match_cold_runs_on_a_50x50_instance():
    """A query sequence on criterion 10's first 50 x 50 instance, as a
    Newton solve makes it and then some: lam_hi, whose run is seeded by
    value steps from 0, deep_lambda, the optimum, other integers and the
    games just left of them, in a random order with repeats.  Every report
    has a cold value_report's values and an optimal strategy pair.  A run
    is seeded where the biases it finds, those of the last run or of a
    memo hit where phi > 0, have its denominator: 4 of the 7 runs here."""
    inst = next(criterion_10_instances())
    H = homogenize(inst)
    lo, hi = initial_bounds(H)
    k2 = H.k_bound + 2
    rng = random.Random(31)
    pool = [solver.solve(inst).lam * H.scale] + [Fraction(rng.randint(lo, hi)) for _ in range(2)]
    pool += [lam - Fraction(1, k2) for lam in pool] + [spectral.deep_lambda(H)]
    queries = [hi] + [rng.choice(pool) for _ in range(10)]
    reports, d, seeded = {}, None, 0
    for lam in queries:
        g = game_at(H, lam)
        rep = H.report(lam)
        assert_warm_report(g, rep, value_report(g))
        if lam not in reports:  # a run
            seeded += d in (None, lam.denominator)
            reports[lam], d = rep, lam.denominator
        elif rep.chi[-1] > 0:  # a memo hit that counts as the query
            d = lam.denominator
    assert H.stats.runs == len(set(queries)) == 7
    assert H.stats.seeded_runs == seeded == 4


def test_every_report_of_whole_newton_solves_is_a_warm_report(monkeypatch):
    """Every report that Newton solves ask for, on criterion 10's first 4
    instances and on 4 of the benchmark's rational-bigint-30 documents,
    has a cold value_report's values and an optimal strategy pair; most of
    those runs are warm and seeded by value steps from the last run's
    biases."""
    from test_bench_run import _load_run

    pool = _load_run().RationalBigint30()
    instances = list(islice(criterion_10_instances(), 4))
    instances += [parse_instance(pool.instance(1, i)).instance for i in range(4)]
    asked = []
    report = game_engine.HomogeneousInstance.report

    def recorded(H, lam):
        rep = report(H, lam)
        asked.append((H, lam, rep))
        return rep

    monkeypatch.setattr(game_engine.HomogeneousInstance, "report", recorded)
    runs = seeded = 0
    for inst in instances:
        stats = solver.solve(inst).stats
        runs, seeded = runs + stats.runs, seeded + stats.seeded_runs
    assert seeded > runs / 2 and len(asked) > runs
    checked = {}
    for H, lam, rep in asked:
        if (id(H), lam) in checked:  # a memo hit: the report checked before
            assert rep == checked[id(H), lam]
            continue
        g = game_at(H, lam)
        assert_warm_report(g, rep, value_report(g))
        checked[id(H), lam] = rep
    assert len(checked) < len(asked)


def test_game_report_with_a_factor_past_int64():
    """A lambda with a huge denominator scales the grids by a factor past
    int64, although the payments themselves stay small."""
    H = homogenize(make_instance(A=[[0]], B=[[0]], c=[0], d=[0], p=[0], q=[0], r=0, s=0))
    for lam in (Fraction(0), Fraction(1, 10**30), Fraction(-3, 10**30 + 1)):
        g = game_at(H, lam)
        assert_warm_report(g, H.report(lam), value_report(g))


def test_objective_row_past_int64_with_small_other_entries():
    """q past int64 with every other entry small: the payment bound of the
    game at lambda* is small, but the raw objective row is not."""
    inst = make_instance(A=[[0]], B=[[0]], c=[0], d=[0], p=[0], q=[2**70], r=0, s="-inf")
    out = solver.solve(inst)
    assert (out.status, out.lam) == ("Optimal", Fraction(-(2**70)))
    assert out.stats.bigint_runs > 0
    H = homogenize(inst)
    lam = out.lam * H.scale
    g = game_at(H, lam)
    assert H.report(lam) == value_report(g)
    for other in (Fraction(0), Fraction(-(2**70) + 1, 3), lam - 1, lam - Fraction(1, 3)):
        h = game_at(H, other)
        assert_warm_report(h, H.report(other), value_report(h))


def test_game_at_without_denominator_row():
    """With v all -inf the parametric game breaks Assumption 1."""
    inst = make_instance(
        A=[[1, "-inf"]], B=[[0, 2]], c=[0], d=[3], p=[2, 0], q=["-inf", "-inf"], r=1, s="-inf"
    )
    H = homogenize(inst)
    for lam in (Fraction(5, 3), Fraction(4)):
        with pytest.raises(AssumptionViolated, match="row 1 of B") as reference:
            _reference_game(inst, H.scale, lam)
        for mu in (lam, lam - Fraction(1, H.k_bound + 2)):
            with pytest.raises(AssumptionViolated) as built:
                game_at(H, mu)
            assert str(built.value) == str(reference.value)
            with pytest.raises(AssumptionViolated):
                H.report(mu)
        with pytest.raises(AssumptionViolated):
            phi_tau(H, MinStrategy((0, 0, 0)), lam)
        with pytest.raises(AssumptionViolated):
            phi_sigma(H, MaxStrategy((0, 0)), lam)


def test_game_memo_is_bounded_and_reused(example2):
    H = homogenize(example2)
    reconstruct(H)
    assert 0 < len(H.memo) <= GAME_MEMO_SIZE
    runs, hits = H.stats.runs, H.stats.memo_hits
    assert phi(H, Fraction(7, 3)) == phi(H, Fraction(7, 3))
    assert phi_nonneg(H, Fraction(7, 3))[0]
    assert H.stats.runs - runs == 1
    assert H.stats.memo_hits - hits == 2


def test_a_run_starts_from_the_last_query_answered(example2, monkeypatch):
    """A run starts from the strategies of the last query answered.  A memo
    hit counts where phi > 0 (at lam_hi), not where phi < 0 (at
    deep_lambda), where the start stays the last run's."""
    runs = recorded_runs(monkeypatch)
    H = homogenize(example2)
    a, b = initial_bounds(H)[1], spectral.deep_lambda(H)
    ra, rb = H.report(a), H.report(b)
    assert ra.chi[-1] > 0 > rb.chi[-1]
    assert (ra.sigma, ra.tau) != (rb.sigma, rb.tau)
    assert H.report(a) is ra  # a memo hit where phi > 0
    rc = H.report(1)
    assert runs[-1][0] == (ra.sigma.choices, ra.tau.choices)
    assert (rc.sigma, rc.tau) != (rb.sigma, rb.tau)
    assert H.report(b) is rb  # a memo hit where phi < 0
    H.report(2)
    assert runs[-1][0] == (rc.sigma.choices, rc.tau.choices)
    assert len(runs) == H.stats.runs == 4


def test_newton_solve_builds_no_scaled_copy(example2, monkeypatch):
    calls = []
    original = game_engine.scaled_copy

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (game_engine, spectral, solver, certify):
        if hasattr(module, "scaled_copy"):
            monkeypatch.setattr(module, "scaled_copy", counted)
    out = solver.solve(example2, method="newton")
    assert out.status == "Optimal" and out.lam == 0
    assert calls == []


def test_solve_reconstruct_and_checks_reach_no_karp(example1, example2, example3, monkeypatch):
    """No solve (any method), reconstruction or certificate check asks for
    Karp's cycle means: with trop_core.cycle_means raising, examples 1-3 and
    criterion 6's first 20 instances still solve, reconstruct and check,
    also with the certificates' potentials left for the check to find."""
    from test_acceptance import criterion_6_instances

    def karp(*args, **kwargs):
        raise AssertionError("Karp's cycle means were asked for")

    for module in (trop_core, game_engine, spectral, solver, certify):
        if hasattr(module, "cycle_means"):
            monkeypatch.setattr(module, "cycle_means", karp)
    checked = 0
    for inst in [example1, example2, example3] + list(islice(criterion_6_instances(), 20)):
        H = homogenize(inst)
        for method in ("newton", "bisection", "negative-newton"):
            cert = solver.solve(inst, method=method).certificate
            if cert is None:
                continue
            if isinstance(cert, certify.OptimalityCertificate):
                check, keys = certify.check_optimality, certify.OPTIMALITY_POTENTIALS
            else:
                check, keys = certify.check_unboundedness, certify.UNBOUNDEDNESS_POTENTIALS
            assert check(H, cert)
            assert check(H, replace(cert, **dict.fromkeys(keys)))
            checked += 1
        if any(x is not None for x in H.V[-1]):
            assert reconstruct(H)
    assert checked >= 30


# --- game_at ---------------------------------------------------------------


def test_game_at_only_objective_row_moves(example2):
    H = homogenize(example2)
    (A0, B0), (A5, B5) = payment_matrices(game_at(H, 0)), payment_matrices(game_at(H, 5))
    assert A0 == A5
    assert B0.entries[:-1] == B5.entries[:-1]
    row0, row5 = B0.entries[-1], B5.entries[-1]
    for a, b in zip(row0, row5):
        if a.is_finite:
            assert b.value - a.value == 5
        else:
            assert not b.is_finite


def test_game_at_shape(example1):
    H = homogenize(example1)
    g = game_at(H, Fraction(-1, 2))
    assert (g.m, g.n) == (H.m + 1, H.n + 1)


# --- phi -------------------------------------------------------------------


def test_phi_example2_goldens(example2):
    H = homogenize(example2)
    assert phi(H, 15) == Fraction(11, 2)
    assert phi(H, 4) == Fraction(3, 2)
    assert phi(H, 1) == Fraction(1, 2)
    assert phi(H, 0) == 0


def test_phi_nonneg_examples(example1, example2):
    H2 = homogenize(example2)
    assert phi_nonneg(H2, 0)[0]
    assert not phi_nonneg(H2, -1)[0]
    H1 = homogenize(example1)
    assert phi_nonneg(H1, -5)[0]
    assert not phi_nonneg(H1, -6)[0]


def test_phi_monotone_lipschitz_sampled(example2):
    H = homogenize(example2)
    rng = random.Random(3)
    for _ in range(20):
        lam = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3]))
        d = phi(H, lam + 1) - phi(H, lam)
        assert 0 <= d <= 1


# --- partial spectral functions --------------------------------------------


def test_phi_tau_example2_certificate(example2):
    H = homogenize(example2)
    assert phi_tau(H, MinStrategy((7, 3, 3)), 0) == 0


def test_sandwich_and_curvature():
    rng = random.Random(9)
    checked = 0
    while checked < 15:
        inst = random_instance(rng, 2, 2, 3, 0.3)
        if not (any(x.is_finite for x in inst.q) or inst.s.is_finite):
            continue  # denominator identically -inf: no parametric game
        H = homogenize(inst)
        g = game_at(H, 0)
        sigma = MaxStrategy(tuple(g.max_moves(i)[0] for i in range(g.m)))
        tau = MinStrategy(tuple(g.min_moves(j)[0] for j in range(g.n)))
        lams = sorted(Fraction(rng.randint(-8, 8)) for _ in range(3))
        if len(set(lams)) < 3:
            continue
        lo, mid, hi = lams
        for lam in lams:
            assert phi_sigma(H, sigma, lam) <= phi(H, lam) <= phi_tau(H, tau, lam)
        # midpoint curvature on an evenly spaced triple
        t = Fraction(mid - lo, hi - lo)
        chord_sigma = (1 - t) * phi_sigma(H, sigma, lo) + t * phi_sigma(H, sigma, hi)
        chord_tau = (1 - t) * phi_tau(H, tau, lo) + t * phi_tau(H, tau, hi)
        assert phi_sigma(H, sigma, mid) >= chord_sigma  # concave
        assert phi_tau(H, tau, mid) <= chord_tau  # convex
        checked += 1


def test_partial_duality_attained_by_best_strategies():
    from itertools import product

    inst = make_instance(
        A=[[2]], B=[[5]], c=[0], d=[0], p=[1], q=["-inf"], r="-inf", s=0
    )
    H = homogenize(inst)
    for lam in (-4, 0, 3):
        g = game_at(H, lam)
        best_sigma = max(
            phi_sigma(H, MaxStrategy(sc), lam)
            for sc in product(*[g.max_moves(i) for i in range(g.m)])
        )
        best_tau = min(
            phi_tau(H, MinStrategy(tc), lam)
            for tc in product(*[g.min_moves(j) for j in range(g.n)])
        )
        assert best_sigma == phi(H, lam) == best_tau


# --- bounds ----------------------------------------------------------------


def test_initial_bounds_example2(example2):
    assert initial_bounds(homogenize(example2)) == (-36, 36)


def test_initial_bounds_degenerate_and_scaling():
    zero = make_instance(A=[[0]], B=[[0]], c=[0], d=[0], p=[0], q=[0], r="-inf", s="-inf")
    # M = 0 would need all-zero data; here doubling coefficients doubles bounds.
    inst1 = make_instance(A=[[1]], B=[[2]], c=[0], d=[0], p=[1], q=["-inf"], r="-inf", s=0)
    inst2 = make_instance(A=[[2]], B=[[4]], c=[0], d=[0], p=[2], q=["-inf"], r="-inf", s=0)
    lo1, hi1 = initial_bounds(homogenize(inst1))
    lo2, hi2 = initial_bounds(homogenize(inst2))
    assert (lo2, hi2) == (2 * lo1, 2 * hi1)
    assert initial_bounds(homogenize(zero)) == (0, 0)


def test_phi_scaling_invariance():
    rng = random.Random(15)
    inst = random_instance(rng, 2, 2, 2, 0.3)
    doubled = LfpInstance(
        [[_scaled(x, 2) for x in row] for row in inst.A.entries],
        [[_scaled(x, 2) for x in row] for row in inst.B.entries],
        [_scaled(x, 2) for x in inst.c],
        [_scaled(x, 2) for x in inst.d],
        [_scaled(x, 2) for x in inst.p],
        [_scaled(x, 2) for x in inst.q],
        _scaled(inst.r, 2),
        _scaled(inst.s, 2),
    )
    H1, H2 = homogenize(inst), homogenize(doubled)
    for lam in (-3, 0, 2, 7):
        assert phi(H2, 2 * lam) == 2 * phi(H1, lam)


def _scaled(x, k):
    return fin(x.value * k) if x.is_finite else x


# --- reconstruction --------------------------------------------------------


def test_reconstruct_example2_values(example2):
    H = homogenize(example2)
    pieces = reconstruct(H)
    k1 = H.k_bound + 1
    for p in pieces:
        assert p.beta in (0, 1)
        assert 1 <= p.k <= k1
        assert abs(Fraction(p.alpha, p.k)) <= 2 * H.M
    assert len(pieces) <= 8 * H.M * k1**4 + 2
    # adjacent pieces agree at shared endpoints
    for left, right in zip(pieces, pieces[1:]):
        assert left.hi == right.lo
        lam = left.hi.value
        assert left.value_at(lam) == right.value_at(lam)
    assert _eval_pieces(pieces, Fraction(0)) == 0
    assert _eval_pieces(pieces, Fraction(1)) == Fraction(1, 2)
    rng = random.Random(21)
    grid = spectral_grid(H)
    for lam in rng.sample(grid, 25):
        assert _eval_pieces(pieces, lam) == phi(H, lam)


def _eval_pieces(pieces, lam):
    for p in pieces:
        lo_ok = not p.lo.is_finite or p.lo.value <= lam
        hi_ok = not p.hi.is_finite or lam <= p.hi.value
        if lo_ok and hi_ok:
            return p.value_at(lam)
    raise AssertionError("pieces do not cover the line")


def test_reconstruct_constant_instance_single_flat_piece():
    inst = make_instance(
        A=[[0]], B=[[0]], c=["-inf"], d=[0], p=["-inf"], q=[0], r=0, s="-inf"
    )
    H = homogenize(inst)
    pieces = reconstruct(H)
    # Every finite entry is 0 (M = 0), yet phi is flat only up to lambda = 0
    # and lambda/2 after it: phi, the oracle and brute force agree on that.
    assert [(p.alpha, p.beta, p.k) for p in pieces] == [(0, 0, 1), (0, 1, 2)]
    for lam in (-4, -1, 0, 1, 4):
        assert _eval_pieces(pieces, Fraction(lam)) == phi(H, lam)


def test_reconstruct_with_all_finite_entries_zero():
    """M = 0 must not shrink the grid to the single point 0."""
    inst = make_instance(
        A=[["-inf"]], B=[[0]], c=[0], d=["-inf"], p=[0], q=[0], r="-inf", s=0
    )
    H = homogenize(inst)
    pieces = reconstruct(H)
    for lam in (-4, -1, 0, 1, 4):
        assert _eval_pieces(pieces, Fraction(lam)) == phi(H, lam)
    assert (phi(H, -2), phi(H, 2)) == (-1, 2)


def test_reconstruct_large_entries():
    """M = 10^5 puts about 9.6 million points on a 1x1 instance's grid; the
    pieces still agree with phi on both sides of -10^5 and of 10^5."""
    inst = make_instance(A=[[10**5]], B=[[0]], c=[0], d=[0], p=[0], q=[0], r=0, s=0)
    H = homogenize(inst)
    pieces = reconstruct(H)
    for centre in (-(10**5), 10**5):
        for offset in (-(10**6), -7, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 7, 10**6):
            lam = centre + Fraction(offset)
            assert _eval_pieces(pieces, lam) == phi(H, lam)


@st.composite
def small_instances(draw):
    """An instance up to 2 x 3 with -inf and rational entries; in a third of
    the draws every finite entry is 0, so M = 0."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    values = draw(st.sampled_from(((-1, 0, 1, Fraction(1, 2)), (-2, Fraction(-1, 2), 2), (0,))))
    return _draw_instance(draw, m, n, lambda: draw(st.sampled_from(values)))


@given(small_instances())
def test_reconstruct_matches_the_grid_reference(inst):
    """The certified dichotomy gives the grid reference's pieces, piece for piece."""
    assert reconstruct(homogenize(inst)) == grid_reconstruct(homogenize(inst))

"""Mean payoff games: operators, oracles, exact values, witnesses."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from troplf import (
    AssumptionViolated,
    ExtendedNumber,
    MaxStrategy,
    MinStrategy,
    PositiveCycleDiverges,
    cycle_time_vector,
    feasibility_witness,
    game_at,
    game_value,
    homogenize,
    initial_bounds,
    integer_oracle,
    value_report,
)
import troplf.game_engine as ge
from troplf.game_engine import restrict_min

from brute_force import brute_force_value, play_outcome
from conftest import make_game, random_game, random_instance, recorded_runs
from lifting import lifting_oracle
from maxplus import payment_matrices, restrict_max, trop_matvec
import policy_reference
from test_acceptance import criterion_5_random_games, criterion_10_instances
from test_spectral import assert_warm_report


def fin(x):
    return ExtendedNumber.finite(x)


# --- validation ------------------------------------------------------------


def test_example2_game_valid(example2):
    H = homogenize(example2)
    g = game_at(H, 0)
    assert (g.m, g.n) == (8, 3)


def test_all_neg_inf_b_row_rejected():
    with pytest.raises(AssumptionViolated, match="row"):
        make_game([[0]], [["-inf"]])


def test_all_neg_inf_a_column_rejected():
    with pytest.raises(AssumptionViolated, match="column"):
        make_game([["-inf"]], [[0]])


# --- strategy restriction --------------------------------------------------


def test_restrict_max_single():
    mat = restrict_max(make_game([[2]], [[5]]), MaxStrategy((0,)))
    assert mat.semiring == "min_plus"
    assert mat.entries[0][0] == fin(3)


def test_restrict_min_single():
    mat = restrict_min(make_game([[2]], [[5]]), MinStrategy((0,)))
    assert mat.semiring == "max_plus"
    assert mat.entries[0][0] == fin(3)


def test_restrict_max_rejects_forbidden_choice():
    with pytest.raises(ValueError):
        restrict_max(make_game([[2, 2]], [[5, "-inf"]]), MaxStrategy((1,)))


def test_example2_certificate_tau_cycle_time(example2):
    H = homogenize(example2)
    mat = restrict_min(game_at(H, 0), MinStrategy((7, 3, 3)))
    assert cycle_time_vector(mat, "max")[2] == fin(0)


# --- play outcomes and brute force -----------------------------------------


def test_play_outcome_single():
    assert play_outcome(make_game([[2]], [[5]]), 0, MinStrategy((0,)), MaxStrategy((0,))) == 3


def test_play_outcome_example2_zero_cycle(example2):
    H = homogenize(example2)
    g = game_at(H, 0)
    tau = MinStrategy((7, 3, 3))
    # Max row 8 (index 7) moves to node 3 (index 2), closing the zero cycle.
    sigma_choices = []
    for i in range(8):
        moves = g.max_moves(i)
        sigma_choices.append(2 if i == 7 and 2 in moves else moves[0])
    assert play_outcome(g, 2, tau, MaxStrategy(tuple(sigma_choices))) == 0


def test_determinacy_on_random_games():
    rng = random.Random(13)
    for _ in range(30):
        g = random_game(rng, 3, 3, 3, 0.4)
        mins = [g.min_moves(j) for j in range(g.n)]
        maxs = [g.max_moves(i) for i in range(g.m)]
        for j in range(g.n):
            lower = None
            for tc in product(*mins):
                worst = max(
                    play_outcome(g, j, MinStrategy(tc), MaxStrategy(sc))
                    for sc in product(*maxs)
                )
                lower = worst if lower is None else min(lower, worst)
            upper = None
            for sc in product(*maxs):
                guaranteed = min(
                    play_outcome(g, j, MinStrategy(tc), MaxStrategy(sc))
                    for tc in product(*mins)
                )
                upper = guaranteed if upper is None else max(upper, guaranteed)
            assert lower == upper == brute_force_value(g, j)


def test_brute_force_simple_cases():
    assert brute_force_value(make_game([[2]], [[5]]), 0) == 3
    zeros = [[0, 0], [0, 0]]
    assert brute_force_value(make_game(zeros, zeros), 0) == 0


# --- winning oracle --------------------------------------------------------


def test_winning_oracle_example2(example2):
    H = homogenize(example2)
    assert 2 in integer_oracle(game_at(H, 0)).winning
    assert 2 not in integer_oracle(game_at(H, -1)).winning


def test_winning_oracle_trivial_loss():
    rep = integer_oracle(make_game([[0]], [[-1]]))
    assert rep.winning == frozenset()
    assert rep.tau.choices == (0,)


def test_oracle_strategies_certify():
    """sigma keeps winning nodes nonnegative, tau keeps losing nodes negative."""
    rng = random.Random(41)
    for _ in range(40):
        g = random_game(rng, rng.randint(1, 4), rng.randint(1, 4), 4, 0.4)
        rep = integer_oracle(g)
        chi_sigma = cycle_time_vector(restrict_max(g, rep.sigma), "min")
        chi_tau = cycle_time_vector(restrict_min(g, rep.tau), "max")
        for j in range(g.n):
            if j in rep.winning:
                assert chi_sigma[j] >= fin(0)
            else:
                assert chi_tau[j] < fin(0)


def test_winning_set_matches_brute_force_sign():
    rng = random.Random(43)
    for _ in range(30):
        g = random_game(rng, 2, 2, 3, 0.3)
        rep = integer_oracle(g)
        for j in range(g.n):
            assert (j in rep.winning) == (brute_force_value(g, j) >= 0)


# --- exact values ----------------------------------------------------------


def test_game_value_example2_goldens(example2):
    H = homogenize(example2)
    assert game_value(game_at(H, 15), 2) == Fraction(11, 2)
    assert game_value(game_at(H, 1), 2) == Fraction(1, 2)


def test_game_value_matches_brute_force_random():
    rng = random.Random(47)
    for _ in range(60):
        g = random_game(rng, 3, 3, 5, 0.3)
        j = rng.randrange(3)
        assert game_value(g, j) == brute_force_value(g, j)


def test_game_value_strategy_attains_value():
    rng = random.Random(53)
    for _ in range(30):
        g = random_game(rng, 3, 3, 4, 0.3)
        j = rng.randrange(3)
        rep = value_report(g)
        chi, sigma = rep.chi[j], rep.sigma
        assert cycle_time_vector(restrict_max(g, sigma), "min")[j] == fin(chi)


def test_value_report_consistency():
    rng = random.Random(59)
    for _ in range(20):
        g = random_game(rng, 2, 3, 3, 0.3)
        rep = value_report(g)
        for j in range(g.n):
            assert rep.chi[j] == brute_force_value(g, j)
        assert rep.winning == frozenset(j for j in range(g.n) if rep.chi[j] >= 0)


@pytest.mark.parametrize("shift", [20, 57, 58, 70])
def test_scaled_payments_scale_values_exactly(shift):
    """Values scale with the payments, past the int64 range and without drift,
    and policy iteration takes the same rounds to the same strategies on
    both games.  At shift 57 two games start on int64 and one of them moves
    to Python ints during its run; the others, and all at 58 and 70, start
    on them."""
    rng = random.Random(3)
    factor = 2**shift
    for _ in range(30):
        g = random_game(rng, 3, 3, 5, 0.3)
        base = value_report(g).chi
        big = ge.scaled_copy(g, factor)
        rep = value_report(big)
        assert rep.chi == tuple(factor * c for c in base)
        small, large = (ge._policy_iteration(*ge._game_arrays(x.a, x.b))[1:4] for x in (g, big))
        assert small == large  # sigma, tau and rounds
        chi_sigma = cycle_time_vector(restrict_max(big, rep.sigma), "min")
        chi_tau = cycle_time_vector(restrict_min(big, rep.tau), "max")
        assert chi_sigma == chi_tau == tuple(fin(c) for c in rep.chi)


def test_policy_iteration_round_cap(monkeypatch):
    """A game the greedy start does not solve needs 3 rounds; a cap of 2 raises."""
    g = make_game([[3, 0], [3, -2]], [[0, 3], [1, -3]])
    monkeypatch.setattr(ge, "_round_cap", lambda m, n: 2)
    with pytest.raises(ge.PolicyIterationStalled):
        value_report(g)
    monkeypatch.setattr(ge, "_round_cap", lambda m, n: 3)
    assert value_report(g).chi == tuple(brute_force_value(g, j) for j in range(2))


def test_policy_iteration_moves_to_python_ints_during_a_run():
    """Each player has one move: Min node j goes to row j and row i to Min
    node i+1, so nodes 0-2 lead into the cycle 3 -> 4 -> 5, whose mean has
    denominator 3.  With E as large as an int64 start allows, the chain's
    biases reach 36E, past int64: the run moves to Python ints after its
    first evaluation and returns the exact mean.  At E/4 it stays on int64."""
    top = (2**62 - 3) // 13 - 1  # 13(E + 1) + 2 < 2**62: the 6-node start bound
    for E, bigint in ((top // 4, 0), (top, 1)):
        a = tuple(tuple((E if i < 3 else -E) if i == j else None for j in range(6)) for i in range(6))
        nxt = {0: (1, -E), 1: (2, -E), 2: (3, -E), 3: (4, E), 4: (5, E), 5: (3, E - 1)}
        b = tuple(tuple(nxt[i][1] if j == nxt[i][0] else None for j in range(6)) for i in range(6))
        assert ge._game_arrays(a, b)[0][2].dtype == np.int64
        H = ge.HomogeneousInstance(a, b, 1, ge._game_arrays(a, b)[0])
        rep = H.report(0)
        assert (H.stats.runs, H.stats.bigint_runs) == (1, bigint)
        assert rep.chi == (Fraction(6 * E - 1, 3),) * 6
        assert rep == value_report(ge.MeanPayoffGame(a, b))


def test_int64_run_on_large_payments_matches_python_ints():
    """A 31 x 31 game with payments near 10**14, the size of the benchmark's
    rational-bigint-30 games, runs on int64 and returns what a run on Python
    ints returns."""
    rng = random.Random(5)
    grid = [[rng.randint(-10**14, 10**14) for _ in range(31)] for _ in range(62)]
    a, b = tuple(map(tuple, grid[:31])), tuple(map(tuple, grid[31:]))
    H = ge.HomogeneousInstance(a, b, 1, ge._game_arrays(a, b)[0])
    rep = H.report(0)
    assert (H.stats.runs, H.stats.bigint_runs) == (1, 0)
    (Am, Bm, Aw, Bw), W = ge._game_arrays(a, b)
    chi, sigma, tau, _rounds, bigint, _qv = ge._policy_iteration(
        (Am, Bm, Aw.astype(object), Bw.astype(object)), W
    )
    assert bigint and (rep.chi, rep.sigma.choices, rep.tau.choices) == (chi, sigma, tau)


def test_policy_iteration_returns_what_the_reference_returns():
    """On seeded random games with -inf entries, cold and from random legal
    starts, the routine returns exactly the reference routine's (chi, sigma,
    tau, rounds, bigint): the same strategies by the first-index tie-break
    and the same round count, so a changed sentinel or tie-break shows.
    Many evaluations find several cycle means, so the rank filters run, and
    many find one.  The 6-node game of the test above moves to Python ints
    after its first evaluation; at M = 10**19 runs are on Python ints from
    the start."""
    rng = random.Random(19)
    stats = ge.OracleStats()
    games = [random_game(rng, rng.randint(1, 8), rng.randint(1, 8), M, rng.choice((0.2, 0.5)))
             for M in (1, 3, 50, 10**19) for _ in range(60)]
    top = (2**62 - 3) // 13 - 1
    a = tuple(tuple((top if i < 3 else -top) if i == j else None for j in range(6)) for i in range(6))
    moves = {0: (1, -top), 1: (2, -top), 2: (3, -top), 3: (4, top), 4: (5, top), 5: (3, top - 1)}
    b = tuple(tuple(moves[i][1] if j == moves[i][0] else None for j in range(6)) for i in range(6))
    games.append(ge.MeanPayoffGame(a, b))
    for g in games:
        arrays, W = ge._game_arrays(g.a, g.b)
        starts = [None] + [
            (tuple(rng.choice(g.max_moves(i)) for i in range(g.m)),
             tuple(rng.choice(g.min_moves(j)) for j in range(g.n)))
            for _ in range(2)
        ]
        for start in starts:
            got = ge._policy_iteration(arrays, W, start, stats)
            assert got == policy_reference._policy_iteration(arrays, W, start)
    assert stats.runs == 3 * len(games) and stats.bigint_runs == 3 * 60 + 3
    assert 0.05 * stats.rounds < stats.ranked_rounds < 0.95 * stats.rounds


def test_policy_iteration_from_any_legal_start():
    """Started from random legal strategy pairs, policy iteration returns the
    brute-force values on every tenth of criterion 5's random games."""
    rng = random.Random(55)
    for g, _nodes in islice(criterion_5_random_games(), 0, None, 10):
        sigma = tuple(rng.choice(g.max_moves(i)) for i in range(g.m))
        tau = tuple(rng.choice(g.min_moves(j)) for j in range(g.n))
        chi = ge._policy_iteration(*ge._game_arrays(g.a, g.b), (sigma, tau))[0]
        assert tuple(c / g.d for c in chi) == tuple(brute_force_value(g, j) for j in range(g.n))


def _value_start_reference(g, steps, x0=None):
    """Value iteration on g's grids in Python ints from x0 - max x0 (from 0
    without x0), as ``_policy_iteration`` states its start: (sigma, tau,
    steps taken), first index on ties."""
    x, pair = [0] * g.n if x0 is None else [v - max(x0) for v in x0], None
    for k in range(1, steps + 1):
        sigma, t = [], []
        for row in g.b:
            best = max((b + x[l], -l) for l, b in enumerate(row) if b is not None)
            sigma.append(-best[1])
            t.append(best[0])
        y, tau = [], []
        for j in range(g.n):
            best = min((t[i] - g.a[i][j], i) for i in range(g.m) if g.a[i][j] is not None)
            y.append(best[0])
            tau.append(best[1])
        if pair == (tuple(sigma), tuple(tau)):
            break
        pair = tuple(sigma), tuple(tau)
        x = [v - max(y) for v in y]
    return (*pair, k)


def _seeded_games(rng):
    """Seeded games with -inf entries, from 1 x 1 to 20 x 20 and from
    M = 1 to 10**6, all on int64."""
    return [random_game(rng, rng.randint(1, size), rng.randint(1, size), M, rng.choice((0.0, 0.3, 0.6)))
            for size in (3, 8, 20) for M in (1, 10, 10**6) for _ in range(15)]


def test_one_value_step_is_the_greedy_pair():
    """A run from one Shapley step from x = 0 is a run from the greedy pair,
    the best replies when every value and bias is 0, and is the cold run:
    the same values, strategies, rounds and bigint flag, with no seeded
    run booked."""
    rng = random.Random(25)
    games = _seeded_games(rng)
    assert len(games) >= 100
    stats = ge.OracleStats()
    for g in games:
        arrays, W = ge._game_arrays(g.a, g.b)
        got = ge._policy_iteration(arrays, W, None, stats, 1)
        greedy_sigma = tuple(-max((b, -l) for l, b in enumerate(row) if b is not None)[1]
                             for row in g.b)
        top = [g.b[i][greedy_sigma[i]] for i in range(g.m)]
        greedy_tau = tuple(min((top[i] - g.a[i][j], i) for i in range(g.m) if g.a[i][j] is not None)[1]
                           for j in range(g.n))
        assert _value_start_reference(g, 1) == (greedy_sigma, greedy_tau, 1)
        assert got == ge._policy_iteration(arrays, W, (greedy_sigma, greedy_tau))
        assert got == ge._policy_iteration(arrays, W)
    assert stats.runs == len(games) and stats.seeded_runs == stats.value_steps == 0


def test_value_start_is_a_legal_pair_from_exact_value_steps():
    """A run of K value steps is the run from the pair of value iteration in
    Python ints, and books one seeded run with that iteration's steps
    taken; so its sentinels never win a move: the pair picks finite entries
    only, and the run returns the cold run's values."""
    rng = random.Random(26)
    for g in _seeded_games(rng):
        arrays, W = ge._game_arrays(g.a, g.b)
        cold = ge._policy_iteration(arrays, W)[0]
        for steps in (2, 15, 40):
            stats = ge.OracleStats()
            got = ge._policy_iteration(arrays, W, None, stats, steps)
            sigma, tau, taken = _value_start_reference(g, steps)
            assert taken <= steps
            MaxStrategy(sigma).check(g)
            MinStrategy(tau).check(g)
            assert got == ge._policy_iteration(arrays, W, (sigma, tau))
            assert (stats.runs, stats.seeded_runs, stats.value_steps) == (1, 1, taken)
            assert got[0] == cold


def _biases(qv) -> list:
    """floor(V_j/Q_j) of the (Q, V) of a run's last evaluation: the start
    vector a warm run of HomogeneousInstance takes from it."""
    Q, V = qv
    return [v // q for q, v in zip(Q, V)]


def _start_vector_cases(rng):
    """(game, a legal pair, x0) cases for value steps from a start vector:
    the seeded games with the biases of their own cold run and with random
    vectors of small and of wide spread, and criterion 10's first 50 x 50
    instances at integer lambda with the biases of the run at lam_hi, as a
    warm run of a solve takes them."""
    cases = []
    for g in _seeded_games(rng):
        pair = (tuple(rng.choice(g.max_moves(i)) for i in range(g.m)),
                tuple(rng.choice(g.min_moves(j)) for j in range(g.n)))
        biases = _biases(ge._policy_iteration(*ge._game_arrays(g.a, g.b))[5])
        for x0 in (biases, [rng.randint(-5, 5) for _ in range(g.n)],
                   [rng.randint(-10**9, 10**9) for _ in range(g.n)]):
            cases.append((g, pair, x0))
    for inst in islice(criterion_10_instances(), 2):
        H = homogenize(inst)
        lo, hi = initial_bounds(H)
        first = ge._policy_iteration(*H.arrays(hi)[:2])
        for lam in (Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, 0))):
            cases.append((game_at(H, lam), first[1:3], _biases(first[5])))
    return cases


def test_value_steps_from_a_start_vector():
    """A run of K value steps from a start vector x0 is the run from the
    pair of value iteration from x0 in Python ints, whatever pair it is
    given, and books one seeded run with that iteration's steps taken; so
    its sentinels never win a move: the pair picks finite entries only,
    and the run returns the cold run's values."""
    rng = random.Random(30)
    cases = _start_vector_cases(rng)
    assert sum(g.n == 51 for g, _pair, _x0 in cases) == 4
    for g, pair, x0 in cases:
        arrays, W = ge._game_arrays(g.a, g.b)
        cold = ge._policy_iteration(arrays, W)[0]
        for steps in (2, ge.VALUE_STEPS):
            stats = ge.OracleStats()
            got = ge._policy_iteration(arrays, W, pair, stats, steps, x0)
            sigma, tau, taken = _value_start_reference(g, steps, x0)
            MaxStrategy(sigma).check(g)
            MinStrategy(tau).check(g)
            assert got == ge._policy_iteration(arrays, W, (sigma, tau))
            assert (stats.runs, stats.seeded_runs, stats.value_steps) == (1, 1, taken)
            assert got[0] == cold


def test_value_steps_from_a_start_vector_decline_past_int64(monkeypatch):
    """With x0 the bound is |x| < (max x0 - min x0) + 4W*steps.  Where it
    passes int64, on object arrays and with one step, the run declines x0
    and is the run from the pair it is given, with no seeded run; a span
    one below the bound's limit is seeded.  HomogeneousInstance then starts
    from its last pair."""
    rng = random.Random(32)
    g = random_game(rng, 16, 16, 1000, 0.3)
    arrays, W = ge._game_arrays(g.a, g.b)
    steps = ge.VALUE_STEPS
    limit = 2**62 - 3 - (2 * g.n + 1) * W - 4 * steps * W  # the widest span on int64
    pair = ge._policy_iteration(arrays, W)[1:3]
    for span, seeded in ((limit, 1), (limit + 1, 0)):
        x0 = [0] * g.n
        x0[3] = -span
        stats = ge.OracleStats()
        got = ge._policy_iteration(arrays, W, pair, stats, steps, x0)
        assert stats.seeded_runs == seeded
        if seeded:
            assert got == ge._policy_iteration(arrays, W, _value_start_reference(g, steps, x0)[:2])
        else:
            assert got == ge._policy_iteration(arrays, W, pair)
    x0 = [rng.randint(-5, 5) for _ in range(g.n)]
    wide = (arrays[0], arrays[1], arrays[2].astype(object), arrays[3].astype(object))
    for arr, k in ((wide, steps), (arrays, 1)):
        stats = ge.OracleStats()
        got = ge._policy_iteration(arr, W, pair, stats, k, x0)
        assert got == ge._policy_iteration(arr, W, pair) and stats.seeded_runs == 0

    H = homogenize(next(criterion_10_instances()))
    lo, hi = initial_bounds(H)
    H.report(hi)
    start = H.last
    H.biases = 1, ([1] * (H.n + 1), [0] * H.n + [-(2**62)])  # as if the run at hi had ended so
    runs = recorded_runs(monkeypatch)
    lam = Fraction(rng.randint(lo, hi))
    rep = H.report(lam)
    assert runs == [(start, rep.sigma.choices, rep.tau.choices)] and H.stats.seeded_runs == 1
    assert_warm_report(game_at(H, lam), rep, value_report(game_at(H, lam)))


def test_warm_runs_start_from_the_biases_of_the_last_query_answered(monkeypatch):
    """On a 50 x 50 instance a warm run starts from value steps from the
    biases of the last query answered, when its denominator is theirs: a
    memo hit where phi > 0 moves the biases with the pair, and a run over
    another denominator starts from the pair alone."""
    H = homogenize(next(criterion_10_instances()))
    lo, hi = initial_bounds(H)
    runs = recorded_runs(monkeypatch)
    top = H.report(hi)
    assert top.chi[-1] > 0 and H.stats.seeded_runs == 1
    start, biases = H.last, H.biases
    assert biases == (1, ge._policy_iteration(*H.arrays(hi)[:2], None, None, ge.VALUE_STEPS)[5])
    third = Fraction(3 * lo + 1, 3)
    H.report(third)  # another denominator: from the pair alone
    assert runs[-1][0] == start and H.stats.seeded_runs == 1 and H.biases[0] == 3
    assert H.report(hi) is top and (H.last, H.biases) == (start, biases)  # a memo hit
    lam = Fraction((lo + hi) // 2)
    rep = H.report(lam)
    arrays, W = H.arrays(lam)[:2]
    got = ge._policy_iteration(arrays, W, start, None, ge.VALUE_STEPS, _biases(biases[1]))
    assert (rep.sigma.choices, rep.tau.choices) == got[1:3] and H.stats.seeded_runs == 2
    assert H.biases == (1, got[5])


def test_value_start_declines_where_its_bound_passes_int64():
    """The iterate's bound |x| < 4W*steps enters the int64 rule: a 16 x 16
    game (at least the seeding threshold) with payments up to
    E = 2**62/(33 + 4*VALUE_STEPS) runs on int64, but the steps could leave
    it, so its first report is the cold run.  At a tenth of E it is seeded,
    on int64, and returns what a run on Python ints returns.  Object games
    are not seeded."""
    assert 16 * 16 >= ge.VALUE_STEP_ENTRIES
    top = 2**62 // (33 + 4 * ge.VALUE_STEPS)
    rng = random.Random(27)
    for E, seeded in ((top, 0), (top // 10, 1), (2**64, 0)):
        grid = [[rng.randint(-E, E) for _ in range(16)] for _ in range(32)]
        grid[0][0] = E
        a, b = tuple(map(tuple, grid[:16])), tuple(map(tuple, grid[16:]))
        (Am, Bm, Aw, Bw), W = ge._game_arrays(a, b)
        assert (Aw.dtype == object) == (E == 2**64)
        stats = ge.OracleStats()
        ge._policy_iteration((Am, Bm, Aw, Bw), W, None, stats, ge.VALUE_STEPS)
        assert stats.seeded_runs == seeded
        H = ge.HomogeneousInstance(a, b, 1, (Am, Bm, Aw, Bw))
        rep = H.report(0)
        assert (H.stats.seeded_runs, H.stats.value_steps > 0) == (seeded, bool(seeded))
        ref = ge._policy_iteration((Am, Bm, Aw.astype(object), Bw.astype(object)), W)
        g = ge.MeanPayoffGame(a, b)
        if seeded:
            assert rep.chi == ref[0]
            assert_warm_report(g, rep, value_report(g))
        else:
            assert rep == value_report(g)
            assert (rep.sigma.choices, rep.tau.choices, H.stats.rounds) == ref[1:4]


def test_seeded_first_reports_return_the_cold_values():
    """On games at and above the threshold (criterion 10's 50 x 50 instances
    at lam_hi, as a solve asks first, and seeded 16 x 16 to 24 x 24 games
    with -inf entries), the first report of an instance starts from value
    steps, and returns the cold run's values with an optimal pair."""
    cases = []
    for inst in islice(criterion_10_instances(), 4):
        H = homogenize(inst)
        cases.append((H, initial_bounds(H)[1]))
    rng = random.Random(28)
    while len(cases) < 16:
        size = rng.randint(15, 23)
        inst = random_instance(rng, size, size, rng.choice((5, 500)), rng.choice((0.0, 0.5)))
        H = homogenize(inst)
        if not ge.validate_shape(H.U, H.V):
            cases.append((H, Fraction(rng.randint(-20, 20), rng.randint(1, 3))))
    for H, lam in cases:
        assert (H.m + 1) * (H.n + 1) >= ge.VALUE_STEP_ENTRIES
        g = game_at(H, lam)
        assert_warm_report(g, H.report(lam), value_report(g))
        assert H.stats.seeded_runs == H.stats.runs == 1
        assert 1 <= H.stats.value_steps <= ge.VALUE_STEPS


@pytest.mark.parametrize("sizes", [(8, 10, 0.4), (2, 2, 0.3)])
def test_first_reports_below_the_threshold_are_cold_runs(sizes):
    """On games the size of sparse-mixed-small's (up to 8 x 8, M = 10, 40%
    -inf) and spectral-small's (up to 2 x 2), no report is seeded, and an
    instance's first report is exactly a cold value_report, with the cold
    run's rounds."""
    top, M, density = sizes
    assert (top + 1) ** 2 < ge.VALUE_STEP_ENTRIES <= 31 * 31
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        H = homogenize(random_instance(rng, rng.randint(1, top), rng.randint(1, top), M, density))
        if ge.validate_shape(H.U, H.V):
            continue  # no parametric game
        lam = Fraction(rng.randint(-3 * M, 3 * M), rng.randint(1, 3))
        g = game_at(H, lam)
        assert H.report(lam) == value_report(g)
        assert H.stats.rounds == ge._policy_iteration(*ge._game_arrays(g.a, g.b))[3]
        assert H.stats.seeded_runs == H.stats.value_steps == 0
        checked += 1


def test_rational_payments_prescaled():
    g = make_game([[Fraction(1, 2)]], [[Fraction(5, 3)]])
    assert game_value(g, 0) == Fraction(7, 6)


# --- duality sandwich ------------------------------------------------------


def test_duality_sandwich_small_games():
    rng = random.Random(61)
    for _ in range(25):
        g = random_game(rng, rng.randint(1, 3), rng.randint(1, 3), 2, 0.4)
        for j in range(g.n):
            val = brute_force_value(g, j)
            best_sigma = max(
                cycle_time_vector(restrict_max(g, MaxStrategy(sc)), "min")[j]
                for sc in product(*[g.max_moves(i) for i in range(g.m)])
            )
            best_tau = min(
                cycle_time_vector(restrict_min(g, MinStrategy(tc)), "max")[j]
                for tc in product(*[g.min_moves(jj) for jj in range(g.n)])
            )
            assert best_sigma == fin(val) == best_tau


# --- reference lifting oracle ---------------------------------------------


def test_vectorized_and_worklist_liftings_agree():
    """The lifting race (worklist and numpy) agrees with policy iteration."""
    rng = random.Random(67)
    for _ in range(30):
        g = random_game(rng, rng.randint(2, 6), rng.randint(2, 6), 6, 0.4)
        rep_work = lifting_oracle(g, vectorized=False)
        rep_vec = lifting_oracle(g, vectorized=True)
        rep_pi = integer_oracle(g)
        assert rep_work.winning == rep_vec.winning == rep_pi.winning
        assert rep_work.winning_max == rep_vec.winning_max == rep_pi.winning_max
        for rep in (rep_work, rep_vec, rep_pi):
            chi_sigma = cycle_time_vector(restrict_max(g, rep.sigma), "min")
            chi_tau = cycle_time_vector(restrict_min(g, rep.tau), "max")
            for j in range(g.n):
                if j in rep.winning:
                    assert chi_sigma[j] >= fin(0)
                else:
                    assert chi_tau[j] < fin(0)


# --- feasibility witnesses -------------------------------------------------


def test_feasibility_witness_example2(example2):
    H = homogenize(example2)
    g = game_at(H, 0)
    A, B = payment_matrices(g)
    x = feasibility_witness(g, 2)
    assert x is not None and x[2].is_finite
    assert all(a <= b for a, b in zip(trop_matvec(A, x), trop_matvec(B, x)))
    known_y = (fin(-2), fin(2), fin(0))
    assert all(
        a <= b for a, b in zip(trop_matvec(A, known_y), trop_matvec(B, known_y))
    )


def test_feasibility_witness_losing_node():
    assert feasibility_witness(make_game([[0]], [[-1]]), 0) is None


def test_feasibility_witness_random():
    rng = random.Random(71)
    for _ in range(40):
        g = random_game(rng, 3, 3, 4, 0.4)
        A, B = payment_matrices(g)
        for j in range(g.n):
            x = feasibility_witness(g, j)
            if brute_force_value(g, j) >= 0:
                assert x is not None
                assert x[j] == fin(0)
                assert all(
                    a <= b for a, b in zip(trop_matvec(A, x), trop_matvec(B, x))
                )
            else:
                assert x is None


# --- the least solution's error paths -----------------------------------------


def _least(a, b, sigma, l):
    return ge.least_solution_fixed(ge._game_arrays(a, b)[0], MaxStrategy(sigma), l)


def test_least_solution_fixed_golden():
    # x_1 >= 3 + x_0 from row 0; row 1 is constant-side: 0 + x_0 <= 0 + x_0.
    assert _least(((3, None), (0, None)), ((None, 0), (0, None)), (1, 0), 0) == (0, 3)


def test_least_solution_fixed_constant_side_row_fails():
    # Row 1 sends x_1 >= x_0 = 0; row 0, routed to l = 0, then reads
    # max(0 + x_0, 5 + x_1) = 5 > 0 + x_0.
    with pytest.raises(ge.SecondSubsystemViolated, match="row 0"):
        _least(((0, 5), (0, None)), ((0, None), (None, 0)), (0, 1), 0)


def test_least_solution_fixed_propagates_divergence():
    # Row 0 gives x_1 >= x_0 and the positive self-loop x_1 >= 1 + x_1.
    with pytest.raises(PositiveCycleDiverges):
        _least(((0, 1),), ((None, 0),), (1,), 0)


def test_least_solution_fixed_verifies_the_longest_paths(monkeypatch):
    # The least solution is (0, 3); longest paths that return (0, 0) fail row 0.
    monkeypatch.setattr(ge, "longest_paths", lambda w, mask, source: [0, 0])
    with pytest.raises(ge.InternalCertificateMismatch, match="row 0"):
        _least(((3, None),), ((None, 0),), (1,), 0)

"""End-to-end acceptance suite: ten exact criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact rational arithmetic with zero tolerance.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from troplf import (
    LfpInstance,
    ExtendedNumber,
    MaxStrategy,
    MinStrategy,
    NoneLeftWinning,
    OptimalityCertificate,
    check_optimality,
    game_at,
    game_value,
    homogenize,
    left_optimal_max_strategy,
    newton_step,
    phi,
    phi_sigma,
    phi_tau,
    reconstruct,
    solve,
)
from troplf.game_engine import _game_arrays, least_solution_fixed
from troplf.solver import positive_newton_solve, bisection_solve

from brute_force import brute_force_value
from conftest import make_game, random_instance
from germs import (
    GERM_BOTTOM,
    Germ,
    _germ_strategy_spaces,
    _germ_sunflower_values,
    germ_brute_force_value,
    germ_optimal_strategies,
)
from grid_reference import spectral_grid

NI = "-inf"


def fin(x):
    return ExtendedNumber.finite(x)


def ok(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_newton_golden_run(example2):
    out = solve(example2, method="newton", lam0=15)
    assert out.status == "Optimal" and out.lam == 0
    lams = [lam for (_k, lam, _s) in out.trace]
    assert lams == [15, 4, 1, 0]
    H = homogenize(example2)
    assert [phi(H, lam) for lam in lams] == [
        Fraction(11, 2), Fraction(3, 2), Fraction(1, 2), Fraction(0),
    ]
    ok(1, "seven-constraint golden run: trace 15, 4, 1, 0 with "
          "phi = 11/2, 3/2, 1/2, 0 and optimum 0")


def test_criterion_2_maximization_golden_run(example1):
    out = solve(example1, method="newton", lam0=3)
    assert out.status == "Optimal" and out.lam == -5
    lams = [lam for (_k, lam, _s) in out.trace]
    assert lams == [3, -4, -5]
    H = homogenize(example1)
    goldens = {3: (None, -1), -4: (-1, -2)}
    for lam, (y1, y3) in goldens.items():
        sigma = left_optimal_max_strategy(H, Fraction(lam))
        assert sigma is not NoneLeftWinning
        y = least_solution_fixed(
            _game_arrays(H.U[:-1], H.V[:-1])[0], MaxStrategy(sigma.choices[: H.m]),
            sigma.choices[H.m],
        )
        assert (y[0], y[2]) == (y1, y3)
    # the document-level maximization optimum is -lambda* = 5
    assert -out.lam == 5
    ok(2, "two-variable maximization golden run: trace 3, -4, -5, "
          "intermediate least solutions (-inf,-1) then (-1,-2), optimum 5")


def test_criterion_3_one_step_golden_run(example3):
    H = homogenize(example3)
    sigma = MaxStrategy((3, 1, 0, 3, 0))
    y = least_solution_fixed(
        _game_arrays(H.U[:-1], H.V[:-1])[0], MaxStrategy(sigma.choices[: H.m]),
        sigma.choices[H.m],
    )
    assert (y[1], y[3]) == (-1, -2)
    assert y[2] is None
    assert newton_step(H, sigma) == fin(-4)
    out = solve(example3, method="newton", lam0=0)
    assert [lam for (_k, lam, _s) in out.trace] == [0, -4]
    assert left_optimal_max_strategy(H, Fraction(-4)) is NoneLeftWinning
    ok(3, "three-variable golden run: least solution (-1, -inf, -2), "
          "one Newton step 0 -> -4, terminal at -4")


def test_criterion_4_certificate_acceptance(example2):
    H = homogenize(example2)
    tau = MinStrategy((7, 3, 3))  # the 1-based successor array (8, 4, 4)
    witness = (fin(-2), fin(2), fin(0))
    assert check_optimality(H, OptimalityCertificate(Fraction(0), tau, witness))
    rejected = check_optimality(H, OptimalityCertificate(Fraction(-1), tau, witness))
    assert not rejected and "witness violates" in rejected.reason
    rejected = check_optimality(H, OptimalityCertificate(Fraction(-1), tau, None))
    assert not rejected and rejected.reason == "phi(lambda*) < 0"
    ok(4, "certificate (8,4,4) with witness (-2,2,0) accepted at 0, "
          "rejected at -1 on the feasibility condition")


def _canonical_2x2(a, b):
    """Value-preserving canonical form: joint row swap, joint column swap,
    and constant shifts of each payment matrix (which shift every chi by the
    same amount on both sides of the comparison)."""
    best = None
    for rswap in (False, True):
        for cswap in (False, True):
            aa, bb = list(a), list(b)
            if rswap:
                aa = [aa[2], aa[3], aa[0], aa[1]]
                bb = [bb[2], bb[3], bb[0], bb[1]]
            if cswap:
                aa = [aa[1], aa[0], aa[3], aa[2]]
                bb = [bb[1], bb[0], bb[3], bb[2]]
            sa, sb = min(aa), min(bb)
            key = tuple(x - sa for x in aa) + tuple(x - sb for x in bb)
            if best is None or key < best:
                best = key
    return best


def criterion_5_random_games():
    """(game, Min nodes to check) of criterion 5's random spot checks: 300
    2x2 games over [-2, 2], both nodes, then 500 3x3 games with -inf entries,
    one random node each."""
    from conftest import random_game

    rng = random.Random(5)
    for _ in range(300):
        ga = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        gb = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        yield make_game(ga, gb), (0, 1)
    rng = random.Random(50)
    for _ in range(500):
        g = random_game(rng, 3, 3, 5, 0.3)
        yield g, (rng.randrange(3),)


def test_criterion_5_oracle_equivalence():
    checked_classes = 0
    seen = set()
    for a in product(range(-2, 3), repeat=4):
        for b in product(range(-2, 3), repeat=4):
            key = _canonical_2x2(a, b)
            if key in seen:
                continue
            seen.add(key)
            g = make_game([key[0:2], key[2:4]], [key[4:6], key[6:8]])
            for j in range(2):
                assert game_value(g, j) == brute_force_value(g, j)
            checked_classes += 1
    # direct spot checks without canonicalization, from the same exhaustive
    # box, and on random 3x3 games, 30% -inf density, assumptions repaired
    for g, nodes in criterion_5_random_games():
        for j in nodes:
            assert game_value(g, j) == brute_force_value(g, j)
    ok(5, f"oracle equals brute force on the exhaustive 2x2 suite "
          f"({checked_classes} symmetry classes covering 5^8 games) "
          f"and on 500 random 3x3 games")


def criterion_6_instances():
    """Criterion 6's 200 random instances, up to 8 x 8."""
    rng = random.Random(60)
    for _ in range(200):
        yield random_instance(rng, rng.randint(1, 8), rng.randint(1, 8), 10, 0.4)


def test_criterion_6_method_agreement():
    statuses = {"Optimal": 0, "Unbounded": 0, "Infeasible": 0}
    for inst in criterion_6_instances():
        a = solve(inst, method="bisection")
        b = solve(inst, method="newton")
        c = solve(inst, method="negative-newton")
        assert a.status == b.status == c.status
        if a.status == "Optimal":
            assert a.lam == b.lam == c.lam
        statuses[a.status] += 1
    assert all(count > 0 for count in statuses.values())
    ok(6, f"three methods agree on 200 random instances "
          f"({statuses['Optimal']} optimal, {statuses['Unbounded']} unbounded, "
          f"{statuses['Infeasible']} infeasible)")


def criterion_7_instances():
    """Criterion 7's 50 random instances, up to 2 x 2, each with a finite
    denominator entry."""
    rng = random.Random(70)
    checked = 0
    while checked < 50:
        inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2), 0.3)
        if any(x.is_finite for x in inst.q) or inst.s.is_finite:
            yield inst
            checked += 1


def test_criterion_7_structure_suite():
    rng = random.Random(71)  # samples and strategies
    for inst in criterion_7_instances():
        H = homogenize(inst)
        samples = sorted(Fraction(rng.randint(-6 * int(H.M) - 4, 6 * int(H.M) + 4)) for _ in range(6))
        values = [phi(H, lam) for lam in samples]
        for (l1, v1), (l2, v2) in zip(zip(samples, values), zip(samples[1:], values[1:])):
            assert v1 <= v2  # nondecreasing
            assert v2 - v1 <= l2 - l1  # 1-Lipschitz
        g = game_at(H, 0)
        for _ in range(10):
            sigma = MaxStrategy(tuple(rng.choice(g.max_moves(i)) for i in range(g.m)))
            tau = MinStrategy(tuple(rng.choice(g.min_moves(j)) for j in range(g.n)))
            lam = rng.choice(samples)
            assert phi_sigma(H, sigma, lam) <= phi(H, lam) <= phi_tau(H, tau, lam)
        pieces = reconstruct(H)
        for p in pieces:
            assert p.beta in (0, 1)
            assert 1 <= p.k <= H.k_bound + 1
            assert abs(Fraction(p.alpha, p.k)) <= 2 * H.M
        grid = spectral_grid(H)
        for lam in rng.sample(grid, min(100, len(grid))):
            covering = [
                p for p in pieces
                if (not p.lo.is_finite or p.lo.value <= lam)
                and (not p.hi.is_finite or lam <= p.hi.value)
            ]
            assert covering and all(p.value_at(lam) == phi(H, lam) for p in covering)
    ok(7, "spectral structure on 50 random instances: monotone 1-Lipschitz "
          "samples, strategy sandwich, and exact piecewise reconstruction")


def _germ_value_vector(A, B, m, n):
    """Brute-force germ values at every node, plus the first-component gap."""
    min_sup, max_sup, _size = _germ_strategy_spaces(A, B, m, n)
    sigmas = list(product(*max_sup))
    taus = list(product(*min_sup))
    guaranteed = []
    firsts = set()
    for sigma in sigmas:
        worst = None
        for tau in taus:
            vals = _germ_sunflower_values(A, B, n, tau, sigma)
            firsts.update(v.a for v in vals)
            if worst is None:
                worst = list(vals)
            else:
                worst = [min(w, v) for w, v in zip(worst, vals)]
        guaranteed.append(worst)
    value = [max(g[v] for g in guaranteed) for v in range(n)]
    ordered = sorted(firsts)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    return value, (min(gaps) if gaps else None)


def test_criterion_8_germ_consistency():
    # exhaustive 2x2 suite: first components in {-1,0,1}, the perturbation
    # contributing -eps to every payment of the right-hand side
    checked = eps_checked = 0
    spot = 0
    for af in product((-1, 0, 1), repeat=4):
        for bf in product((-1, 0, 1), repeat=4):
            A = [[Germ(af[0], 0), Germ(af[1], 0)], [Germ(af[2], 0), Germ(af[3], 0)]]
            B = [[Germ(bf[0], -1), Germ(bf[1], -1)], [Germ(bf[2], -1), Germ(bf[3], -1)]]
            value, delta = _germ_value_vector(A, B, 2, 2)
            spot += 1
            if spot % 500 == 0:
                for j in range(2):
                    assert value[j] == germ_brute_force_value(A, B, j)
            big_m = max(max(abs(x) for x in af), max(abs(x) for x in bf), 1)
            for eps in (Fraction(1, 16), Fraction(1, 32)):
                if delta is not None and not (eps < Fraction(delta, 4 * big_m)):
                    continue
                g = make_game(
                    [af[:2], af[2:]], [[x - eps for x in bf[:2]], [x - eps for x in bf[2:]]]
                )
                for j in range(2):
                    assert brute_force_value(g, j) == value[j].eval_at(eps)
                eps_checked += 1
            checked += 1
    assert checked == 3**8 and eps_checked > 0

    # germ-optimal Max strategies reproduce the solver's Newton step at
    # nondegenerate points (nonzero left slope of the spectral function)
    rng = random.Random(80)
    compared = 0
    while compared < 50:
        inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2), 3, 0.3)
        if not (any(x.is_finite for x in inst.q) or inst.s.is_finite):
            continue
        H = homogenize(inst)
        out = solve(inst)
        if out.status != "Optimal":
            continue
        for (_k, lam, _s) in out.trace:
            lam = Fraction(lam) * H.scale
            sigma_left = left_optimal_max_strategy(H, lam)
            if sigma_left is NoneLeftWinning:
                continue
            g = game_at(H, lam)
            A = [
                [GERM_BOTTOM if x is None else Germ(Fraction(x, g.d), 0) for x in row]
                for row in g.a
            ]
            B = [
                [
                    GERM_BOTTOM if x is None else Germ(Fraction(x, g.d), -1 if i == H.m else 0)
                    for x in row
                ]
                for i, row in enumerate(g.b)
            ]
            value, sigma_germ, _tau = germ_optimal_strategies(A, B, H.n)
            if value.b == 0:
                continue  # flat to the left: the Newton step is not unique
            assert newton_step(H, sigma_left) == newton_step(H, sigma_germ)
            compared += 1
    ok(8, f"germ suite: 3^8 exhaustive games match their eps-perturbations "
          f"({eps_checked} (game, eps) pairs), and germ-optimal strategies "
          f"reproduce {compared} Newton steps at nondegenerate points")


def criterion_9_draws():
    """Criterion 9's random instances, up to 5 x 5, as drawn: the criterion
    keeps the first 40 that precheck to Proceed."""
    rng = random.Random(90)
    while True:
        yield random_instance(rng, rng.randint(1, 5), rng.randint(1, 5), 8, 0.4)


def test_criterion_9_iteration_caps():
    done = 0
    draws = criterion_9_draws()
    while done < 40:
        H = homogenize(next(draws))
        from troplf import precheck, Proceed

        if not isinstance(precheck(H), Proceed):
            continue
        import math

        newton_out = positive_newton_solve(H)
        newton_cap = int(4 * H.M * (H.k_bound + 1)) + 1
        assert len(newton_out.trace) <= newton_cap + 1
        bis_out = bisection_solve(H)
        width = int(4 * H.M * (H.k_bound + 1))
        bis_cap = math.ceil(math.log2(width)) + 1 if width > 1 else 1
        assert len(bis_out.trace) <= bis_cap
        done += 1
    ok(9, "positive Newton stayed within 4M(min(m,n)+1)+1 iterations and "
          "bisection within ceil(log2(4M(min(m,n)+1)))+1 oracle calls on 40 runs")


def _random_all_finite(rng, n, M):
    def ent():
        return fin(rng.randint(-M, M))

    c = [rng.randint(-M, M) for _ in range(n)]
    # d >= c keeps very negative x feasible, so the instance never prechecks
    # as infeasible and the Newton iteration actually runs
    d = [rng.randint(ci, M) for ci in c]
    return LfpInstance(
        [[ent() for _ in range(n)] for _ in range(n)],
        [[ent() for _ in range(n)] for _ in range(n)],
        [fin(x) for x in c],
        [fin(x) for x in d],
        [ent() for _ in range(n)],
        [ent() for _ in range(n)],
        ent(),
        ent(),
    )


def criterion_10_instances():
    """Criterion 10's 20 random all-finite 50 x 50 instances."""
    rng = random.Random(100)
    for _ in range(20):
        yield _random_all_finite(rng, 50, 500)


def test_criterion_10_scaling_smoke():
    t0 = time.perf_counter()
    iteration_counts = []
    for inst in criterion_10_instances():
        out = solve(inst, method="newton")
        assert out.status == "Optimal"
        iteration_counts.append(len(out.trace))
    elapsed = time.perf_counter() - t0
    average = sum(iteration_counts) / len(iteration_counts)
    assert average < 30
    assert elapsed < 60
    ok(10, f"20 all-finite 50x50 instances solved in {elapsed:.1f}s with "
           f"{average:.1f} Newton iterations on average")

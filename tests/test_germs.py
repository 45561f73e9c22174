"""The lexicographic germ semiring and germ-valued games (tests/germs.py)."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from troplf import game_at, homogenize, phi

from brute_force import TooLarge, brute_force_value
from conftest import make_game
from germs import (
    GERM_BOTTOM,
    GERM_ZERO,
    Germ,
    germ,
    germ_add,
    germ_brute_force_value,
    germ_mul,
    germ_neg,
    germ_optimal_strategies,
    _germ_strategy_spaces,
    _germ_sunflower_values,
)


# --- arithmetic ------------------------------------------------------------


def test_germ_add_examples():
    assert germ_add(germ(0, 1), germ(0, 2)) == germ(0, 2)
    assert germ_add(germ(1, -5), germ(0, 100)) == germ(1, -5)
    assert germ_add(GERM_BOTTOM, germ(5, -3)) == germ(5, -3)
    assert germ_add(GERM_BOTTOM, GERM_BOTTOM) == GERM_BOTTOM


def test_germ_mul_examples():
    assert germ_mul(germ(1, 0), germ(2, -1)) == germ(3, -1)
    assert germ_mul(GERM_BOTTOM, germ(2, -1)) == GERM_BOTTOM
    assert germ_mul(germ(2, -1), GERM_ZERO) == germ(2, -1)


def test_germ_neg_and_eval():
    assert germ_neg(germ(3, -2)) == germ(-3, 2)
    with pytest.raises(ValueError):
        germ_neg(GERM_BOTTOM)
    assert germ(1, -4).eval_at(Fraction(1, 8)) == Fraction(1, 2)
    assert GERM_BOTTOM.eval_at(Fraction(1, 8)) is None


def test_germ_order_is_lexicographic():
    assert germ(0, 5) < germ(1, -100)
    assert germ(1, -1) < germ(1, 0)
    assert GERM_BOTTOM < germ(-1000, 0)


def _random_germ(rng, allow_bottom=True):
    if allow_bottom and rng.random() < 0.2:
        return GERM_BOTTOM
    return Germ(rng.randint(-5, 5), rng.randint(-3, 3))


def test_semiring_laws_random():
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = (_random_germ(rng) for _ in range(3))
        assert germ_add(x, y) == germ_add(y, x)
        assert germ_add(germ_add(x, y), z) == germ_add(x, germ_add(y, z))
        assert germ_mul(germ_mul(x, y), z) == germ_mul(x, germ_mul(y, z))
        assert germ_mul(x, y) == germ_mul(y, x)
        assert germ_add(x, GERM_BOTTOM) == x
        assert germ_mul(x, GERM_BOTTOM) == GERM_BOTTOM
        assert germ_mul(x, GERM_ZERO) == x
        # multiplication distributes over the lexicographic maximum
        assert germ_mul(x, germ_add(y, z)) == germ_add(germ_mul(x, y), germ_mul(x, z))
        assert germ_add(x, x) == x  # idempotent addition


# --- germ games ------------------------------------------------------------


def test_single_cell_game():
    value, sigma, tau = germ_optimal_strategies([[germ(2, 0)]], [[germ(5, -1)]], 0)
    assert value == germ(3, -1)
    assert sigma.choices == (0,) and tau.choices == (0,)


def test_stuck_players_rejected():
    with pytest.raises(ValueError, match="row"):
        germ_optimal_strategies([[germ(0)]], [[GERM_BOTTOM]], 0)
    with pytest.raises(ValueError, match="column"):
        germ_optimal_strategies([[GERM_BOTTOM]], [[germ(0)]], 0)


def test_brute_force_guard():
    big = 9
    A = [[germ(0) for _ in range(big)] for _ in range(big)]
    B = [[germ(0) for _ in range(big)] for _ in range(big)]
    with pytest.raises(TooLarge):
        germ_optimal_strategies(A, B, 0)


def _random_germ_game(rng, m, n):
    while True:
        A = [[_random_germ(rng) for _ in range(n)] for _ in range(m)]
        B = [[_random_germ(rng) for _ in range(n)] for _ in range(m)]
        if any(all(g.is_bottom for g in row) for row in B):
            continue
        if any(all(A[i][j].is_bottom for i in range(m)) for j in range(n)):
            continue
        return A, B


def _int_germ(rng, M):
    if rng.random() < 0.2:
        return GERM_BOTTOM
    return Germ(rng.randint(-M, M), rng.choice([-1, 0, 1]))


def test_germ_value_matches_perturbed_game():
    """chi + eps*kappa equals the value of the eps-perturbed real game."""
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        A = [[_int_germ(rng, 3) for _ in range(n)] for _ in range(m)]
        B = [[_int_germ(rng, 3) for _ in range(n)] for _ in range(m)]
        if any(all(g.is_bottom for g in row) for row in B):
            continue
        if any(all(A[i][j].is_bottom for i in range(m)) for j in range(n)):
            continue
        for eps in (Fraction(1, 16), Fraction(1, 32)):
            ga = [[_real_entry(g, eps) for g in row] for row in A]
            gb = [[_real_entry(g, eps) for g in row] for row in B]
            real_game = make_game(ga, gb)
            for j in range(n):
                expected = germ_brute_force_value(A, B, j).eval_at(eps)
                assert brute_force_value(real_game, j) == expected
        checked += 1


def _real_entry(g, eps):
    return "-inf" if g.is_bottom else g.eval_at(eps)


def test_uniform_optimality_of_returned_strategies():
    rng = random.Random(19)
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        A, B = _random_germ_game(rng, m, n)
        value, sigma, tau = germ_optimal_strategies(A, B, 0)
        min_sup, max_sup, _size = _germ_strategy_spaces(A, B, m, n)
        optimal = [
            germ_brute_force_value(A, B, v) for v in range(n)
        ]
        assert value == optimal[0]
        # sigma guarantees the optimum at every node simultaneously
        for v in range(n):
            worst = min(
                _germ_sunflower_values(A, B, n, tc, sigma.choices)[v]
                for tc in product(*min_sup)
            )
            assert worst == optimal[v]
        # tau concedes no more than the optimum at every node
        for v in range(n):
            best = max(
                _germ_sunflower_values(A, B, n, tau.choices, sc)[v]
                for sc in product(*max_sup)
            )
            assert best == optimal[v]


def test_determinacy_min_max_equals_max_min():
    rng = random.Random(23)
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        A, B = _random_germ_game(rng, m, n)
        min_sup, max_sup, _size = _germ_strategy_spaces(A, B, m, n)
        for v in range(n):
            lower = min(
                max(
                    _germ_sunflower_values(A, B, n, tc, sc)[v]
                    for sc in product(*max_sup)
                )
                for tc in product(*min_sup)
            )
            upper = max(
                min(
                    _germ_sunflower_values(A, B, n, tc, sc)[v]
                    for tc in product(*min_sup)
                )
                for sc in product(*max_sup)
            )
            assert lower == upper == germ_brute_force_value(A, B, v)


# --- the solver's perturbation, seen as a germ game ------------------------


def germ_game_of(H, lam):
    """The game at lambda - eps encoded with germ payments."""
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
    return A, B


def test_example3_germ_encoding_at_zero(example3):
    H = homogenize(example3)
    A, B = germ_game_of(H, 0)
    value, sigma, _tau = germ_optimal_strategies(A, B, H.n)
    assert value.a == phi(H, 0) == 1
    assert value.b <= 0  # decreasing lambda can only lower the value
    # the first component of the germ value matches phi at nearby lambda
    for eps in (Fraction(1, 16), Fraction(1, 32)):
        assert value.eval_at(eps) == phi(H, -eps)

"""Tests of the benchmark's own answer checks (no troplf import).

Run from the root of the checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import instances

DATA = Path(__file__).resolve().parent.parent / "data"

# The paper's certificate for example 2: tau = (8, 4, 4), witness (-2, 2, 0).
EXAMPLE2_CERT = {"type": "optimality", "lambda": "0", "tau": [8, 4, 4], "witness": ["-2", "2", "0"]}

# Small instances and the certificates troplf gave for them.
UNBOUNDED = {
    "A": [[2, "-inf"], [-1, -1]], "B": [["-inf", -1], ["-inf", "-inf"]], "c": ["-inf", 1],
    "d": ["-inf", 1], "p": ["-inf", -1], "q": [1, "-inf"], "r": "-inf", "s": -1,
}
UNBOUNDED_CERT = {"type": "unboundedness", "sigma": [2, 3, 3]}
INFEASIBLE = {
    "A": [[-1]], "B": [[-2]], "c": [-1], "d": ["-inf"], "p": [-2], "q": ["-inf"], "r": "-inf", "s": "-inf",
}
DEGENERATE_UNBOUNDED = {
    "A": [[2], ["-inf"]], "B": [["-inf"], ["-inf"]], "c": ["-inf", 0], "d": [-2, 2], "p": [-2],
    "q": ["-inf"], "r": "-inf", "s": "-inf",
}
# minimize x subject to 0 <= x: optimum 0, and phi(lambda) = lambda / 2.
HALF_SLOPE = {
    "A": [["-inf"]], "B": [[0]], "c": [0], "d": ["-inf"], "p": [0], "q": ["-inf"], "r": "-inf", "s": 0,
}


def example(k: int) -> checks.Homogeneous:
    with open(DATA / f"example{k}.json", encoding="utf-8") as fh:
        return checks.Homogeneous(json.load(fh))


def test_accepts_the_paper_certificate_of_example_2():
    assert checks.check_optimal(example(2), Fraction(0), EXAMPLE2_CERT) is None


@pytest.mark.parametrize("witness", [["-3", "2", "0"], ["-2", "1", "0"]])
def test_rejects_a_witness_shifted_off_feasibility(witness):
    reason = checks.check_optimal(example(2), Fraction(0), dict(EXAMPLE2_CERT, witness=witness))
    assert reason is not None and "violates constraint" in reason


def test_rejects_a_certificate_at_lambda_star_minus_one():
    cert = dict(EXAMPLE2_CERT, **{"lambda": "-1"})
    assert checks.check_optimal(example(2), Fraction(-1), cert) is not None
    # the claimed value must also match the certificate's
    assert checks.check_optimal(example(2), Fraction(-1), EXAMPLE2_CERT) is not None


@pytest.mark.parametrize("tau", [[8, 4, 1], [8, 5, 3], [8, 8, 2]])
def test_rejects_a_wrong_tau(tau):
    reason = checks.check_optimal(example(2), Fraction(0), dict(EXAMPLE2_CERT, tau=tau))
    assert reason is not None and "mean" in reason


def test_rejects_a_tau_that_is_not_a_strategy():
    # column 3 of U = [[C], [u]] is -inf in row 8 (r = -inf)
    reason = checks.check_optimal(example(2), Fraction(0), dict(EXAMPLE2_CERT, tau=[8, 4, 8]))
    assert reason == "tau is not a Min strategy of the game"


def test_unboundedness_certificate():
    H = checks.Homogeneous(UNBOUNDED)
    assert checks.check_unbounded(H, UNBOUNDED_CERT) is None
    assert checks.check_unbounded(H, dict(UNBOUNDED_CERT, sigma=[2, 1, 3])) is not None
    assert checks.check_unbounded(example(2), {"type": "unboundedness", "sigma": [1] * 8}) is not None


def test_outcomes_without_certificate():
    assert checks.check_infeasible(checks.Homogeneous(INFEASIBLE)) is None
    assert checks.check_infeasible(example(2)) is not None
    assert checks.check_infeasible(checks.Homogeneous(UNBOUNDED)) is not None
    assert checks.check_unbounded_degenerate(checks.Homogeneous(DEGENERATE_UNBOUNDED)) is None
    assert checks.check_unbounded_degenerate(checks.Homogeneous(INFEASIBLE)) is not None


def test_max_support_forces_coordinates():
    H = checks.Homogeneous(HALF_SLOPE)  # 0 <= x: x must be finite when y_n is
    assert checks.max_support(H) == {0, 1}
    assert checks.max_support(H, frozenset({0})) == set()


def test_karp_max_mean():
    arcs = [(0, 1, 1), (1, 0, -3), (1, 1, Fraction(-1, 2)), (2, 0, 100)]
    means = checks.reachable_cycle_means(3, arcs, 0)
    assert [(sorted(c), m) for c, m in means] == [([0, 1], Fraction(-1, 2))]
    assert checks.reachable_cycle_means(3, arcs, 2)[0][1] == Fraction(-1, 2)


def test_brute_force_game_value():
    assert checks.game_value([[Fraction(2)]], [[Fraction(5)]], 0) == 3
    H = checks.Homogeneous(HALF_SLOPE)
    assert [checks.phi(H, x) for x in (-3, 0, 5)] == [Fraction(-3, 2), 0, Fraction(5, 2)]


def test_pieces():
    H = checks.Homogeneous(HALF_SLOPE)
    samples = [-3, 0, Fraction(5, 2)]
    good = [(None, None, 0, 1, 2)]
    assert checks.check_pieces(H, good, samples) is None
    assert checks.smallest_zero(good) == 0
    split = [(None, Fraction(1), 0, 1, 2), (Fraction(1), None, 0, 1, 2)]
    assert checks.check_pieces(H, split, samples) is None
    assert checks.check_pieces(H, [(None, None, 1, 1, 2)], samples) is not None
    assert checks.check_pieces(H, [(None, None, 0, 1, 3)], ()) is not None  # slope 1/3 > min(m,n)+1
    assert checks.check_pieces(H, [(None, 0, 0, 0, 1), (0, None, 0, 1, 2)], samples) is not None
    gap = [(None, Fraction(0), 0, 1, 2), (Fraction(1), None, 0, 1, 2)]
    assert checks.check_pieces(H, gap, ()) is not None
    jump = [(None, Fraction(0), 0, 1, 2), (Fraction(0), None, 1, 1, 2)]
    assert checks.check_pieces(H, jump, ()) is not None
    assert checks.check_pieces(H, [(Fraction(0), None, 0, 1, 2)], ()) is not None


def test_relabel_keeps_the_spectral_function():
    """Permuting rows and variables and adding potentials leaves every cycle
    mean of the parametric game, hence phi and the optimum, unchanged."""
    rng = random.Random(3)
    for _ in range(5):
        doc = instances.tiny(rng, 2, 2, 2)
        twin = instances.relabel(doc, rng, 3)
        assert instances.well_posed(twin)
        for lam in (-4, Fraction(-1, 2), 0, 3):
            assert checks.phi(checks.Homogeneous(twin), lam) == checks.phi(checks.Homogeneous(doc), lam)


def test_generators_are_seeded_and_well_posed():
    makers = [
        lambda rng: instances.sparse_small(rng, 8, 3),
        lambda rng: instances.tiny(rng, 1, 2, 2),
        instances.rational_30,
    ]
    for make in makers:
        a, b = make(random.Random(7)), make(random.Random(7))
        assert a == b and instances.well_posed(a)

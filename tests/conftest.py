"""Shared fixtures: the three worked examples and random generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from troplf import ExtendedNumber, LfpInstance, MeanPayoffGame, NEG_INF, TropMatrix, ext
from troplf import game_engine
from troplf.game_engine import integer_grids

NI = "-inf"

# Property tests draw the same cases on every run (no example database, a
# seed fixed by the test), with no per-case deadline on a shared machine.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("deterministic")


def e(x):
    return NEG_INF if x == NI else ExtendedNumber.finite(x)


def rows(grid):
    return [[e(x) for x in row] for row in grid]


def vec(values):
    return [e(x) for x in values]


def make_game(a, b) -> MeanPayoffGame:
    """The game with payment matrices a and b, whose entries are int,
    Fraction, ExtendedNumber or "-inf", over the lcm of their denominators."""

    def entry(x):
        x = e(x) if x == NI else ext(x)
        return x.value if x.is_finite else None

    (ga, gb), d = integer_grids(*([[entry(x) for x in row] for row in M] for M in (a, b)))
    return MeanPayoffGame(ga, gb, d)


class RawInstance(LfpInstance):
    """An LfpInstance that also keeps the entries it was built from, as
    ExtendedNumber (A and B as TropMatrix), so that reference computations in
    the tests read those and not the package's scaled grids."""

    __slots__ = ("A", "B", "c", "d", "p", "q", "r", "s")

    def __init__(self, A, B, c, d, p, q, r, s):
        super().__init__(A, B, c, d, p, q, r, s)
        self.A, self.B = TropMatrix(A), TropMatrix(B)
        self.c, self.d, self.p, self.q = (tuple(map(ext, v)) for v in (c, d, p, q))
        self.r, self.s = ext(r), ext(s)


def make_instance(A, B, c, d, p, q, r, s) -> RawInstance:
    return RawInstance(rows(A), rows(B), vec(c), vec(d), vec(p), vec(q), e(r), e(s))


@pytest.fixture
def example1() -> RawInstance:
    """Two-variable maximization instance, solved via its minimization dual.

    The original objective maximize (1+x1) v (3+x2) becomes minimize
    r - (q x) with q=(1,3), r=0; the maximum is -(lambda*).
    """
    return make_instance(
        A=[[NI, -1], [-2, -2], [-1, NI], [0, NI]],
        B=[[0, NI], [NI, NI], [NI, 0], [NI, 2]],
        c=[NI, NI, NI, NI],
        d=[0, 0, 0, 0],
        p=[NI, NI],
        q=[1, 3],
        r=0,
        s=NI,
    )


@pytest.fixture
def example2() -> RawInstance:
    """Seven-constraint minimization instance with the four-step Newton trace."""
    return make_instance(
        A=[[NI, NI], [NI, NI], [NI, NI], [NI, -3], [NI, -4], [NI, -5], [NI, -6]],
        B=[[-2, 0], [0, -1], [1, -2], [2, NI], [0, NI], [-2, NI], [-4, NI]],
        c=[0, 0, 0, 0, NI, NI, NI],
        d=[NI, NI, NI, NI, 0, 0, 0],
        p=[2, -4],
        q=[NI, NI],
        r=NI,
        s=0,
    )


@pytest.fixture
def example3() -> RawInstance:
    """Three-variable instance whose homogeneous form is given directly.

    The last column of the homogeneous C/D plays the role of the affine
    constants c/d, and u/v carry the objective.
    """
    return make_instance(
        A=[[-3, -4, NI], [-1, NI, NI], [NI, NI, NI], [1, NI, 0]],
        B=[[NI, NI, NI], [NI, 0, NI], [0, NI, NI], [0, NI, NI]],
        c=[NI, 1, 0, NI],
        d=[0, NI, NI, 3],
        p=[NI, 0, NI],
        q=[3, NI, NI],
        r=NI,
        s=NI,
    )


def random_instance(rng: random.Random, m: int, n: int, M: int, density: float) -> RawInstance:
    """A random instance; resamples until the homogeneous form is well posed."""
    while True:
        def ent():
            if rng.random() < density:
                return NEG_INF
            return ExtendedNumber.finite(rng.randint(-M, M))

        A = [[ent() for _ in range(n)] for _ in range(m)]
        B = [[ent() for _ in range(n)] for _ in range(m)]
        c = [ent() for _ in range(m)]
        d = [ent() for _ in range(m)]
        p = [ent() for _ in range(n)]
        q = [ent() for _ in range(n)]
        r = ent()
        s = ent()
        try:
            return RawInstance(A, B, c, d, p, q, r, s)
        except Exception:
            continue


def random_game(rng: random.Random, m: int, n: int, M: int, density: float) -> MeanPayoffGame:
    """A random bipartite game; patched so no player ever gets stuck."""
    def ent():
        if rng.random() < density:
            return NEG_INF
        return ExtendedNumber.finite(rng.randint(-M, M))

    a = [[ent() for _ in range(n)] for _ in range(m)]
    b = [[ent() for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if all(not x.is_finite for x in b[i]):
            b[i][rng.randrange(n)] = ExtendedNumber.finite(rng.randint(-M, M))
    for j in range(n):
        if all(not a[i][j].is_finite for i in range(m)):
            a[rng.randrange(m)][j] = ExtendedNumber.finite(rng.randint(-M, M))
    return make_game(a, b)


def frac(x) -> Fraction:
    assert x.is_finite
    return Fraction(x.value)


def recorded_runs(monkeypatch) -> list:
    """The (start, sigma, tau) of every policy-iteration run that a
    HomogeneousInstance makes from now on, in order: pytest's monkeypatch wraps
    ``game_engine._policy_iteration``."""
    runs = []
    original = game_engine._policy_iteration

    def recorded(arrays, W, start=None, stats=None, steps=1, x0=None):
        result = original(arrays, W, start, stats, steps, x0)
        runs.append((start, result[1], result[2]))
        return result

    monkeypatch.setattr(game_engine, "_policy_iteration", recorded)
    return runs

"""Tropical matrix-vector products on Fraction matrices, and the Kleene star
on Python ints.

The reference the tests check feasibility against: a witness x satisfies
A x <= B x when ``trop_matvec(A, x)`` is below ``trop_matvec(B, x)``
coordinatewise, computed here on TropMatrix and ExtendedNumber values and
not on the integer grids the package works with.  ``payment_matrices``
gives a game's payments in that form, and ``restrict_max`` sigma's
one-player game.  ``kleene_star_int`` is the Gauss-Seidel iteration the
package's numpy longest paths are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from troplf.game_engine import MaxStrategy, MeanPayoffGame
from troplf.trop_core import (
    MAX_PLUS,
    MIN_PLUS,
    NEG_INF,
    POS_INF,
    ExtendedNumber,
    PositiveCycleDiverges,
    TropMatrix,
    ext,
)


def trop_matvec(E: TropMatrix, x: Sequence[ExtendedNumber]) -> tuple:
    """Matrix-vector product in E's semiring; empty max is -inf, empty min is +inf."""
    if E.cols != len(x):
        raise ValueError(f"dimension mismatch: {E.cols} columns vs vector of {len(x)}")
    x = tuple(ext(e) for e in x)
    out = []
    if E.semiring == MAX_PLUS:
        for row in E.entries:
            acc = NEG_INF
            for e, xj in zip(row, x):
                term = e.add_max(xj)
                if acc < term:
                    acc = term
            out.append(acc)
    else:
        for row in E.entries:
            acc = POS_INF
            for e, xj in zip(row, x):
                term = e.add_min(xj)
                if term < acc:
                    acc = term
            out.append(acc)
    return tuple(out)


def payment_matrices(game) -> tuple:
    """(A, B): a MeanPayoffGame's payments a/d and b/d as max-plus TropMatrix."""

    def matrix(grid):
        return TropMatrix(
            [[NEG_INF if x is None else ExtendedNumber.finite(Fraction(x, game.d)) for x in row]
             for row in grid]
        )

    return matrix(game.a), matrix(game.b)


def restrict_max(game: MeanPayoffGame, sigma: MaxStrategy) -> TropMatrix:
    """Min-plus n x n matrix of the min-only map f^sigma (x -> A# B^sigma x)."""
    sigma.check(game)
    n = game.n
    grid = [[POS_INF] * n for _ in range(n)]
    for j in range(n):
        for l in range(n):
            acc = None
            for i in range(game.m):
                a = game.a[i][j]
                if sigma.choices[i] != l or a is None:
                    continue
                val = game.b[i][l] - a
                if acc is None or val < acc:
                    acc = val
            if acc is not None:
                grid[j][l] = ExtendedNumber.finite(Fraction(acc, game.d))
    return TropMatrix(grid, semiring=MIN_PLUS)


def kleene_star_int(rows: Sequence, h: Sequence) -> list:
    """Least integer z with z >= h and z_i >= w + z_j for each (j, w) in rows[i].

    The reference for ``trop_core.longest_paths``: Gauss-Seidel sweeps on
    Python ints.  None stands for -inf in h and z.  Sweeps update z in
    place; without a strictly positive cycle reaching the support of h the
    least solution is reached within len(h) - 1 sweeps, so a sweep that
    still changes z after that proves divergence and raises
    PositiveCycleDiverges.
    """
    z = list(h)
    for _ in range(len(h) + 1):
        changed = False
        for i, row in enumerate(rows):
            acc = z[i]
            for (j, w) in row:
                zj = z[j]
                if zj is not None and (acc is None or acc < w + zj):
                    acc = w + zj
            if acc != z[i]:
                z[i] = acc
                changed = True
        if not changed:
            return z
    raise PositiveCycleDiverges("a strictly positive cycle reaches the support of h")

"""Tropical matrix-vector products on Fraction matrices.

The reference the tests check feasibility against: a witness x satisfies
A x <= B x when ``trop_matvec(A, x)`` is below ``trop_matvec(B, x)``
coordinatewise, computed here on TropMatrix and ExtendedNumber values and
not on the integer grids the package works with.  ``payment_matrices``
gives a game's payments in that form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from troplf.trop_core import MAX_PLUS, NEG_INF, POS_INF, ExtendedNumber, TropMatrix, ext


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

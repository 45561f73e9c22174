"""The spectral function's pieces from phi at every point of a rational grid.

The reference that ``spectral.reconstruct`` is compared against: phi is
evaluated at every rational with denominator <= min(m,n)+1 in [-R, R],
R = 4M(min(m,n)+1)^2, and consecutive points of equal slope are merged.  It
costs one game per grid point (865, 1729 and 3073 on examples 1-3), so it
only suits small M and small instances.
"""

from __future__ import annotations

from fractions import Fraction

from troplf.spectral import HomogeneousInstance, SpectralPiece, phi
from troplf.trop_core import NEG_INF, ExtendedNumber, ext


def spectral_grid(H: HomogeneousInstance) -> list:
    """Sorted grid of rationals with denominator <= min(m,n)+1 covering all breakpoints."""
    k1 = H.k_bound + 1
    # With M = 0 the breakpoints still spread over [-4(k1)^2, 4(k1)^2].
    radius = 4 * max(H.M, 1) * k1 * k1
    points = set()
    for q in range(1, k1 + 1):
        num_lo = -radius * q
        num_hi = radius * q
        for num in range(int(num_lo), int(num_hi) + 1):
            points.add(Fraction(num, q))
    return sorted(points)


def reconstruct(H: HomogeneousInstance) -> list:
    """Fit the maximal affine pieces of phi from exact grid evaluation.

    Breakpoints have denominator <= min(m,n)+1 and phi is linear outside
    [-4M(min(m,n)+1)^2, 4M(min(m,n)+1)^2], so consecutive-grid-point slopes
    are exact piece slopes and the end pieces extend to +-inf.
    """
    grid = spectral_grid(H)
    values = [phi(H, lam) for lam in grid]
    pieces = []
    start = 0
    slopes = [
        Fraction(values[i + 1] - values[i], grid[i + 1] - grid[i])
        for i in range(len(grid) - 1)
    ]

    def emit(first: int, last: int):
        """Piece spanning grid[first] .. grid[last] with uniform slope."""
        slope = slopes[first]
        lo = NEG_INF if first == 0 else ext(grid[first])
        hi = ExtendedNumber(1, Fraction(0)) if last == len(grid) - 1 else ext(grid[last])
        if slope == 0:
            pieces.append(SpectralPiece(lo, hi, values[first], 0, 1))
        else:
            k = slope.denominator
            if slope.numerator != 1:
                raise AssertionError(f"unexpected piece slope {slope}")
            alpha = k * values[first] - grid[first]
            pieces.append(SpectralPiece(lo, hi, alpha, 1, k))

    for i in range(1, len(slopes)):
        if slopes[i] != slopes[start]:
            emit(start, i)
            start = i
    emit(start, len(slopes))
    return pieces

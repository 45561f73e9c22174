"""Brute-force values of mean payoff games, by full strategy enumeration.

The reference that the policy-iteration oracle (``game_engine.value_report``,
``game_value``, ``integer_oracle``) is compared against: every pair of
positional strategies is played out on the integer grids, and the value of
Min node j is the min over tau of the max over sigma of the mean payment of
the cycle the play from j reaches.  ``germs`` reuses the enumeration guard.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from troplf.game_engine import MaxStrategy, MeanPayoffGame, MinStrategy


class TooLarge(Exception):
    """Brute-force enumeration would exceed the strategy-space guard."""


BRUTE_FORCE_GUARD = 10**6


def _play_cycle(a, b, j: int, tau, sigma) -> tuple:
    """(total payment, length) of the cycle the play from Min node j reaches."""
    first_seen = {j: 0}
    payments = []
    cur = j
    while True:
        i = tau[cur]
        nxt = sigma[i]
        payments.append(b[i][nxt] - a[i][cur])
        if nxt in first_seen:
            cycle = payments[first_seen[nxt]:]
            return sum(cycle), len(cycle)
        first_seen[nxt] = len(payments)
        cur = nxt


def play_outcome(game: MeanPayoffGame, j: int, tau: MinStrategy, sigma: MaxStrategy) -> Fraction:
    """Mean payment per turn of the unique cycle reached from Min node j."""
    tau.check(game)
    sigma.check(game)
    total, length = _play_cycle(game.a, game.b, j, tau.choices, sigma.choices)
    return Fraction(total, length * game.d)


def _strategy_spaces(game: MeanPayoffGame):
    min_supports = [game.min_moves(j) for j in range(game.n)]
    max_supports = [game.max_moves(i) for i in range(game.m)]
    size = 1
    for s in min_supports:
        size *= len(s)
    for s in max_supports:
        size *= len(s)
    return min_supports, max_supports, size


def brute_force_value(game: MeanPayoffGame, j: int) -> Fraction:
    """min over tau of max over sigma of play_outcome, by full enumeration.

    Plays run on the integer payments; their means (total, length) compare
    by cross-multiplication.
    """
    min_supports, max_supports, size = _strategy_spaces(game)
    if size > BRUTE_FORCE_GUARD:
        raise TooLarge(f"strategy space of size {size} exceeds the guard")
    a, b = game.a, game.b
    best = None
    for tau in product(*min_supports):
        worst = None
        for sigma in product(*max_supports):
            total, length = _play_cycle(a, b, j, tau, sigma)
            if worst is None or total * worst[1] > worst[0] * length:
                worst = (total, length)
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    return Fraction(best[0], best[1] * game.d)

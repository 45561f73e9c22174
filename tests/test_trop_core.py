"""Tropical scalar/matrix algebra, Kleene stars, and cycle-mean utilities."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from troplf import (
    MIN_PLUS,
    NEG_INF,
    POS_INF,
    ExtendedNumber,
    PositiveCycleDiverges,
    TropMatrix,
    cycle_means,
    cycle_time_vector,
    kleene_least_solution,
)
from troplf.game_engine import HomogeneousInstance, _game_arrays, max_graph
from troplf.trop_core import WeightedDigraph, longest_paths, means_at_most, scc_and_access

from conftest import e, rows
from maxplus import kleene_star_int, trop_matvec


def fin(x):
    return ExtendedNumber.finite(x)


# --- trop_matvec, the tests' reference product ------------------------------


def test_matvec_identity():
    E = TropMatrix(rows([[0, "-inf"], ["-inf", 0]]))
    assert trop_matvec(E, [fin(3), fin(5)]) == (fin(3), fin(5))


def test_matvec_direct_evaluation():
    E = TropMatrix(rows([["-inf", 1], [-4, "-inf"]]))
    assert trop_matvec(E, [fin(-1), fin(-2)]) == (fin(-1), fin(-5))


def test_matvec_min_plus_absorbing_infinity():
    E = TropMatrix([[fin(2)]], semiring=MIN_PLUS)
    assert trop_matvec(E, [POS_INF]) == (POS_INF,)


def test_matvec_empty_max_is_neg_inf():
    E = TropMatrix(rows([["-inf", "-inf"]]))
    assert trop_matvec(E, [fin(1), fin(2)]) == (NEG_INF,)


def test_matvec_dimension_mismatch():
    E = TropMatrix(rows([[0, 0]]))
    with pytest.raises(ValueError):
        trop_matvec(E, [fin(1)])


def _leq(x, y):
    return all(a <= b for a, b in zip(x, y))


# --- kleene_least_solution -------------------------------------------------


def test_kleene_star_of_bottom_is_identity():
    E = TropMatrix(rows([["-inf", "-inf"], ["-inf", "-inf"]]))
    assert kleene_least_solution(E, [fin(-1), fin(-2)]) == (fin(-1), fin(-2))


def test_kleene_nonpositive_cycle():
    E = TropMatrix(rows([["-inf", 1], [-4, "-inf"]]))
    assert kleene_least_solution(E, [fin(-1), fin(-2)]) == (fin(-1), fin(-2))


def test_kleene_positive_self_loop_diverges():
    E = TropMatrix([[fin(1)]])
    with pytest.raises(PositiveCycleDiverges):
        kleene_least_solution(E, [fin(0)])


def _reference_paths(w, mask, source):
    """longest_paths by the Gauss-Seidel reference on Python ints, or None
    when it diverges."""
    n = len(w)
    into = [[(u, int(w[u, v])) for u in range(n) if mask[u, v]] for v in range(n)]
    try:
        return kleene_star_int(into, [0 if v == source else None for v in range(n)])
    except PositiveCycleDiverges:
        return None


def _int64_runs(w):
    """Whether longest_paths keeps w's sweeps on int64: 3R + 2 <= 2**62 with
    R = (N + 1) times the largest |entry| of w."""
    return 3 * (len(w) + 1) * max(abs(int(x)) for x in w.flat) + 2 <= 2**62


def test_longest_paths_match_the_reference():
    """On seeded random graphs, dense and with -inf entries, with positive
    cycles behind the source and off it, and with weights from small to past
    int64 (near 2**61 and 2**70, and at the largest int64 sweeps allow), the
    numpy sweeps give the reference's least solution, or both diverge."""
    rng = random.Random(97)
    seen = {"int64": 0, "object": 0, "diverged": 0, "cycle off the source": 0}
    for k in range(600):
        n = rng.randint(1, 8)
        density = rng.choice((1.0, 0.6, 0.25))
        scale = rng.choice(("small", "limit", "past", "2**61", "2**70"))
        top = {
            "small": 6,
            "limit": (2**62 - 2) // (3 * (n + 1)),
            "past": (2**62 - 2) // (3 * (n + 1)) + 1,
            "2**61": 2**61,
            "2**70": 2**70,
        }[scale]
        mask = np.array([[rng.random() < density for _ in range(n)] for _ in range(n)])
        # Mostly negative weights, and a self-loop of either sign at node 0,
        # so that cycles of both signs occur, and not always behind the source.
        w = np.array(
            [[rng.randint(-top, top // 8) if mask[u, v] else 0 for v in range(n)] for u in range(n)],
            dtype=object,
        )
        mask[0, 0], w[0, 0] = True, rng.choice((-top, top))
        if scale in ("limit", "small"):
            w = w.astype(np.int64)
        source = rng.randrange(n)
        expected = _reference_paths(w, mask, source)
        try:
            got = longest_paths(w, mask, source)
        except PositiveCycleDiverges:
            got = None
        assert got == expected, (k, n, scale)
        seen["int64" if _int64_runs(w) else "object"] += 1
        if expected is None:
            seen["diverged"] += 1
        elif any(_reference_paths(w, mask, u) is None for u in range(n)):
            seen["cycle off the source"] += 1
    assert min(seen.values()) >= 30, seen


# --- means_at_most ---------------------------------------------------------


def _karp_at_most(w, mask, source, c):
    """Whether every cycle mean that source reaches is at most c, by Karp's
    per-component means (cycle_means) over the components that source
    accesses (scc_and_access): the reference for means_at_most."""
    n = len(w)
    arcs = [(u, v, int(w[u, v])) for u in range(n) for v in range(n) if mask[u, v]]
    D = WeightedDigraph.from_arcs(n, arcs)
    access = scc_and_access(D, source).access
    decomp, means = cycle_means(D, "max")
    return all(mu is None or mu <= c or not access.intersection(comp)
               for comp, mu in zip(decomp.components, means))


def _assert_means_at_most(w, mask, source, p, q):
    """means_at_most agrees with Karp, and its paths are the Python-int
    longest paths of q*w - p."""
    got = means_at_most(w, mask, source, p, q)
    assert (got is not None) == _karp_at_most(w, mask, source, Fraction(p, q))
    if got is not None:
        assert list(got) == _reference_paths(q * w.astype(object) - p, mask, source)
    return got


@st.composite
def mean_questions(draw):
    """A graph of up to 7 nodes with a third of its arcs missing, a source,
    and a bound p/q with q <= N + 1 within the range of the weights.  In
    half the draws with N > 1 no arc crosses from the nodes below a cut to
    the others, the source lies below it, and the last node carries a
    positive self-loop that the source does not reach."""
    n = draw(st.integers(1, 7))
    top = draw(st.sampled_from((5, 2**40)))
    cut = draw(st.integers(1, n - 1)) if n > 1 and draw(st.booleans()) else n
    mask = np.array([[draw(st.integers(0, 2)) > 0 and not u < cut <= v for v in range(n)]
                     for u in range(n)])
    w = np.array([[draw(st.integers(-top, top)) if mask[u, v] else 0 for v in range(n)]
                  for u in range(n)], dtype=np.int64)
    if cut < n:
        mask[n - 1, n - 1], w[n - 1, n - 1] = True, top
    q = draw(st.integers(1, n + 1))
    p = draw(st.integers(-q * top, q * top))
    return w.astype(draw(st.sampled_from((np.int64, object)))), mask, draw(st.integers(0, cut - 1)), p, q


@given(mean_questions())
def test_means_at_most_matches_karp(case):
    _assert_means_at_most(*case)


def test_means_at_most_at_and_past_the_int64_limit():
    """Max's graph against tau on the oracle's arrays of a game whose
    payments sit at the largest bound that keeps them on int64, and one past
    it (object arrays), with bounds p/q of q <= N + 1 and |p| <= 2NW; then
    int64 weights whose reweighted values pass 2**63.  means_at_most answers
    as Karp does, with the Python-int longest paths, every time."""
    N = 2
    limit = (2**62 - 3) // (2 * N + 1)  # the largest W with (2N+1)W + 2 < 2**62
    for W, dtype in ((limit, np.int64), (limit + 1, object)):
        P = W - 1  # the largest |payment|
        a, b = ((-P, P), (P, -P)), ((P, -P), (-P, P - 1))
        arrays, bound, _d = HomogeneousInstance(a, b, 1, _game_arrays(a, b)[0]).arrays(0)
        assert (bound, arrays[2].dtype) == (W, dtype)
        # self-loops of 2P at node 0 and 2P - 1 at node 1, the source
        w, mask = max_graph(arrays, (0, 1))
        bounds = [(p, q) for q in range(1, N + 1) for p in (2 * P * q, 2 * P * q - 1, -2 * N * W)]
        answers = []
        for p, q in bounds + [(0, 1), (-1, N + 1)]:
            assert q * int(np.abs(w).max()) + abs(p) < 2**63
            answers.append(_assert_means_at_most(w, mask, N - 1, p, q) is not None)
        assert answers == [True, False, False] * N + [False, False]
    # int64 weights whose reweighted values leave int64
    big = 2**62 - 1
    w = np.array([[big, 0], [0, -big]], dtype=np.int64)
    for p, fits in ((4 * big, True), (4 * big - 1, False)):
        assert max(abs(4 * x - p) for x in (big, 0, -big)) >= 2**63
        assert (_assert_means_at_most(w, np.ones((2, 2), dtype=bool), 0, p, 4) is not None) == fits


def test_kleene_least_solution_properties():
    """z = E*h satisfies Ez v h <= z and lower-bounds every Kleene iterate."""
    rng = random.Random(23)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)

        def ent():
            return NEG_INF if rng.random() < 0.5 else fin(rng.randint(-5, 0))

        E = TropMatrix([[ent() for _ in range(n)] for _ in range(n)])
        h = [ent() for _ in range(n)]
        try:
            z = kleene_least_solution(E, h)
        except PositiveCycleDiverges:
            continue
        done += 1
        Ez = trop_matvec(E, z)
        assert _leq(Ez, z) and _leq(h, z)
        it = tuple(h)
        for _ in range(n):
            assert _leq(it, z)
            it = tuple(
                a if b < a else b for a, b in zip(trop_matvec(E, it), h)
            )
        assert it == z  # fixed point reached within n iterations


# --- cycle means -----------------------------------------------------------


def test_cycle_mean_self_loop():
    D = WeightedDigraph.from_arcs(1, [(0, 0, 0)])
    _, means = cycle_means(D, "max")
    assert means == (Fraction(0),)


def test_cycle_mean_two_cycle():
    D = WeightedDigraph.from_arcs(2, [(0, 1, 1), (1, 0, -4)])
    _, means = cycle_means(D, "max")
    assert means == (Fraction(-3, 2),)


def test_cycle_mean_disjoint_self_loops():
    D = WeightedDigraph.from_arcs(2, [(0, 0, 2), (1, 1, -1)])
    _, means = cycle_means(D, "max")
    assert sorted(means) == [Fraction(-1), Fraction(2)]


def _brute_cycle_means(n, arcs, mode):
    """Best elementary-cycle mean per SCC by exhaustive path enumeration."""
    succ = {}
    for (s, t, w) in arcs:
        succ.setdefault(s, []).append((t, w))
    best = {}

    pick = max if mode == "max" else min

    def walk(start, cur, weight, length, seen):
        for (t, w) in succ.get(cur, ()):
            if t == start:
                mean = Fraction(weight + w, length + 1)
                best[start] = mean if start not in best else pick(best[start], mean)
            elif t > start and t not in seen:
                walk(start, t, weight + w, length + 1, seen | {t})

    for v in range(n):
        walk(v, v, Fraction(0), 0, {v})
    return best


def test_karp_matches_cycle_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        arcs = []
        for s in range(n):
            for t in range(n):
                if rng.random() < 0.4:
                    arcs.append((s, t, rng.randint(-5, 5)))
        D = WeightedDigraph.from_arcs(n, arcs)
        for mode in ("max", "min"):
            decomp, means = cycle_means(D, mode)
            brute = _brute_cycle_means(n, arcs, mode)
            pick = max if mode == "max" else min
            for c, comp in enumerate(decomp.components):
                cands = [brute[v] for v in comp if v in brute]
                expect = pick(cands) if cands else None
                assert means[c] == expect


# --- cycle_time_vector -----------------------------------------------------


def test_cycle_time_single_loop():
    assert cycle_time_vector(TropMatrix([[fin(0)]]), "max") == (fin(0),)


def test_cycle_time_shared_cycle():
    E = TropMatrix(rows([["-inf", 1], [-4, "-inf"]]))
    assert cycle_time_vector(E, "max") == (fin(Fraction(-3, 2)), fin(Fraction(-3, 2)))


def test_cycle_time_accessibility():
    # Node 0 only reaches the weight-5 self-loop at node 1.
    E = TropMatrix(rows([["-inf", 0], ["-inf", 5]]))
    assert cycle_time_vector(E, "max") == (fin(5), fin(5))


def test_cycle_time_no_cycle():
    E = TropMatrix(rows([["-inf", 0], ["-inf", "-inf"]]))
    assert cycle_time_vector(E, "max") == (NEG_INF, NEG_INF)
    Emin = TropMatrix([[POS_INF, fin(0)], [POS_INF, POS_INF]], semiring=MIN_PLUS)
    assert cycle_time_vector(Emin, "min") == (POS_INF, POS_INF)


def test_cycle_time_power_iteration_limit():
    """(E^k x)_i / k approaches chi_i within the transient bound 2nW/k."""
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        W = 4

        def ent():
            return NEG_INF if rng.random() < 0.3 else fin(rng.randint(-W, W))

        E = TropMatrix([[ent() for _ in range(n)] for _ in range(n)])
        chi = cycle_time_vector(E, "max")
        x = tuple(fin(0) for _ in range(n))
        k = 64
        for _ in range(k):
            x = trop_matvec(E, x)
        for i in range(n):
            if chi[i] == NEG_INF:
                assert not x[i].is_finite
            else:
                gap = abs(Fraction(x[i].value, k) - chi[i].value)
                assert gap <= Fraction(2 * n * W, k)


# --- scc_and_access --------------------------------------------------------


def test_scc_single_node():
    D = WeightedDigraph.from_arcs(1, [])
    dec = scc_and_access(D, 0)
    assert dec.components == ((0,),)
    assert dec.access == frozenset({0})


def test_scc_two_cycle():
    D = WeightedDigraph.from_arcs(2, [(0, 1, 0), (1, 0, 0)])
    dec = scc_and_access(D)
    assert len(dec.components) == 1


def test_scc_chain():
    D = WeightedDigraph.from_arcs(3, [(0, 1, 0), (1, 2, 0)])
    dec = scc_and_access(D, 0)
    assert len(dec.components) == 3
    assert dec.access == frozenset({0, 1, 2})
    # reverse topological order: successors come first
    order = [dec.comp_of[v] for v in (0, 1, 2)]
    assert order[0] > order[1] > order[2]


# --- matrix construction guards -------------------------------------------


def test_max_plus_rejects_pos_inf():
    with pytest.raises(ValueError):
        TropMatrix([[POS_INF]])


def test_min_plus_rejects_neg_inf():
    with pytest.raises(ValueError):
        TropMatrix([[NEG_INF]], semiring=MIN_PLUS)


def test_ragged_grid_rejected():
    with pytest.raises(ValueError):
        TropMatrix([[fin(0), fin(1)], [fin(2)]])


def test_extended_number_order_and_mixed_sums():
    assert NEG_INF < fin(-10) < fin(0) < fin(Fraction(1, 3)) < POS_INF
    assert NEG_INF.add_max(POS_INF) == NEG_INF
    assert NEG_INF.add_min(POS_INF) == POS_INF
    assert fin(Fraction(1, 2)).add_max(fin(Fraction(1, 3))) == fin(Fraction(5, 6))

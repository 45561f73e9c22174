"""Strategy certificates: generation, validation, and the small equivalences."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from troplf import (
    NEG_INF,
    POS_INF,
    CheckResult,
    ExtendedNumber,
    LfpInstance,
    MaxStrategy,
    MinStrategy,
    OptimalityCertificate,
    TropMatrix,
    UnboundednessCertificate,
    check_optimality,
    check_unboundedness,
    game_at,
    homogenize,
    make_optimality_certificate,
    make_unboundedness_certificate,
    phi_nonneg,
    integer_oracle,
    solve,
)
from troplf.certify import (
    OPTIMALITY_POTENTIALS,
    UNBOUNDEDNESS_POTENTIALS,
    CertificateSynthesisFailed,
)
from troplf.cli_io import (
    DocumentError,
    format_rational,
    parse_certificate,
    parse_instance,
    serialize_certificate,
)
from troplf.game_engine import restrict_min
from troplf.spectral import HomogeneousInstance, deep_lambda
from troplf.trop_core import (
    PositiveCycleDiverges,
    WeightedDigraph,
    cycle_means,
    digraph_of_matrix,
    longest_paths,
    scc_and_access,
)

from conftest import e, make_game, make_instance, random_instance
from maxplus import payment_matrices, trop_matvec

NI = "-inf"


def fin(x):
    return ExtendedNumber.finite(x)


PAPER_TAU = MinStrategy((7, 3, 3))
PAPER_WITNESS = (fin(-2), fin(2), fin(0))


# --- optimality checking ---------------------------------------------------


def test_paper_certificate_accepted(example2):
    H = homogenize(example2)
    cert = OptimalityCertificate(Fraction(0), PAPER_TAU, PAPER_WITNESS)
    assert check_optimality(H, cert)


def test_paper_certificate_wrong_lambda_rejected(example2):
    H = homogenize(example2)
    cert = OptimalityCertificate(Fraction(-1), PAPER_TAU, PAPER_WITNESS)
    res = check_optimality(H, cert)
    assert not res
    assert "witness violates" in res.reason  # condition (c) via the witness


def test_paper_certificate_wrong_lambda_no_witness(example2):
    H = homogenize(example2)
    res = check_optimality(H, OptimalityCertificate(Fraction(-1), PAPER_TAU, None))
    assert not res
    assert res.reason == "phi(lambda*) < 0"


def test_malformed_witness_rejected(example2):
    H = homogenize(example2)
    res = check_optimality(
        H, OptimalityCertificate(Fraction(0), PAPER_TAU, (fin(0), fin(0)))
    )
    assert not res and res.reason == "witness has the wrong length"
    res = check_optimality(
        H, OptimalityCertificate(Fraction(0), PAPER_TAU, (fin(0), fin(0), NEG_INF))
    )
    assert not res and "not finite" in res.reason


def test_malformed_strategy_rejected(example2):
    H = homogenize(example2)
    with pytest.raises(ValueError):
        check_optimality(H, OptimalityCertificate(Fraction(0), MinStrategy((7, 3)), None))


def _brute_cycle_conditions(H, tau, lam):
    """Conditions (a)/(b) by exhaustive elementary-cycle enumeration."""
    mat = restrict_min(game_at(H, lam), tau)
    n = mat.rows
    succ = [
        [(l, mat.entries[j][l].value) for l in range(n) if mat.entries[j][l].is_finite]
        for j in range(n)
    ]
    reach = {H.n}
    frontier = [H.n]
    while frontier:
        v = frontier.pop()
        for (w, _x) in succ[v]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    cond_a, cond_b = True, True

    def walk(start, cur, weight, length, seen):
        nonlocal cond_a, cond_b
        for (t, w) in succ[cur]:
            if t == start:
                total = weight + w
                if total > 0:
                    cond_a = False
                through_obj = any(tau.choices[v] == H.m for v in seen)
                if total >= 0 and not through_obj:
                    cond_b = False
            elif t > start and t not in seen:
                walk(start, t, weight + w, length + 1, seen | {t})

    for v in sorted(reach):
        if v in reach:
            walk(v, v, Fraction(0), 0, {v})
    return cond_a, cond_b


def test_checker_matches_cycle_enumeration(example2):
    H = homogenize(example2)
    g = game_at(H, 0)
    supports = [g.min_moves(j) for j in range(g.n)]
    for choices in product(*supports):
        tau = MinStrategy(choices)
        cond_a, cond_b = _brute_cycle_conditions(H, tau, Fraction(0))
        res = check_optimality(
            H, OptimalityCertificate(Fraction(0), tau, PAPER_WITNESS)
        )
        assert bool(res) == (cond_a and cond_b)


# --- unboundedness checking ------------------------------------------------


def _special_minimization(A, B, c_vals, d_vals):
    """All-finite minimization of p x subject to Ax v c <= Bx v d."""
    n = len(A[0])
    return make_instance(
        A=A, B=B, c=c_vals, d=d_vals, p=[0] * n, q=[NI] * n, r=NI, s=0
    )


def _all_to_last_column(H):
    return MaxStrategy((H.n,) * (H.m + 1))


def test_unboundedness_special_case_accepts():
    inst = _special_minimization([[0, 1], [2, -1]], [[1, 0], [0, 0]], [0, -2], [0, 0])
    H = homogenize(inst)
    assert check_unboundedness(H, UnboundednessCertificate(_all_to_last_column(H)))


def test_unboundedness_special_case_rejects_on_c_above_d():
    inst = _special_minimization([[0, 1], [2, -1]], [[1, 0], [0, 0]], [1, 0], [0, 0])
    H = homogenize(inst)
    res = check_unboundedness(H, UnboundednessCertificate(_all_to_last_column(H)))
    assert not res and "negative weight" in res.reason


def test_unboundedness_rejects_route_through_objective_row():
    inst = _special_minimization([[0]], [[0]], [0], [0])
    H = homogenize(inst)
    # a row routed into the variable columns closes a cycle through row m+1
    sigma = MaxStrategy((0,) * H.m + (H.n,))
    res = check_unboundedness(H, UnboundednessCertificate(sigma))
    assert not res and "passes through row m+1" in res.reason


def test_unboundedness_certificate_takes_sigma_at_the_deep_lambda():
    """An r = -inf instance with a feasible point that is -inf on supp(u):
    its certificate's sigma is the oracle's at deep_lambda, and it passes
    the check with its potentials and without them."""
    inst = make_instance(
        A=[[NI, 1], [0, 1], [1, 0]], B=[[0, 1], [NI, NI], [1, NI]],
        c=[0, NI, NI], d=[0, 0, 1], p=[NI, 0], q=[0, 0], r=NI, s=0,
    )
    H = homogenize(inst)
    cert = make_unboundedness_certificate(H)
    assert cert.sigma == H.report(deep_lambda(H)).sigma
    assert check_unboundedness(H, cert)
    assert check_unboundedness(H, replace(cert, **dict.fromkeys(UNBOUNDEDNESS_POTENTIALS)))


def test_special_case_equivalence_c_leq_d():
    rng = random.Random(77)
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        c_vals = [rng.randint(-2, 2) for _ in range(m)]
        d_vals = [rng.randint(-2, 2) for _ in range(m)]
        inst = _special_minimization(A, B, c_vals, d_vals)
        H = homogenize(inst)
        g = game_at(H, 0)
        some_sigma_accepted = any(
            check_unboundedness(H, UnboundednessCertificate(MaxStrategy(sc)))
            for sc in product(*[g.max_moves(i) for i in range(H.m + 1)])
        )
        unbounded = all(ci <= di for ci, di in zip(c_vals, d_vals))
        assert some_sigma_accepted == unbounded
        assert (solve(inst).status == "Unbounded") == unbounded


def test_special_case_equivalence_maximization():
    # maximizing q x is unbounded exactly when Ax <= Bx has a finite solution
    rng = random.Random(79)
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        c_vals = [rng.randint(-2, 2) for _ in range(m)]
        d_vals = [rng.randint(-2, 2) for _ in range(m)]
        inst = make_instance(
            A=A, B=B,
            c=c_vals, d=d_vals,
            p=[NI] * n, q=[0] * n, r=0, s=NI,
        )
        H = homogenize(inst)
        g = game_at(H, 0)
        some_sigma_accepted = any(
            check_unboundedness(H, UnboundednessCertificate(MaxStrategy(sc)))
            for sc in product(*[g.max_moves(i) for i in range(H.m + 1)])
        )
        bare = make_game(A, B)
        rep = integer_oracle(bare)
        finite_solution = rep.winning == frozenset(range(n))
        assert some_sigma_accepted == finite_solution


# --- certificate generation ------------------------------------------------


def test_generated_certificates_for_examples(example1, example2, example3):
    for inst, lam in ((example1, -5), (example2, 0), (example3, -4)):
        H = homogenize(inst)
        cert = make_optimality_certificate(H, Fraction(lam))
        assert cert.lam == lam
        assert check_optimality(H, cert)


def test_generation_fails_above_optimum(example2):
    H = homogenize(example2)
    with pytest.raises(CertificateSynthesisFailed):
        make_optimality_certificate(H, Fraction(1))  # phi(0) >= 0 left of 1


def test_round_trip_on_random_solves():
    rng = random.Random(83)
    seen_optimal = seen_unbounded = 0
    while seen_optimal < 12 or seen_unbounded < 4:
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 4, 0.4)
        out = solve(inst)
        H = homogenize(inst)
        if out.status == "Optimal":
            assert check_optimality(H, out.certificate)
            seen_optimal += 1
        elif out.status == "Unbounded" and out.certificate is not None:
            assert check_unboundedness(H, out.certificate)
            seen_unbounded += 1


def test_corrupted_lambda_below_optimum_rejected():
    rng = random.Random(89)
    done = 0
    while done < 10:
        inst = random_instance(rng, 2, 2, 3, 0.3)
        out = solve(inst)
        if out.status != "Optimal":
            continue
        H = homogenize(inst)
        bogus = OptimalityCertificate(out.lam - 1, out.certificate.tau, None)
        assert not check_optimality(H, bogus)
        done += 1


# --- potentials ------------------------------------------------------------


def test_longest_paths_only_count_cycles_behind_the_source():
    # 0 -> 1 -> 2 -> 1 closes a cycle of weight +1; 3 <-> 4 one of weight +2
    # that node 0 cannot reach; 5 <-> 6 one of weight 0.
    arcs = {(0, 1): -5, (1, 2): 3, (2, 1): -2, (3, 4): 1, (4, 3): 1, (5, 6): 4, (6, 5): -4}

    def paths(source):
        w = np.zeros((7, 7), dtype=np.int64)
        mask = np.zeros((7, 7), dtype=bool)
        for (u, v), x in arcs.items():
            w[u, v], mask[u, v] = x, True
        try:
            return tuple(longest_paths(w, mask, source))
        except PositiveCycleDiverges:
            return None

    assert paths(0) is None
    assert paths(3) is None
    assert paths(5) == (None,) * 5 + (0, 4)
    arcs[2, 1] = -3
    assert paths(0) == (0, -5, -2) + (None,) * 4


def _issued_certificates():
    """(H, certificate, check, potential keys) of random optimal and
    unbounded solves."""
    rng = random.Random(101)
    seen = Counter()
    while seen["Optimal"] < 12 or seen["Unbounded"] < 6:
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4), 5, 0.4)
        out = solve(inst)
        if out.certificate is None:
            continue
        seen[out.status] += 1
        if out.status == "Optimal":
            yield homogenize(inst), out.certificate, check_optimality, OPTIMALITY_POTENTIALS
        else:
            yield homogenize(inst), out.certificate, check_unboundedness, UNBOUNDEDNESS_POTENTIALS


def test_corrupted_potentials_are_rejected_at_the_arc_they_break():
    """Issued potentials are the least ones, so every node the source
    reaches has a tight arc into it: lowering its potential by one breaks
    that arc, and -inf there breaks every arc into it.  -inf at the source
    is refused.  Each reason names the vector and the arc.  Shifting every
    finite potential by one constant keeps the certificate valid."""
    mutated = Counter()
    for H, cert, check, keys in _issued_certificates():
        for key in keys:
            z = getattr(cert, key)
            assert z is not None and len(z) == H.n + 1 and z[H.n] is not None
            result = check(H, replace(cert, **{key: z[:-1] + (None,)}))
            assert not result and result.reason == f"{key}: node n+1 is -inf"
            for v, zv in enumerate(z[:-1]):
                if zv is None:
                    continue
                for what, bad in (("lowered", zv - 1), ("erased", None)):
                    result = check(H, replace(cert, **{key: z[:v] + (bad,) + z[v + 1:]}))
                    assert not result
                    assert result.reason.startswith(f"{key}: the arc ")
                    assert f" -> {v + 1} of weight " in result.reason
                    assert result.reason.endswith(" breaks z_v >= z_u + w")
                    mutated[key, what] += 1
            for shift in (-7, 1, 10**20):
                shifted = tuple(None if x is None else x + shift for x in z)
                assert check(H, replace(cert, **{key: shifted})), key
    every = {(key, what) for key in OPTIMALITY_POTENTIALS + UNBOUNDEDNESS_POTENTIALS
             for what in ("lowered", "erased")}
    assert every <= set(mutated), every - set(mutated)


def test_certificates_without_potentials_are_still_checked(example2):
    """A certificate without potentials, or without one of its vectors, gets
    them from longest paths; a vector of the wrong length is refused."""
    H = homogenize(example2)
    cert = make_optimality_certificate(H, Fraction(0))
    assert cert.potentials is not None and cert.strict_potentials is not None
    assert check_optimality(H, replace(cert, potentials=None, strict_potentials=None))
    assert check_optimality(H, replace(cert, potentials=None))
    short = check_optimality(H, replace(cert, potentials=cert.potentials[:-1]))
    assert not short and short.reason == "potentials has the wrong length"


def test_a_check_without_potentials_builds_its_graphs_once(example2, monkeypatch):
    """With both potential vectors missing, each check reads the game's
    arrays once for both of its graphs."""
    calls = []
    original = HomogeneousInstance.arrays

    def counted(instance, lam):
        calls.append(lam)
        return original(instance, lam)

    monkeypatch.setattr(HomogeneousInstance, "arrays", counted)
    H = homogenize(example2)
    cert = make_optimality_certificate(H, Fraction(0))
    calls.clear()
    assert check_optimality(H, replace(cert, **dict.fromkeys(OPTIMALITY_POTENTIALS)))
    assert len(calls) == 1
    inst = make_instance(
        A=[[NI, 1], [0, 1], [1, 0]], B=[[0, 1], [NI, NI], [1, NI]],
        c=[0, NI, NI], d=[0, 0, 1], p=[NI, 0], q=[0, 0], r=NI, s=0,
    )
    H = homogenize(inst)
    cert = make_unboundedness_certificate(H)
    calls.clear()
    assert check_unboundedness(H, replace(cert, **dict.fromkeys(UNBOUNDEDNESS_POTENTIALS)))
    assert len(calls) == 1


def test_a_check_leaves_the_instance_unchanged(example1, example2, example3):
    """What a certificate without potentials or a witness needs, a check
    builds and solves on a spare instance.  After the synthesis of the
    certificates of examples 1-3 and of an unbounded program, the checks of
    all their mutants, stripped of their potentials, leave the instance's
    stats, memo, last strategies and last arrays as the synthesis left
    them, and each verdict and reason is the Karp reference's, acceptance
    criterion 4's "phi(lambda*) < 0" among them."""
    unbounded = make_instance(
        A=[[NI, 1], [0, 1], [1, 0]], B=[[0, 1], [NI, NI], [1, NI]],
        c=[0, NI, NI], d=[0, 0, 1], p=[NI, 0], q=[0, 0], r=NI, s=0,
    )
    reasons = Counter()
    for inst in (example1, example2, example3, unbounded):
        out = solve(inst)
        H, reference = homogenize(inst), homogenize(inst)
        if out.status == "Optimal":
            make_optimality_certificate(H, out.lam * H.scale)
            check, karp, keys = check_optimality, _karp_optimality, OPTIMALITY_POTENTIALS
            mutants = _optimality_mutants(reference, out.certificate)
        else:
            make_unboundedness_certificate(H)
            check, karp, keys = check_unboundedness, _karp_unboundedness, UNBOUNDEDNESS_POTENTIALS
            mutants = _unboundedness_mutants(reference, out.certificate)
        state = replace(H.stats), list(H.memo.items()), H.last
        built = H._built
        for cert in [replace(c, **dict.fromkeys(keys)) for c in mutants]:
            try:
                expected = karp(reference, cert)
            except ValueError:
                with pytest.raises(ValueError):
                    check(H, cert)
            else:
                got = check(H, cert)
                assert (got.accepted, got.reason) == (expected.accepted, expected.reason)
                reasons[got.reason] += 1
            assert (replace(H.stats), list(H.memo.items()), H.last) == state
            assert H._built is built
    assert reasons[""] and reasons[PHI_NEGATIVE] and reasons[THROUGH_ROW]


def _acceptance_solves():
    """(instance, method) of the acceptance criteria's examples and of
    criterion 6's 200 instances, by every method."""
    from test_acceptance import criterion_6_instances

    examples = []
    for k in (1, 2, 3):
        with open(f"data/example{k}.json", encoding="utf-8") as fh:
            examples.append(parse_instance(json.load(fh)).instance)
    for inst in examples + list(criterion_6_instances()):
        for method in ("newton", "bisection", "negative-newton"):
            yield inst, method


def test_issued_certificates_pass_with_and_without_their_potentials():
    """Every certificate the acceptance families issue carries its potentials
    in JSON, and passes the check with them and with those keys deleted."""
    counts = Counter()
    for inst, method in _acceptance_solves():
        out = solve(inst, method=method)
        if out.certificate is None:
            continue
        H = homogenize(inst)
        doc = json.loads(json.dumps(serialize_certificate(out.certificate)))
        keys = OPTIMALITY_POTENTIALS if doc["type"] == "optimality" else UNBOUNDEDNESS_POTENTIALS
        check = check_optimality if doc["type"] == "optimality" else check_unboundedness
        assert all(len(doc[key]) == H.n + 1 for key in keys)
        assert check(H, parse_certificate(doc, H.m, H.n))
        bare = {k: v for k, v in doc.items() if k not in keys}
        assert check(H, parse_certificate(bare, H.m, H.n))
        counts[doc["type"]] += 1
    assert counts["optimality"] > 100 and counts["unboundedness"] > 10, counts


def test_certificate_parse_reads_potentials_strictly(example2):
    H = homogenize(example2)
    cert = make_optimality_certificate(H, Fraction(0))
    doc = json.loads(json.dumps(serialize_certificate(cert)))
    assert parse_certificate(doc, H.m, H.n) == cert
    for key in OPTIMALITY_POTENTIALS:
        for bad, where in ((True, 0), (1.0, 1), ("3/2", 0), ("7", 2), (None, 1), ("+inf", 0)):
            vector = list(doc[key])
            vector[where] = bad
            with pytest.raises(DocumentError, match=rf"{key}\[{where}\] must be an integer"):
                parse_certificate({**doc, key: vector}, H.m, H.n)
        for vector in (doc[key][:-1], doc[key] + [0], {"0": 1}, "-inf"):
            with pytest.raises(DocumentError, match=f"{key} must list {H.n + 1} potentials"):
                parse_certificate({**doc, key: vector}, H.m, H.n)
    inst = _special_minimization([[0, 1], [2, -1]], [[1, 0], [0, 0]], [0, -2], [0, 0])
    H = homogenize(inst)
    doc = json.loads(json.dumps(serialize_certificate(make_unboundedness_certificate(H))))
    assert set(UNBOUNDEDNESS_POTENTIALS) <= set(doc)
    for key in UNBOUNDEDNESS_POTENTIALS:
        with pytest.raises(DocumentError, match=rf"{key}\[0\] must be an integer"):
            parse_certificate({**doc, key: [False] + doc[key][1:]}, H.m, H.n)
        with pytest.raises(DocumentError, match=f"{key} must list {H.n + 1} potentials"):
            parse_certificate({**doc, key: doc[key] * 2}, H.m, H.n)


# --- differential checks against Karp cycle means ---------------------------

POSITIVE = "a cycle accessible from node n+1 has positive weight"
NOT_NEGATIVE = "a cycle avoiding row m+1 accessible from node n+1 is not negative"
WRONG_LENGTH = "witness has the wrong length"
NOT_FINITE = "witness coordinate n+1 is not finite"
VIOLATES = "witness violates U y <= V(lambda*) y"
PHI_NEGATIVE = "phi(lambda*) < 0"
THROUGH_ROW = "a cycle accessible from node n+1 passes through row m+1"
NEGATIVE = "a cycle accessible from node n+1 has negative weight"


def _karp_optimality(H, cert):
    """check_optimality's verdict from the Fraction game at lambda*, with
    Karp cycle means on tau's restricted digraph: the reference the integer
    longest-path check must agree with."""
    lam_s = Fraction(cert.lam) * H.scale
    game = game_at(H, lam_s)
    mat = restrict_min(game, cert.tau)
    dropped = TropMatrix(
        [[NEG_INF] * mat.cols if cert.tau.choices[j] == H.m else mat.entries[j]
         for j in range(mat.rows)]
    )
    for E, bad, reason in ((mat, lambda mu: mu > 0, POSITIVE), (dropped, lambda mu: mu >= 0, NOT_NEGATIVE)):
        D = digraph_of_matrix(E)
        access = scc_and_access(D, H.n).access
        decomp, means = cycle_means(D, "max")
        if any(mu is not None and bad(mu) and access.intersection(comp)
               for comp, mu in zip(decomp.components, means)):
            return CheckResult(False, reason)
    if cert.witness is not None:
        y = tuple(fin(x.value * H.scale) if x.is_finite else x for x in cert.witness)
        if len(y) != H.n + 1:
            return CheckResult(False, WRONG_LENGTH)
        if not y[H.n].is_finite:
            return CheckResult(False, NOT_FINITE)
        A, B = payment_matrices(game)
        if not all(l <= r for l, r in zip(trop_matvec(A, y), trop_matvec(B, y))):
            return CheckResult(False, VIOLATES)
    elif not phi_nonneg(H, lam_s)[0]:
        return CheckResult(False, PHI_NEGATIVE)
    return CheckResult(True)


def _karp_unboundedness(H, cert):
    """check_unboundedness's verdict by Karp minimal cycle means on the
    bipartite digraph of sigma at lambda = 0: the reference."""
    game = game_at(H, 0)
    cert.sigma.check(game)
    A, B = payment_matrices(game)
    n_min = H.n + 1
    arcs = []
    for i, l in enumerate(cert.sigma.choices):
        arcs.append((n_min + i, l, B.entries[i][l].value))
        arcs += [(j, n_min + i, -A.entries[i][j].value)
                 for j in range(n_min) if A.entries[i][j].is_finite]
    D = WeightedDigraph.from_arcs(n_min + H.m + 1, arcs)
    access = scc_and_access(D, H.n).access
    decomp, means = cycle_means(D, "min")
    row = n_min + H.m
    if row in access and len(decomp.components[decomp.comp_of[row]]) > 1:
        return CheckResult(False, THROUGH_ROW)
    if any(mu is not None and mu < 0 and access.intersection(comp)
           for comp, mu in zip(decomp.components, means)):
        return CheckResult(False, NEGATIVE)
    return CheckResult(True)


def _same_verdict(check, reference, H, cert, reasons: Counter):
    try:
        expected = reference(H, cert)
    except ValueError:
        with pytest.raises(ValueError):
            check(H, cert)
        reasons["ValueError"] += 1
        return
    got = check(H, cert)
    assert (got.accepted, got.reason) == (expected.accepted, expected.reason), cert
    reasons[got.reason] += 1


def _optimality_mutants(H, cert):
    """The certificate, and variants with lambda*, tau or the witness changed."""
    w = cert.witness
    yield cert
    yield OptimalityCertificate(cert.lam, cert.tau, None)
    for delta in (Fraction(1, 7), Fraction(-1, 7), Fraction(1)):
        yield OptimalityCertificate(cert.lam + delta, cert.tau, w)
        yield OptimalityCertificate(cert.lam - delta, cert.tau, None)
    U = H.U
    for j, i in enumerate(cert.tau.choices):
        for k in range(H.m + 1):
            if k != i and U[k][j] is not None:
                flipped = cert.tau.choices[:j] + (k,) + cert.tau.choices[j + 1:]
                yield OptimalityCertificate(cert.lam, MinStrategy(flipped), w)
    # tau of the game at lambda* itself, not of the game just below it, may
    # close a cycle of weight zero that avoids row m+1.
    rep = H.report(Fraction(cert.lam) * H.scale)
    yield OptimalityCertificate(cert.lam, rep.tau, w)
    yield OptimalityCertificate(cert.lam, rep.tau, None)
    yield OptimalityCertificate(cert.lam, cert.tau, w[:-1])
    yield OptimalityCertificate(cert.lam, cert.tau, w[:-1] + (NEG_INF,))
    for j in range(H.n):
        yield OptimalityCertificate(cert.lam, cert.tau, w[:j] + (POS_INF,) + w[j + 1:])
    bad_row = cert.tau.choices[:-1] + (H.m + 1,)
    yield OptimalityCertificate(cert.lam, MinStrategy(bad_row), w)


def _unboundedness_mutants(H, cert):
    """The certificate and every sigma one row away from it."""
    yield cert
    V = H.V
    for i, l in enumerate(cert.sigma.choices):
        for k in range(H.n + 1):
            if k != l and V[i][k] is not None:
                flipped = cert.sigma.choices[:i] + (k,) + cert.sigma.choices[i + 1:]
                yield UnboundednessCertificate(MaxStrategy(flipped))
    yield UnboundednessCertificate(MaxStrategy(cert.sigma.choices[:-1]))


def _with_denominators(rng, inst):
    """inst with each finite entry divided by 1, 2, 3 or 6."""
    def div(x):
        return fin(x.value / rng.choice((1, 2, 3, 6))) if x.is_finite else x

    def vec(v):
        return [div(x) for x in v]

    return LfpInstance(
        [vec(row) for row in inst.A.entries], [vec(row) for row in inst.B.entries],
        vec(inst.c), vec(inst.d), vec(inst.p), vec(inst.q), div(inst.r), div(inst.s),
    )


def _differential_instances(example1, example2, example3):
    rng = random.Random(97)
    yield from (example1, example2, example3)
    for _ in range(30):
        yield random_instance(rng, rng.randint(1, 4), rng.randint(1, 4), 4, 0.4)
    for _ in range(10):
        yield _with_denominators(rng, random_instance(rng, rng.randint(2, 4), rng.randint(2, 4), 6, 0.3))


def test_integer_checks_match_karp_reference(example1, example2, example3):
    reasons = Counter()
    scaled = 0
    for inst in _differential_instances(example1, example2, example3):
        out = solve(inst)
        H = homogenize(inst)
        scaled += H.scale > 1
        if out.status == "Optimal":
            for cert in _optimality_mutants(H, out.certificate):
                _same_verdict(check_optimality, _karp_optimality, H, cert, reasons)
        elif out.certificate is not None:
            for cert in _unboundedness_mutants(H, out.certificate):
                _same_verdict(check_unboundedness, _karp_unboundedness, H, cert, reasons)
    # The special cases of the unboundedness tests above, every sigma of each.
    for c_vals in ([0, -2], [1, 0]):
        H = homogenize(_special_minimization([[0, 1], [2, -1]], [[1, 0], [0, 0]], c_vals, [0, 0]))
        for sc in product(*[[l for l in range(H.n + 1) if H.V[i][l] is not None] for i in range(H.m + 1)]):
            _same_verdict(check_unboundedness, _karp_unboundedness, H,
                          UnboundednessCertificate(MaxStrategy(sc)), reasons)
    assert scaled > 0
    every = {"", POSITIVE, NOT_NEGATIVE, WRONG_LENGTH, NOT_FINITE, VIOLATES, PHI_NEGATIVE,
             THROUGH_ROW, NEGATIVE, "ValueError"}
    assert every <= set(reasons), every - set(reasons)


def test_witness_with_sevenths_is_checked_exactly(example2):
    """On an integer instance, witness coordinates in sevenths are compared
    exactly: truncating -15/7 or flooring -13/7 to -2 would accept them."""
    H = homogenize(example2)
    for y, accepted in (
        ((Fraction(-15, 7), 2), False),
        ((Fraction(-13, 7), 2), False),
        ((-2, Fraction(15, 7)), True),
    ):
        cert = OptimalityCertificate(Fraction(0), PAPER_TAU, (fin(y[0]), fin(y[1]), fin(0)))
        assert bool(check_optimality(H, cert)) == accepted == bool(_karp_optimality(H, cert))


# --- property: self-issued certificates survive the JSON round trip ---------


@st.composite
def instance_documents(draw):
    """Instance documents up to 5 x 5 with -inf and rational entries, either
    objective, patched so that every row of [B|d] and every column of A and
    of c has a finite entry."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def finite():
        return format_rational(Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3)))))

    def entry():
        return NI if draw(st.integers(0, 2)) == 0 else finite()

    A = [[entry() for _ in range(n)] for _ in range(m)]
    B = [[entry() for _ in range(n)] for _ in range(m)]
    c, d = [entry() for _ in range(m)], [entry() for _ in range(m)]
    for i in range(m):
        if all(x == NI for x in B[i]) and d[i] == NI:
            d[i] = finite()
    for j in range(n):
        if all(A[i][j] == NI for i in range(m)):
            A[draw(st.integers(0, m - 1))][j] = finite()
    if all(x == NI for x in c):
        c[draw(st.integers(0, m - 1))] = finite()
    return {
        "objective": draw(st.sampled_from(("minimize", "maximize"))),
        "A": A, "B": B, "c": c, "d": d,
        "p": [entry() for _ in range(n)], "q": [entry() for _ in range(n)],
        "r": entry(), "s": entry(),
    }


@given(instance_documents())
def test_self_issued_certificates_pass_the_independent_check(doc):
    inst = parse_instance(doc).instance
    H = homogenize(inst)
    answers = set()
    for method in ("newton", "bisection", "negative-newton"):
        out = solve(inst, method=method)
        answers.add((out.status, out.lam))
        if out.certificate is None:
            continue
        doc = serialize_certificate(out.certificate)
        keys = OPTIMALITY_POTENTIALS if out.status == "Optimal" else UNBOUNDEDNESS_POTENTIALS
        assert all(len(doc[key]) == H.n + 1 for key in keys)
        cert = parse_certificate(json.loads(json.dumps(doc)), H.m, H.n)
        assert all(getattr(cert, key) is not None for key in keys)
        check = check_optimality if out.status == "Optimal" else check_unboundedness
        result = check(H, cert)
        assert result, result.reason
    assert len(answers) == 1


# --- the array check and the loops ------------------------------------------


def _dense_program(rng, n, entry):
    """An all-finite n x n program with entries entry(rng) and d >= c, so
    very negative x is feasible and it has an optimum, as in criterion 10."""
    c = [entry(rng) for _ in range(n)]
    d = [ci + abs(entry(rng)) for ci in c]

    def grid():
        return [[fin(entry(rng)) for _ in range(n)] for _ in range(n)]

    return LfpInstance(grid(), grid(), [fin(x) for x in c], [fin(x) for x in d],
                       [fin(entry(rng)) for _ in range(n)], [fin(entry(rng)) for _ in range(n)],
                       fin(entry(rng)), fin(entry(rng)))


def _rational_entry(rng):
    k = rng.randint(1, 12)
    return Fraction(rng.randint(-1000 * k, 1000 * k), k)


def _past_int64_entry(rng):
    return rng.randint(-50, 50) * 2**64 + rng.randint(-3, 3)


def _optimal_certificates():
    """(family, H, certificate) of self-issued optimality certificates:
    tiny programs, two of criterion 10's 50 x 50 ones, 16 x 16 rational
    ones, and 12 x 12 ones whose entries pass int64."""
    from test_acceptance import criterion_10_instances

    rng = random.Random(131)
    families = {
        "tiny": (random_instance(rng, rng.randint(1, 4), rng.randint(1, 4), 5, 0.4) for _ in range(40)),
        "50x50": islice(criterion_10_instances(), 2),
        "rational": (_dense_program(rng, 16, _rational_entry) for _ in range(2)),
        "past-int64": (_dense_program(rng, 12, _past_int64_entry) for _ in range(2)),
    }
    for family, programs in families.items():
        for inst in programs:
            out = solve(inst)
            if out.status == "Optimal":
                yield family, homogenize(inst), out.certificate


def _one_mutation_each(H, cert):
    """cert, and copies with one change each: a potential raised far (every
    arc out of it breaks) or erased (every arc into it), in both vectors;
    one witness coordinate moved by 1/7, or set to +inf; one tau move; and
    lambda* raised, which raises every arc out of the nodes tau sends to
    row m+1, so that arcs of several rows and columns break at once."""
    yield cert
    for delta in (Fraction(1, 7), Fraction(1)):
        yield replace(cert, lam=cert.lam + delta)
    for key in OPTIMALITY_POTENTIALS:
        z = getattr(cert, key)
        finite = [v for v, x in enumerate(z[:-1]) if x is not None]
        for v in finite[:1] + finite[-1:]:
            yield replace(cert, **{key: z[:v] + (z[v] + 10**6,) + z[v + 1:]})
            yield replace(cert, **{key: z[:v] + (None,) + z[v + 1:]})
    y = cert.witness
    for j in [j for j in range(H.n) if y[j].is_finite][:2]:
        for moved in (fin(y[j].value + Fraction(1, 7)), fin(y[j].value - Fraction(1, 7)), POS_INF):
            yield replace(cert, witness=y[:j] + (moved,) + y[j + 1:])
    tau = cert.tau.choices
    for j, i in enumerate(tau):
        others = [k for k in range(H.m + 1) if k != i and H.U[k][j] is not None]
        if others:
            yield replace(cert, tau=MinStrategy(tau[:j] + (others[0],) + tau[j + 1:]))
            break


def test_the_array_check_returns_what_the_loops_return():
    """Both check paths, called directly whatever the game's size, return
    equal CheckResults on every self-issued certificate and on copies with
    one mutation each: the same verdict, reason and first broken arc.  The
    array path declines every certificate whose entries pass int64."""
    from troplf.certify import _check_optimality_arrays, _check_optimality_loops

    reasons, families = Counter(), Counter()
    for family, H, cert in _optimal_certificates():
        families[family] += 1
        for mutant in _one_mutation_each(H, cert):
            expected = _check_optimality_loops(H, mutant)
            result = _check_optimality_arrays(H, mutant)
            if family == "past-int64":  # past the int64 bound: the loops decide
                assert result is None and check_optimality(H, mutant) == expected, mutant
            else:
                assert result == expected, (family, mutant)
            reasons[expected.reason.split(": the arc")[0]] += 1
    assert set(families) == {"tiny", "50x50", "rational", "past-int64"}, families
    every = {"", "potentials", "strict_potentials", VIOLATES}
    assert every <= set(reasons), every - set(reasons)


def test_certificates_past_int64_take_the_loops(monkeypatch):
    """A certificate whose payments, potentials or witness numerators pass
    the int64 bound, and a mutated copy of each, get the loops' verdict and
    reason: the array check declines them, or the game is too small for it."""
    from troplf import certify
    from test_acceptance import criterion_10_instances

    declined = []
    arrays = certify._check_optimality_arrays

    def spy(H, cert):
        result = arrays(H, cert)
        declined.append(result is None)
        return result

    monkeypatch.setattr(certify, "_check_optimality_arrays", spy)

    def same_as_loops(H, cert):
        declined.clear()
        result = check_optimality(H, cert)
        assert result == certify._check_optimality_loops(H, cert)
        assert all(declined)
        return result, bool(declined)

    inst = make_instance(A=[[0]], B=[[0]], c=[0], d=[0], p=[0], q=[2**70], r=0, s="-inf")
    H = homogenize(inst)
    cert = solve(inst).certificate
    assert same_as_loops(H, cert) == (CheckResult(True), False)
    assert not same_as_loops(H, replace(cert, lam=Fraction(0)))[0]

    inst = next(criterion_10_instances())
    H, cert = homogenize(inst), solve(inst).certificate
    shifted = tuple(None if x is None else x + 2**62 for x in cert.potentials)
    assert same_as_loops(H, replace(cert, potentials=shifted)) == (CheckResult(True), True)
    lowered = shifted[:-1] + (shifted[-1] - 1,)
    result, asked = same_as_loops(H, replace(cert, potentials=lowered))
    assert not result and result.reason.startswith("potentials: the arc ") and asked
    y = cert.witness
    j = next(j for j in range(H.n) if y[j].is_finite)
    tiny = fin(y[j].value - Fraction(1, 2**62 + 1))
    assert same_as_loops(H, replace(cert, witness=y[:j] + (tiny,) + y[j + 1:]))[1]

    rng = random.Random(137)
    for _ in range(5):
        inst = _dense_program(rng, 16, _past_int64_entry)
        out = solve(inst)
        if out.status == "Optimal":
            break
    H, cert = homogenize(inst), out.certificate
    assert same_as_loops(H, cert) == (CheckResult(True), True)
    z = cert.strict_potentials
    erased = z[:1] + (None,) + z[2:]
    assert same_as_loops(H, replace(cert, strict_potentials=erased))[1]

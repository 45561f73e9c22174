"""Seeded instance documents for the benchmark workloads.

Every generator returns JSON-ready instance documents in the original form
``{A, B, c, d, p, q, r, s, objective}``: entries are ints, rational strings
such as ``"7/12"``, or ``"-inf"``.  The program under test only ever sees
these documents.
"""

from __future__ import annotations

import random
from fractions import Fraction

NI = "-inf"


def token(x):
    """A Fraction/int/None as a document entry."""
    if x is None:
        return NI
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def value(tok):
    return None if tok == NI else Fraction(tok)


def well_posed(doc: dict) -> bool:
    """The program's standing assumptions on the homogeneous constraint
    block: every row of [B|d], every column of [[A],[p]] and the column
    [[c],[r]] hold a finite entry, where (p, r) is the numerator after a
    maximization has swapped it with the denominator (q, s)."""
    A, B = doc["A"], doc["B"]
    p, r = (doc["q"], doc["s"]) if doc.get("objective") == "maximize" else (doc["p"], doc["r"])
    m, n = len(A), len(p)
    if any(all(x == NI for x in B[i]) and doc["d"][i] == NI for i in range(m)):
        return False
    if any(all(A[i][j] == NI for i in range(m)) and p[j] == NI for j in range(n)):
        return False
    return not (all(x == NI for x in doc["c"]) and r == NI)


def _doc(A, B, c, d, p, q, r, s, objective="minimize") -> dict:
    return {
        "A": [[token(x) for x in row] for row in A],
        "B": [[token(x) for x in row] for row in B],
        "c": [token(x) for x in c],
        "d": [token(x) for x in d],
        "p": [token(x) for x in p],
        "q": [token(x) for x in q],
        "r": token(r),
        "s": token(s),
        "objective": objective,
    }


def criterion10_family(count: int) -> list:
    """The first ``count`` all-finite 50x50 instances, M = 500, of the
    scaling gate (``random.Random(100)``): d >= c keeps very negative x
    feasible, so every instance has an optimum and Newton runs."""
    rng = random.Random(100)
    n, M = 50, 500
    out = []
    for _ in range(count):
        c = [rng.randint(-M, M) for _ in range(n)]
        d = [rng.randint(ci, M) for ci in c]
        A = [[rng.randint(-M, M) for _ in range(n)] for _ in range(n)]
        B = [[rng.randint(-M, M) for _ in range(n)] for _ in range(n)]
        p = [rng.randint(-M, M) for _ in range(n)]
        q = [rng.randint(-M, M) for _ in range(n)]
        out.append(_doc(A, B, c, d, p, q, rng.randint(-M, M), rng.randint(-M, M)))
    return out


def relabel(doc: dict, rng: random.Random, spread: int) -> dict:
    """An equivalent instance: rows and variables permuted, each constraint
    row shifted by a_i, each variable by b_j and the objective's numerator
    and denominator by one t, all integers in [-spread, spread].

    x'_j = x_pi(j) + b_j maps feasible points to feasible points with the
    same objective, so the optimum is unchanged while every number and
    every index the program sees is new.
    """
    A, B = doc["A"], doc["B"]
    m, n = len(A), len(doc["p"])
    rows = rng.sample(range(m), m)
    cols = rng.sample(range(n), n)
    a = [rng.randint(-spread, spread) for _ in range(m)]
    b = [rng.randint(-spread, spread) for _ in range(n)]
    t = rng.randint(-spread, spread)

    def shift(tok, k):
        x = value(tok)
        return None if x is None else x + k

    return _doc(
        [[shift(A[rows[i]][cols[j]], a[i] - b[j]) for j in range(n)] for i in range(m)],
        [[shift(B[rows[i]][cols[j]], a[i] - b[j]) for j in range(n)] for i in range(m)],
        [shift(doc["c"][rows[i]], a[i]) for i in range(m)],
        [shift(doc["d"][rows[i]], a[i]) for i in range(m)],
        [shift(doc["p"][cols[j]], t - b[j]) for j in range(n)],
        [shift(doc["q"][cols[j]], t - b[j]) for j in range(n)],
        shift(doc["r"], t),
        shift(doc["s"], t),
        doc.get("objective", "minimize"),
    )


def random_lfp(rng: random.Random, m: int, n: int, M: int, density: float, objective="minimize") -> dict:
    """A well-posed sparse integer instance: each entry is -inf with
    probability ``density``, else uniform in [-M, M]; resampled until the
    standing assumptions hold."""
    while True:
        def ent():
            return None if rng.random() < density else rng.randint(-M, M)

        doc = _doc(
            [[ent() for _ in range(n)] for _ in range(m)],
            [[ent() for _ in range(n)] for _ in range(m)],
            [ent() for _ in range(m)],
            [ent() for _ in range(m)],
            [ent() for _ in range(n)],
            [ent() for _ in range(n)],
            ent(),
            ent(),
            objective,
        )
        if well_posed(doc):
            return doc


def sparse_small(rng: random.Random, m: int, n: int) -> dict:
    """m x n (the workload uses 1..8), M = 10, 40% -inf entries; one in four
    maximizes."""
    objective = "maximize" if rng.random() < 0.25 else "minimize"
    return random_lfp(rng, m, n, 10, 0.4, objective)


def tiny(rng: random.Random, m: int, n: int, M: int) -> dict:
    """m x n with entries in [-M, M] (the workload uses 1..2 for each) and
    30% -inf entries, as in the spectral structure criterion, with a finite
    entry in the denominator (q, s) so the parametric game is defined.

    Instances whose finite entries are all 0 are drawn again: on them
    ``spectral.reconstruct`` returns one flat piece although phi has slope
    1/k on one side of 0 (its grid shrinks to the single point 0), a known
    fault that would fail only the seeds that happen to draw one."""
    while True:
        doc = random_lfp(rng, m, n, M, 0.3)
        entries = [x for key in "ABcdpqrs" for x in _flat(doc[key]) if x != NI]
        if (doc["s"] != NI or any(x != NI for x in doc["q"])) and any(x != 0 for x in entries):
            return doc


def _flat(x) -> list:
    if isinstance(x, list):
        return [y for item in x for y in _flat(item)]
    return [x]


def rational_30(rng: random.Random) -> dict:
    """A sparse 30 x 30 instance with rational entries up to 10^6 in size and
    denominators up to 12 (half of A and B is -inf).  c, d, p, q, r, s are
    finite and d >= c, so very negative x is feasible with a finite
    objective: the outcome is never infeasible."""
    n, magnitude = 30, 10**6

    def rat():
        k = rng.randint(1, 12)
        return Fraction(rng.randint(-magnitude * k, magnitude * k), k)

    def sparse():
        return None if rng.random() < 0.5 else rat()

    c = [rat() for _ in range(n)]
    d = [ci + abs(rat()) for ci in c]
    return _doc(
        [[sparse() for _ in range(n)] for _ in range(n)],
        [[sparse() for _ in range(n)] for _ in range(n)],
        c,
        d,
        [rat() for _ in range(n)],
        [rat() for _ in range(n)],
        rat(),
        rat(),
    )

"""Record the solver's answers on fixed instance families, and compare two records.

A change that should not move any optimum is checked by recording the
parent commit's answers and the change's, then comparing:

    python3 tests/record_answers.py record parent.jsonl PARENT_CHECKOUT
    python3 tests/record_answers.py record change.jsonl
    python3 tests/record_answers.py compare parent.jsonl change.jsonl

``record`` imports ``troplf`` from the ``src/`` of the checkout given (by
default the one this file is in), and always takes the instance families
from this file's own tests, so both records cover the same instances.  It
writes one JSON line per record.  A solve record has the family, the
instance index, the method, the status, lambda*, the witness, the
serialized certificate, whether ``troplf check`` accepts that certificate,
the trace and the oracle's work (``SolveOutcome.stats``: runs, memo hits,
rounds, ranked rounds, runs on Python ints, and the runs started from
value steps with those steps); a solve that raises has
the exception as its status, and so does a document the checkout refuses
to parse.  A ``reconstruct`` record has the spectral function's pieces and
the oracle's work.  The random families come from the acceptance
criteria's own generators in ``test_acceptance``:

* ``examples``: data/example{1,2,3}.json by all three methods;
* ``criterion-6``: the 200 instances of acceptance criterion 6, all methods;
* ``criterion-9``: the first 120 draws of criterion 9, all methods;
* ``criterion-10``: the 20 instances of criterion 10, by Newton;
* ``solve-rational-bigint-30``: the 60 instances of the benchmark's
  ``rational-bigint-30`` workload at seed 1, by Newton;
* ``big-payments``: the first 6 documents of the benchmark's
  ``dense-newton-50`` workload at seed 1 with every finite entry times
  2^40 (indices ``2^40/i``) and times 2^70 (``2^70/i``), by Newton: runs
  that start on int64 and move to Python ints, and runs on Python ints
  throughout;
* ``solve-sparse-mixed-small``: the first 256 documents of the benchmark's
  ``sparse-mixed-small`` workload at seed 1, all methods (negative Newton
  and the degenerate prechecks on sparse instances with -inf entries);
* ``degenerate-denominator``: 200 seeded sparse instances up to 6 x 6 whose
  denominator row v is identically -inf, u drawn in each of
  ``test_solver.U_MODES`` in turn, all methods;
* ``zero-entries``: ``test_solver.zero_entries_instances()``, 200 seeded
  programs up to 3 x 3 with entries in {0, -inf} (M = 0, so an Optimal
  lambda* is the lower bound 0), then the programs with no constraint rows
  (``test_cli_io.NO_ROWS_DOCS``), all methods;
* ``newton-lam0``: examples 1-3 (indices ``example1`` to ``example3``) and
  the criterion-6 instances plain Newton solves as Optimal (indices
  ``criterion-6/i``), by Newton from two rational starts above plain
  Newton's lambda*, in the scaled units the solver iterates in: lambda* +
  1/(min(m,n)+3), closer than the 1/(min(m,n)+2) of the left-optimal
  strategy's perturbed game, and lambda* + 1/2; the record's method names
  its start;
* ``reconstruct-examples`` and ``reconstruct-criterion-7``: the pieces of
  the spectral function of examples 1-3 and of criterion 7's 50 instances;
* ``reconstruct-spectral-small``: the pieces of the 320 instances of the
  benchmark's ``spectral-small`` workload at seed 1.

The benchmark's documents are generated by ``bench/run.py``, loaded as
``tests/test_bench_run.py`` loads it.

``compare`` prints, per family, the records whose status, lambda* or
pieces differ (an error: it exits 1), those whose only difference is a
certificate's potential vectors (present on one side only, or with other
values), those that differ elsewhere (witness, strategy or trace, where
another optimal strategy came back), counted by method, status and the
fields that differ, the certificates either record's checker rejected, and
each method's total trace length (for Newton, its steps) and total oracle
work, reconstruct's included.  The oracle's work is not part of the
answer: it is left out of the differences and shown only in those totals.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter, defaultdict
from dataclasses import asdict
from fractions import Fraction
from itertools import islice
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
METHODS = ("newton", "bisection", "negative-newton")
# newton-lam0's starts, by method name: each start's offset from lambda*
# (scaled), given min(m,n).
LAM0_OFFSETS = {
    "newton from lambda*+1/(min(m,n)+3)": lambda k: Fraction(1, k + 3),
    "newton from lambda*+1/2": lambda k: Fraction(1, 2),
}
# The optional potential vectors of the certificate documents.
POTENTIAL_KEYS = ("potentials", "strict_potentials", "through_potentials", "negated_potentials")


def _families():
    """(family, index, source, methods) for every solve record, and
    (family, index, source) for every reconstruct record, in order.  A
    source is an LfpInstance or a document for ``_instance`` to parse.  The
    acceptance criteria's own generators give the random families."""

    from test_acceptance import (
        criterion_6_instances,
        criterion_7_instances,
        criterion_9_draws,
        criterion_10_instances,
    )
    from test_bench_run import _load_run
    from test_cli_io import NO_ROWS_DOCS
    from test_solver import U_MODES, sparse_instance, zero_entries_instances

    examples = []
    for k in (1, 2, 3):
        with open(ROOT / "data" / f"example{k}.json", encoding="utf-8") as fh:
            examples.append(json.load(fh))
    solves = [("examples", k, doc, METHODS) for k, doc in enumerate(examples, 1)]
    solves += [("criterion-6", i, inst, METHODS) for i, inst in enumerate(criterion_6_instances())]
    solves += [("criterion-9", i, inst, METHODS)
               for i, inst in enumerate(islice(criterion_9_draws(), 120))]
    solves += [("criterion-10", i, inst, ("newton",))
               for i, inst in enumerate(criterion_10_instances())]
    run = _load_run()
    pool = run.RationalBigint30()
    solves += [("solve-rational-bigint-30", i, pool.instance(1, i), ("newton",))
               for i in range(pool.setup_count)]
    pool = run.DenseNewton50()
    solves += [("big-payments", f"2^{e}/{i}", _scaled(pool.instance(1, i), 2**e), ("newton",))
               for e in (40, 70) for i in range(6)]
    pool = run.SparseMixedSmall()
    solves += [("solve-sparse-mixed-small", i, pool.instance(1, i), METHODS)
               for i in range(256)]
    rng = random.Random(15)
    solves += [("degenerate-denominator", i,
                sparse_instance(rng, U_MODES[i % len(U_MODES)], v_neg_inf=True, size=6), METHODS)
               for i in range(200)]
    zeros = zero_entries_instances() + [doc for doc, _optimum in NO_ROWS_DOCS]
    solves += [("zero-entries", i, inst, METHODS) for i, inst in enumerate(zeros)]
    solves += [("newton-lam0", f"example{k}", doc, tuple(LAM0_OFFSETS))
               for k, doc in enumerate(examples, 1)]
    solves += [("newton-lam0", f"criterion-6/{i}", inst, tuple(LAM0_OFFSETS))
               for i, inst in enumerate(criterion_6_instances())]
    rebuilds = [("reconstruct-examples", k, doc) for k, doc in enumerate(examples, 1)]
    rebuilds += [("reconstruct-criterion-7", i, inst)
                 for i, inst in enumerate(criterion_7_instances())]
    pool = run.SpectralSmall()
    rebuilds += [("reconstruct-spectral-small", i, pool.instance(1, i))
                 for i in range(pool.setup_count)]
    return solves, rebuilds


def _scaled(doc: dict, factor: int) -> dict:
    """doc with every finite entry times factor; the entries of the
    benchmark's dense documents are ints."""

    def scaled(v):
        if isinstance(v, list):
            return [scaled(x) for x in v]
        return v * factor if isinstance(v, int) else v

    return {k: scaled(v) for k, v in doc.items()}


def _instance(source):
    """source as an LfpInstance, parsed by the checkout when a document."""
    from troplf.cli_io import parse_instance

    return parse_instance(source).instance if isinstance(source, dict) else source


def record(path: str) -> None:
    from troplf import certify, homogenize, reconstruct, solve
    from troplf.cli_io import format_entry, parse_certificate, serialize_certificate

    solves, rebuilds = _families()
    with open(path, "w", encoding="utf-8") as out:
        for family, index, source, methods in solves:
            for method in methods:
                try:
                    inst = _instance(source)
                    if method in LAM0_OFFSETS:
                        plain = solve(inst, method="newton")
                        if plain.status != "Optimal":
                            continue  # newton-lam0 starts above an optimum only
                        k = min(inst.m, inst.n)
                        lam0 = plain.lam + LAM0_OFFSETS[method](k) / inst.scale
                        res = solve(inst, method="newton", lam0=lam0)
                    else:
                        res = solve(inst, method=method)
                except Exception as exc:  # recorded as the status, so compare shows it
                    out.write(json.dumps({
                        "family": family, "index": index, "method": method,
                        "status": f"raised {type(exc).__name__}: {exc}", "trace": [],
                    }) + "\n")
                    continue
                cert, accepted = None, None
                if res.certificate is not None:
                    cert = serialize_certificate(res.certificate)
                    H = homogenize(inst)
                    parsed = parse_certificate(json.loads(json.dumps(cert)), H.m, H.n)
                    check = (certify.check_optimality if cert["type"] == "optimality"
                             else certify.check_unboundedness)
                    accepted = bool(check(H, parsed))
                rec = {
                    "family": family, "index": index, "method": method,
                    "status": res.status, "lam": None if res.lam is None else str(res.lam),
                    "witness": None if res.witness is None else [format_entry(e) for e in res.witness],
                    "certificate": cert, "accepted": accepted,
                    "trace": [[k, str(lam), sign] for k, lam, sign in res.trace],
                    "stats": asdict(res.stats),
                }
                out.write(json.dumps(rec) + "\n")
        for family, index, source in rebuilds:
            H = homogenize(_instance(source))
            pieces = [
                [format_entry(p.lo) if p.lo.kind != 1 else "+inf",
                 format_entry(p.hi) if p.hi.kind != 1 else "+inf",
                 str(p.alpha), p.beta, p.k]
                for p in reconstruct(H)
            ]
            # A checkout whose instance keeps its games in a separate object
            # has the stats on that object, its ``oracle`` attribute.
            stats = getattr(H, "oracle", H).stats
            out.write(json.dumps({"family": family, "index": index, "pieces": pieces,
                                  "stats": asdict(stats)}) + "\n")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    return {(r["family"], r["index"], r.get("method")): r for r in recs}


def _answer(rec: dict) -> dict:
    """rec without its oracle stats, which are work, not answer."""
    return {k: v for k, v in rec.items() if k != "stats"}


def _without_potentials(rec: dict) -> dict:
    """rec with its certificate's potential vectors dropped."""
    cert = rec.get("certificate")
    if not cert:
        return rec
    return {**rec, "certificate": {k: v for k, v in cert.items() if k not in POTENTIAL_KEYS}}


def compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        print("the records cover different instances")
        return 1
    total = defaultdict(int)
    answer = defaultdict(list)
    potentials = defaultdict(list)
    other = defaultdict(Counter)  # (method, status, differing fields) -> records
    rejected = defaultdict(list)
    traces = defaultdict(dict)  # family -> method -> [trace length a, b]
    work = defaultdict(dict)  # family -> method -> [summed stats a, b]
    for key in a:
        ra, rb = _answer(a[key]), _answer(b[key])
        family = key[0]
        total[family] += 1
        if (ra.get("status"), ra.get("lam"), ra.get("pieces")) != (
            rb.get("status"), rb.get("lam"), rb.get("pieces")
        ):
            answer[family].append(key)
        elif _without_potentials(ra) != _without_potentials(rb):
            pa, pb = _without_potentials(ra), _without_potentials(rb)
            fields = ", ".join(k for k in pa if pa[k] != pb[k])
            other[family][key[2], ra["status"], fields] += 1
        elif ra != rb:
            potentials[family].append(key)
        if False in (ra.get("accepted"), rb.get("accepted")):
            rejected[family].append(key)
        if key[2] is not None:
            lengths = traces[family].setdefault(key[2], [0, 0])
            lengths[0] += len(ra["trace"])
            lengths[1] += len(rb["trace"])
        sums = work[family].setdefault(key[2] or "reconstruct", [Counter(), Counter()])
        sums[0].update(a[key].get("stats", {}))
        sums[1].update(b[key].get("stats", {}))
    for family in total:
        line = (f"{family}: {total[family]} records, {len(answer[family])} with another "
                f"status, lambda* or pieces, {len(potentials[family])} differing only in "
                f"potentials, {sum(other[family].values())} differing elsewhere, "
                f"{len(rejected[family])} rejected certificates")
        if family in traces:
            line += "; trace lengths " + ", ".join(
                f"{method} {a} -> {b}" for method, (a, b) in traces[family].items())
        print(line)
        for method, (sa, sb) in work[family].items():
            print(f"  oracle work, {method}: " + ", ".join(
                f"{name} {sa[name]} -> {sb[name]}" for name in sorted(sa.keys() | sb.keys())))
        for (method, status, fields), count in sorted(other[family].items()):
            print(f"  elsewhere: {count} {method} {status} records differing in {fields}")
        for key in answer[family] + rejected[family]:
            print(f"  {key}")
    return 1 if any(answer.values()) or any(rejected.values()) else 0


def main(argv) -> int:
    if argv[:1] == ["record"] and len(argv) in (2, 3):
        checkout = Path(argv[2]) if len(argv) == 3 else ROOT
        sys.path[:0] = [str(checkout / "src"), str(TESTS)]
        record(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
and the trace.  A ``reconstruct`` record has the spectral function's
pieces.  The random families come from the acceptance criteria's own
generators in ``test_acceptance``:

* ``examples``: data/example{1,2,3}.json by all three methods;
* ``criterion-6``: the 200 instances of acceptance criterion 6, all methods;
* ``criterion-9``: the first 120 draws of criterion 9, all methods;
* ``criterion-10``: the 20 instances of criterion 10, by Newton;
* ``reconstruct-examples`` and ``reconstruct-criterion-7``: the pieces of
  the spectral function of examples 1-3 and of criterion 7's 50 instances.

``compare`` prints, per family, the records whose status, lambda* or
pieces differ (an error: it exits 1), those that differ only elsewhere (witness,
certificate or trace, where another optimal strategy came back), the
certificates either record's checker rejected, and the Newton step totals.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from itertools import islice
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
METHODS = ("newton", "bisection", "negative-newton")


def _families():
    """(family, index, LfpInstance, methods) for every solve record, and
    (family, index, LfpInstance) for every reconstruct record, in order.
    The acceptance criteria's own generators give the random families."""
    from troplf.cli_io import parse_instance

    from test_acceptance import (
        criterion_6_instances,
        criterion_7_instances,
        criterion_9_draws,
        criterion_10_instances,
    )

    examples = []
    for k in (1, 2, 3):
        with open(ROOT / "data" / f"example{k}.json", encoding="utf-8") as fh:
            examples.append(parse_instance(json.load(fh)).instance)
    solves = [("examples", k, inst, METHODS) for k, inst in enumerate(examples, 1)]
    solves += [("criterion-6", i, inst, METHODS) for i, inst in enumerate(criterion_6_instances())]
    solves += [("criterion-9", i, inst, METHODS)
               for i, inst in enumerate(islice(criterion_9_draws(), 120))]
    solves += [("criterion-10", i, inst, ("newton",))
               for i, inst in enumerate(criterion_10_instances())]
    rebuilds = [("reconstruct-examples", k, inst) for k, inst in enumerate(examples, 1)]
    rebuilds += [("reconstruct-criterion-7", i, inst)
                 for i, inst in enumerate(criterion_7_instances())]
    return solves, rebuilds


def record(path: str) -> None:
    from troplf import certify, homogenize, reconstruct, solve
    from troplf.cli_io import format_entry, parse_certificate, serialize_certificate

    solves, rebuilds = _families()
    with open(path, "w", encoding="utf-8") as out:
        for family, index, inst, methods in solves:
            for method in methods:
                res = solve(inst, method=method)
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
                }
                out.write(json.dumps(rec) + "\n")
        for family, index, inst in rebuilds:
            pieces = [
                [format_entry(p.lo) if p.lo.kind != 1 else "+inf",
                 format_entry(p.hi) if p.hi.kind != 1 else "+inf",
                 str(p.alpha), p.beta, p.k]
                for p in reconstruct(homogenize(inst))
            ]
            out.write(json.dumps({"family": family, "index": index, "pieces": pieces}) + "\n")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    return {(r["family"], r["index"], r.get("method")): r for r in recs}


def compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        print("the records cover different instances")
        return 1
    total = defaultdict(int)
    answer = defaultdict(list)
    other = defaultdict(list)
    rejected = defaultdict(list)
    steps = defaultdict(lambda: [0, 0])
    for key in a:
        ra, rb = a[key], b[key]
        family = key[0]
        total[family] += 1
        if (ra.get("status"), ra.get("lam"), ra.get("pieces")) != (
            rb.get("status"), rb.get("lam"), rb.get("pieces")
        ):
            answer[family].append(key)
        elif ra != rb:
            other[family].append(key)
        if False in (ra.get("accepted"), rb.get("accepted")):
            rejected[family].append(key)
        if key[2] == "newton":
            steps[family][0] += len(ra["trace"])
            steps[family][1] += len(rb["trace"])
    for family in total:
        line = (f"{family}: {total[family]} records, {len(answer[family])} with another "
                f"status, lambda* or pieces, {len(other[family])} differing elsewhere, "
                f"{len(rejected[family])} rejected certificates")
        if family in steps:
            line += f"; Newton steps {steps[family][0]} -> {steps[family][1]}"
        print(line)
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

"""Fuzz the solver on random programs: all three methods, every certificate
checked twice, every check under a time limit.

    python3 tests/fuzz_solve.py [--seed 1] [--count 500] [--time-limit 10]

Each program is a random instance document:

* mostly up to 7 x 7, and one in ``LARGE_EVERY`` from 16 x 16 to 24 x 24,
  whose parametric games have at least ``VALUE_STEP_ENTRIES`` entries per
  grid, so their runs start from value steps, warm runs from the last
  run's biases;
* entries small (|x| <= 5 or <= 100), or those times 2^40 or 2^70, so that
  runs start on int64 and move to Python ints or run on Python ints
  throughout; rational entries with denominators up to 7 in some programs;
* -inf with probability 0, 0.3 or 0.6, and either objective.

A program that ``troplf`` refuses to parse is redrawn.  Each is solved by
Newton, bisection and negative Newton; the methods must agree on the status
and on lambda*.  Every certificate is written out and must be accepted by
``troplf check`` (``cli_io.main``, as the command line runs it), and every
outcome must pass the benchmark's own check (``bench/run.py``'s
``Run.verify`` on ``bench/checks.py``, imported and not edited), which
checks a certificate with its own code and an outcome without one by
``max_support``.  That search can run for minutes on big entries, so each
check runs under a ``--time-limit`` alarm, and a check that runs out of
time is listed as slow, not passed and not failed.

The output lists every failure (a crash, a disagreement between methods, a
rejected certificate or outcome) and every slow check, each with the seed
and index that redraw its program, then a summary line.  The exit status is
1 when anything failed.  Uses ``signal.setitimer``, so it runs on Unix.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import signal
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from troplf import cli_io, solver  # noqa: E402

from test_bench_run import _load_run  # noqa: E402

METHODS = ("newton", "bisection", "negative-newton")
LARGE_EVERY = 10


class Slow(Exception):
    """A check ran out of its time limit."""


def _alarm(_signum, _frame):
    raise Slow


def timed(limit: float, check, *args):
    """check(*args), or Slow once it has run for ``limit`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return check(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def random_document(rng: random.Random) -> dict:
    """A random instance document, as the module docstring lists them."""
    if rng.randrange(LARGE_EVERY) == 0:
        m = n = rng.randint(16, 24)
    else:
        m, n = rng.randint(1, 7), rng.randint(1, 7)
    M = rng.choice((5, 100))
    factor = rng.choice((1, 1, 2**40, 2**70))
    den = rng.choice((1, 1, 7))
    density = rng.choice((0.0, 0.3, 0.6))

    def entry():
        if rng.random() < density:
            return "-inf"
        x = Fraction(rng.randint(-M, M) * factor, rng.randint(1, den))
        return x.numerator if x.denominator == 1 else str(x)

    return {
        "objective": rng.choice(("minimize", "maximize")),
        "A": [[entry() for _ in range(n)] for _ in range(m)],
        "B": [[entry() for _ in range(n)] for _ in range(m)],
        "c": [entry() for _ in range(m)],
        "d": [entry() for _ in range(m)],
        "p": [entry() for _ in range(n)],
        "q": [entry() for _ in range(n)],
        "r": entry(),
        "s": entry(),
    }


def troplf_check(tmp: Path, doc: dict, cert_doc: dict) -> str:
    """``troplf check``'s verdict line on the document and certificate."""
    (tmp / "instance.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp / "cert.json").write_text(json.dumps(cert_doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_io.main(["check", str(tmp / "instance.json"), str(tmp / "cert.json")])
    return out.getvalue().strip()


def fuzz(seed: int, count: int, limit: float) -> int:
    run = _load_run()
    checks = run.checks
    rng = random.Random(seed)
    tally = Counter()
    failures, slow = [], []
    signal.signal(signal.SIGALRM, _alarm)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        index = 0
        while index < count:
            doc = random_document(rng)
            try:
                parsed = cli_io.parse_instance(doc)
            except cli_io.DocumentError:
                tally["redrawn"] += 1
                continue
            where = f"seed {seed} program {index}"
            index += 1
            tally["large" if parsed.instance.n >= 16 else "small"] += 1
            answers = {}
            for method in METHODS:
                try:
                    out = solver.solve(parsed.instance, method=method)
                except Exception as exc:  # a crash on valid input
                    failures.append(f"{where} {method}: {type(exc).__name__}: {exc}")
                    continue
                tally["solves"] += 1
                tally[out.status] += 1
                tally["seeded_runs"] += out.stats.seeded_runs
                answers[method] = (out.status, out.lam)
                cert_doc = None
                if out.certificate is not None:
                    cert_doc = json.loads(json.dumps(cli_io.serialize_certificate(out.certificate)))
                    try:
                        verdict = timed(limit, troplf_check, tmp, doc, cert_doc)
                        tally["troplf checks"] += 1
                        if verdict != "accept":
                            failures.append(f"{where} {method}: troplf check: {verdict}")
                    except Slow:
                        slow.append(f"{where} {method}: troplf check ran past {limit} s")
                try:
                    reason = timed(limit, run.Run.verify, checks.Homogeneous(doc), out, cert_doc)
                    tally["bench checks"] += 1
                    if reason is not None:
                        failures.append(f"{where} {method} {out.status}: bench check: {reason}")
                except Slow:
                    slow.append(f"{where} {method} {out.status}: bench check ran past {limit} s")
            if len(set(answers.values())) > 1:
                failures.append(f"{where}: the methods disagree: {answers}")
    for line in failures:
        print(f"FAILED {line}")
    for line in slow:
        print(f"SLOW {line}")
    print(f"seed {seed}: {count} programs ({tally['small']} small, {tally['large']} large, "
          f"{tally['redrawn']} redrawn), {tally['solves']} solves "
          f"({tally['Optimal']} Optimal, {tally['Unbounded']} Unbounded, "
          f"{tally['Infeasible']} Infeasible; {tally['seeded_runs']} seeded runs), "
          f"{tally['troplf checks']} troplf checks, {tally['bench checks']} bench checks, "
          f"{len(slow)} slow, {len(failures)} failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=500, help="programs to solve")
    ap.add_argument("--time-limit", type=float, default=10.0, help="seconds per check")
    args = ap.parse_args(argv)
    return fuzz(args.seed, args.count, args.time_limit)


if __name__ == "__main__":
    sys.exit(main())

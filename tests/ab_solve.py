"""Time two checkouts' ``solve``, or their certificate check, side by side,
in one process, or their set-up in fresh interpreters.

    python3 tests/ab_solve.py PARENT_CHECKOUT [CHANGE_CHECKOUT] \\
        --workload dense-newton-50 --seed 7 --count 20 --repeats 5 [--mode check|setup]

Each checkout's ``troplf`` is imported from its ``src/`` and kept as its own
set of ``sys.modules`` entries; before a side runs, its entries are swapped
in, so the imports that functions make at call time find that side's
modules too.  The change defaults to the checkout this file is in.  The
workload's seeded documents come from this checkout's ``bench/run.py``,
loaded as a module and not edited: instance i of the seed, for i below
``--count``, solved by each of the workload's methods.  Each side parses
every document once.  A round times one ``solve()`` per side for every
(document, method), the two sides interleaved, and which side runs first
alternates from one solve to the next and from round to round.  Both sides
must return the same status and lambda*.

With ``--mode check``, each side solves every (document, method) once, and
a round times, per certificate, the benchmark's check path: serialize,
JSON round trip, parse and check, as ``bench/run.py``'s ``Run.check`` times
it, on an instance homogenized before the clock starts.  It also times the
same path with ``homogenize`` inside the timed region, so that work moved
from the check into ``homogenize`` shows.  Both sides must return the same
verdict.

With ``--mode setup``, a round runs ``bench/run.py``'s ``SETUP_SCRIPT``,
read from the loaded module, once per side, each in a fresh interpreter
that imports the side's ``troplf`` and parses the workload's set-up
documents (its first ``setup_count`` of the seed, then examples 1-3), as
the benchmark's ``setup_s`` measures it; ``--count`` is not read.  Which
side runs first alternates from round to round, and a round is a pair.
Each fresh interpreter compiles the sources again when Python writes no
bytecode cache (``PYTHONDONTWRITEBYTECODE``), so the environment is part
of the measurement.  The clock stops when a blocking ``Popen.wait()``
returns; a wait with a timeout would poll, with sleeps of up to 50 ms, and
round every reading up to its next poll, so the time limit is a timer
thread that kills the interpreter instead.

Two runs of the benchmark are two processes, and on a small shared host
their timings can differ by more than a few-percent effect; timed in one
process, the two sides share its state.  The output gives, for each figure, each
side's [q1, median, q3] of all its times, and the paired change: per
(document, method), the ratio of the sides' median times, with the median
of those ratios and the number of pairs where the change is faster.
With ``--mode solve`` it also gives each side's ``SolveOutcome.stats``
summed over the pairs (runs, rounds, seeded runs and value steps), so an
A/B shows where a saving sits.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _troplf_entries() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "troplf" or k.startswith("troplf.")}


def _activate(entries: dict) -> None:
    """Make entries the troplf of sys.modules."""
    for name in _troplf_entries():
        del sys.modules[name]
    sys.modules.update(entries)


def load_side(checkout: Path) -> dict:
    """The sys.modules entries of checkout's troplf, imported from its src/."""
    _activate({})
    src = str(checkout / "src")
    sys.path.insert(0, src)
    try:
        import troplf
        import troplf.cli_io
        import troplf.solver  # noqa: F401
    finally:
        sys.path.remove(src)
    if Path(troplf.__file__).resolve().parent != (checkout / "src" / "troplf").resolve():
        sys.exit(f"error: troplf was imported from {troplf.__file__}, not from {src}")
    entries = _troplf_entries()
    _activate({})
    return entries


def load_run():
    """bench/run.py as a module; the path entries it adds are dropped again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    return run


def quartiles(xs) -> list:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def report(label: str, times: dict, pairs: list) -> None:
    """Each side's quartiles of all its times, and the paired change."""
    for name, per_pair in times.items():
        q = quartiles([t for ts in per_pair.values() for t in ts])
        print(f"  {name:6s} {label} s [q1, median, q3]: " + ", ".join(f"{x:.6f}" for x in q))
    ratios = [statistics.median(times["change"][p]) / statistics.median(times["parent"][p])
              for p in pairs]
    faster = sum(x < 1 for x in ratios)
    print(f"  {label} paired change: median {100 * (statistics.median(ratios) - 1):+.1f}%, "
          f"faster on {faster} of {len(ratios)} pairs")


def interleaved(sides: dict, pairs: list, repeats: int, timed) -> dict:
    """{side: {pair: [seconds]}}: ``repeats`` rounds over the pairs, where
    timed(name, entries, pair) returns (seconds, answer) for one side; the
    side that runs first alternates, and the sides must answer alike."""
    times = {name: {pair: [] for pair in pairs} for name in sides}
    names = tuple(sides)
    turn = 0
    for _ in range(repeats):
        for pair in pairs:
            answers = []
            for name in (names if turn % 2 == 0 else names[::-1]):
                _activate(sides[name])
                seconds, answer = timed(name, sides[name], pair)
                times[name][pair].append(seconds)
                answers.append(answer)
            turn += 1
            if answers[0] != answers[1]:
                sys.exit(f"error: {pair}: the sides answer {answers}")
        turn += 1
    _activate({})
    return times


def solve_timer(parsed: dict, work: dict):
    """The timer of one ``solve()``; work[side][pair] keeps that solve's
    ``SolveOutcome.stats`` (the same in every round)."""
    def timed(name, entries, pair):
        i, method = pair
        t0 = time.perf_counter()
        out = entries["troplf.solver"].solve(parsed[name][i], method=method)
        seconds = time.perf_counter() - t0
        work[name][pair] = out.stats
        return seconds, (out.status, out.lam)

    return timed


WORK = ("runs", "rounds", "seeded_runs", "value_steps")


def report_work(work: dict) -> None:
    """Each side's oracle work summed over the pairs, so that a timing
    change can be traced to runs, rounds or value steps."""
    for name, per_pair in work.items():
        totals = {k: sum(getattr(stats, k) for stats in per_pair.values()) for k in WORK}
        print(f"  {name:6s} work: " + ", ".join(f"{k} {v}" for k, v in totals.items()))


def check_timers(sides: dict, parsed: dict, pairs: list) -> tuple:
    """(the pairs with a certificate, the timer of the check path on an
    instance homogenized beforehand, the timer with homogenize inside)."""
    made = {}
    for name, entries in sides.items():
        _activate(entries)
        homogenize = entries["troplf.spectral"].homogenize
        for i, method in pairs:
            out = entries["troplf.solver"].solve(parsed[name][i], method=method)
            if out.certificate is not None:
                made[name, i, method] = out.certificate, homogenize(parsed[name][i])
    _activate({})
    kept = [p for p in pairs if all((name, *p) in made for name in sides)]

    def check(entries, cert, H):
        cli_io, certify = entries["troplf.cli_io"], entries["troplf.certify"]
        doc = json.loads(json.dumps(cli_io.serialize_certificate(cert)))
        parsed_cert = cli_io.parse_certificate(doc, H.m, H.n)
        if doc["type"] == "optimality":
            return certify.check_optimality(H, parsed_cert)
        return certify.check_unboundedness(H, parsed_cert)

    def outside(name, entries, pair):
        cert, H = made[(name, *pair)]
        t0 = time.perf_counter()
        result = check(entries, cert, H)
        return time.perf_counter() - t0, (result.accepted, result.reason)

    def inside(name, entries, pair):
        cert, _H = made[(name, *pair)]
        t0 = time.perf_counter()
        H = entries["troplf.spectral"].homogenize(parsed[name][pair[0]])
        result = check(entries, cert, H)
        return time.perf_counter() - t0, (result.accepted, result.reason)

    return kept, outside, inside


def setup_times(run, workload, seed: int, checkouts: dict, repeats: int) -> dict:
    """{side: {round: [seconds]}}: the wall time of one fresh interpreter
    per side and round running run.SETUP_SCRIPT on the workload's set-up
    documents; the side that runs first alternates from round to round."""
    examples = run.example_docs()
    docs = [workload.instance(seed, i) for i in range(workload.setup_count)]
    docs += [examples[k] for k in sorted(examples)]
    names = tuple(checkouts)
    times = {name: {} for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "setup-docs.json"
        path.write_text(json.dumps(docs), encoding="utf-8")
        for r in range(repeats):
            for name in (names if r % 2 == 0 else names[::-1]):
                argv = [sys.executable, "-c", run.SETUP_SCRIPT, str(checkouts[name] / "src"), str(path)]
                t0 = time.perf_counter()
                with subprocess.Popen(argv) as proc:
                    timer = threading.Timer(120, proc.kill)  # the time limit, in s
                    timer.start()
                    try:
                        code = proc.wait()
                        times[name][r] = [time.perf_counter() - t0]
                    finally:
                        timer.cancel()
                if code != 0:
                    sys.exit(f"error: {name}'s set-up interpreter exited with {code}")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", default="dense-newton-50")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=20, help="documents of the seed")
    ap.add_argument("--repeats", type=int, default=5, help="rounds over the documents")
    ap.add_argument("--mode", choices=("solve", "check", "setup"), default="solve")
    args = ap.parse_args(argv)

    run = load_run()
    workload = run.WORKLOADS[args.workload]()
    if args.mode == "setup":
        checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        times = setup_times(run, workload, args.seed, checkouts, args.repeats)
        print(f"{args.workload} seed {args.seed}: set-up of {workload.setup_count} documents "
              f"and examples 1-3, {args.repeats} rounds")
        report("setup", times, list(range(args.repeats)))
        return 0
    docs = [workload.instance(args.seed, i) for i in range(args.count)]
    names = ("parent", "change")
    sides = {name: load_side(path.resolve()) for name, path in zip(names, (args.parent, args.change))}
    parsed = {}
    for name, entries in sides.items():
        _activate(entries)
        parse = entries["troplf.cli_io"].parse_instance
        parsed[name] = [parse(doc).instance for doc in docs]
    _activate({})
    pairs = [(i, method) for i in range(len(docs)) for method in workload.methods]
    work = {name: {} for name in names}
    if args.mode == "solve":
        timer = solve_timer(parsed, work)
        figures = [("solve", pairs, interleaved(sides, pairs, args.repeats, timer))]
    else:
        pairs, outside, inside = check_timers(sides, parsed, pairs)
        figures = [
            ("check", pairs, interleaved(sides, pairs, args.repeats, outside)),
            ("homogenize+check", pairs, interleaved(sides, pairs, args.repeats, inside)),
        ]

    print(f"{args.workload} seed {args.seed}: {len(docs)} documents, "
          f"{len(pairs)} (document, method) pairs, {args.repeats} rounds")
    for label, kept, times in figures:
        report(label, times, kept)
    if args.mode == "solve":
        report_work(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time two checkouts' ``solve`` side by side, in one process.

    python3 tests/ab_solve.py PARENT_CHECKOUT [CHANGE_CHECKOUT] \\
        --workload dense-newton-50 --seed 7 --count 20 --repeats 5

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

Two runs of the benchmark are two processes, and on a small shared host
their timings can differ by more than a few-percent effect; timed in one
process, the two sides share its state.  The output gives each side's
[q1, median, q3] of all its solve times, and the paired change: per
(document, method), the ratio of the sides' median times, with the median
of those ratios and the number of pairs where the change is faster.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", default="dense-newton-50")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=20, help="documents of the seed")
    ap.add_argument("--repeats", type=int, default=5, help="rounds over the documents")
    args = ap.parse_args(argv)

    run = load_run()
    workload = run.WORKLOADS[args.workload]()
    docs = [workload.instance(args.seed, i) for i in range(args.count)]
    names = ("parent", "change")
    sides = {name: load_side(path.resolve()) for name, path in zip(names, (args.parent, args.change))}
    parsed = {}
    for name, entries in sides.items():
        _activate(entries)
        parse = entries["troplf.cli_io"].parse_instance
        parsed[name] = [parse(doc).instance for doc in docs]
    pairs = [(i, method) for i in range(len(docs)) for method in workload.methods]
    times = {name: {pair: [] for pair in pairs} for name in names}
    turn = 0
    for r in range(args.repeats):
        for i, method in pairs:
            answers = []
            order = names if turn % 2 == 0 else names[::-1]
            turn += 1
            for name in order:
                _activate(sides[name])
                solve = sides[name]["troplf.solver"].solve
                t0 = time.perf_counter()
                out = solve(parsed[name][i], method=method)
                times[name][(i, method)].append(time.perf_counter() - t0)
                answers.append((out.status, out.lam))
            if answers[0] != answers[1]:
                sys.exit(f"error: document {i} by {method}: the sides answer {answers}")
        turn += 1
    _activate({})

    print(f"{args.workload} seed {args.seed}: {len(docs)} documents, "
          f"{len(pairs)} (document, method) pairs, {args.repeats} rounds")
    for name in names:
        q = quartiles([t for ts in times[name].values() for t in ts])
        print(f"  {name:6s} solve s [q1, median, q3]: " + ", ".join(f"{x:.6f}" for x in q))
    ratios = [statistics.median(times["change"][p]) / statistics.median(times["parent"][p])
              for p in pairs]
    faster = sum(x < 1 for x in ratios)
    print(f"  paired change: median {100 * (statistics.median(ratios) - 1):+.1f}%, "
          f"faster on {faster} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

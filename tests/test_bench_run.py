"""The benchmark's per-instance run still works against the package.

bench/run.py parses each document, solves it by every method, round-trips
and checks each certificate, reconstructs the spectral function and checks
all of it with its own code (bench/checks.py).  This test loads it without
changing it and runs that path on two documents, so a change that breaks
the interface it uses (``parse_instance(...).instance``, the witness's
``.kind``/``.value``, the spectral pieces) fails here and not only in a
benchmark run.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from troplf import certify, cli_io, solver, spectral

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _load_run():
    """bench/run.py as a module; the bench modules it imports are dropped
    from sys.path and sys.modules again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == RUN.parent:
                del sys.modules[name]
    return run


def test_bench_run_checks_every_answer():
    bench = _load_run()
    run = bench.Run((certify, cli_io, solver, spectral), None)
    methods = ("newton", "bisection", "negative-newton")
    run.instance("example2", bench.example_docs()[2], methods, True, bench.PAPER_OPTIMA[2])
    run.instance("side instance", bench.SIDE_DOC, methods, True, None, random.Random(1))
    assert run.wrong == [] and run.failed == 0
    assert len(run.solve_s) == 6 and len(run.reconstruct_s) == 2
    assert len(run.check_s) >= 3  # example 2's optimum is certified by every method

"""Tests of the span recorder against the package in ../src.

Run from the root of the checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from troplf import cli_io, solver, spectral  # noqa: E402

from tracer import TRACED, Tracer  # noqa: E402


def test_spans_cover_by_name_imports_and_nest():
    with open(ROOT / "data" / "example2.json", encoding="utf-8") as fh:
        parsed = cli_io.parse_instance(json.load(fh))
    original = spectral.game_at
    tracer = Tracer()
    tracer.install()
    try:
        assert spectral.game_at is not original
        out = solver.solve(parsed.instance, method="newton")
    finally:
        tracer.uninstall()
    assert spectral.game_at is original and solver.game_at is original
    assert out.status == "Optimal" and out.lam == 0

    stats = tracer.summary()
    assert stats["solver.solve.calls"] == 1
    # game_at is imported by name into solver and certify, and the Newton
    # step reaches least_solution_fixed through an import inside its body
    assert stats["spectral.game_at.calls"] > 0
    # (the certificate's feasibility witness calls it once more)
    assert stats["game_engine.least_solution_fixed.calls"] == stats["solver.newton_step.calls"] + 1 > 1
    assert stats["game_engine.oracle.calls"] == stats["game_engine._oracle_core.calls"]
    assert stats["trop_core.TropMatrix.built"] > 0
    # self times add up to the root span's duration
    root = [k for k in range(len(tracer.start)) if tracer.parent[k] == -1]
    assert len(root) == 1
    total = tracer.end[root[0]] - tracer.start[root[0]]
    self_total = sum(stats[f"{m}.{f}.self_s"] for m, f in TRACED)
    assert all(stats[f"{m}.{f}.self_s"] >= 0 for m, f in TRACED)
    assert abs(self_total - total) < 1e-6 * max(1.0, total) + 1e-9


def test_paused_block_is_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.paused():
            spectral.homogenize(cli_io.parse_instance(
                {"A": [[0]], "B": [[0]], "c": [0], "d": [0], "p": [0], "q": [0], "r": 0, "s": 0}).instance)
    finally:
        tracer.uninstall()
    assert len(tracer.start) == 0 and tracer.summary()["trop_core.TropMatrix.built"] == 0

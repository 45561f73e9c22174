"""The traced benchmark's hooks into the package still exist.

bench/tracer.py wraps the functions it lists in TRACED and counts
TropMatrix constructions; a refactor that renames or removes one of them
breaks the traced run, so this test reads the list and checks each entry.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced_pairs() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_functions_are_module_level_functions():
    pairs = _traced_pairs()
    assert pairs
    for mod, fn in pairs:
        module = importlib.import_module(f"troplf.{mod}")
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj), f"troplf.{mod}.{fn} is not a function"
        assert obj.__module__ == module.__name__, f"troplf.{mod}.{fn} is defined elsewhere"
    # the oracle counter calls it as fn(m, n, a, b)
    core = importlib.import_module("troplf.game_engine")._oracle_core
    assert list(inspect.signature(core).parameters) == ["m", "n", "a", "b"]


def test_trop_matrix_exists():
    trop_core = importlib.import_module("troplf.trop_core")
    assert inspect.isclass(trop_core.TropMatrix)
    assert "__init__" in vars(trop_core.TropMatrix)

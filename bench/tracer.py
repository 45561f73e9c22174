"""Spans around the public functions of ``troplf``, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper that records
a span (name, start, end, parent span, request) and rebinds every name in
the package that refers to the original, so calls through a by-name import
(``from .game_engine import scaled_copy``) and through a module attribute
(``certify.make_optimality_certificate``, or an import inside a function
body) are both seen.  Spans stay in memory in flat arrays until the run
ends; ``summary`` then turns them into calls and self time per function,
self time being a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs wrapped by the traced run.
TRACED = [
    ("solver", "solve"),
    ("solver", "precheck"),
    ("solver", "homogeneous_solution_with_zeros"),
    ("solver", "left_optimal_max_strategy"),
    ("solver", "newton_step"),
    ("spectral", "homogenize"),
    ("spectral", "game_at"),
    ("spectral", "phi_nonneg"),
    ("spectral", "phi"),
    ("spectral", "phi_tau"),
    ("spectral", "reconstruct"),
    ("game_engine", "scaled_copy"),
    ("game_engine", "integer_oracle"),
    ("game_engine", "value_report"),
    ("game_engine", "_oracle_core"),
    ("game_engine", "least_solution_fixed"),
    ("game_engine", "feasibility_witness"),
    ("game_engine", "restrict_min"),
    ("trop_core", "kleene_least_solution"),
    ("trop_core", "cycle_time_vector"),
    ("trop_core", "cycle_means"),
    ("certify", "make_optimality_certificate"),
    ("certify", "make_unboundedness_certificate"),
    ("certify", "check_optimality"),
    ("certify", "check_unboundedness"),
    ("cli_io", "parse_instance"),
    ("cli_io", "serialize_certificate"),
    ("cli_io", "parse_certificate"),
]


class Tracer:
    """Records spans and counters while installed; one per traced run."""

    package = "troplf"

    def __init__(self):
        self.labels = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_request = 0
        self.counts = {"trop_core.TropMatrix.built": 0, "game_engine.oracle.calls": 0,
                       "game_engine.oracle.distinct": 0}
        self.games_seen = set()
        self.undo = []

    # --- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for k, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"{self.package}.{mod}"], fn)
            wrapper = self._span_wrapper(original, k)
            if fn == "_oracle_core":
                wrapper = self._oracle_counter(wrapper)
            for module in modules:
                for attr, val in list(vars(module).items()):
                    if val is original:
                        self.undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        matrix = sys.modules[f"{self.package}.trop_core"].TropMatrix
        init = matrix.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts["trop_core.TropMatrix.built"] += 1
            init(obj, *args, **kwargs)

        self.undo.append((matrix, "__init__", init))
        matrix.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced: its calls and counts are left out."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _span_wrapper(self, fn, name_id: int):
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _oracle_counter(self, fn):
        """Count oracle calls, and those on a game not yet seen for the
        current instance (keyed by the payment grids)."""
        counts, seen = self.counts, self.games_seen

        @functools.wraps(fn)
        def counted(m, n, a, b):
            key = (m, n, tuple(map(tuple, a)), tuple(map(tuple, b)))
            counts["game_engine.oracle.calls"] += 1
            if key not in seen:
                seen.add(key)
                counts["game_engine.oracle.distinct"] += 1
            return fn(m, n, a, b)

        return counted

    # --- run structure ----------------------------------------------------

    def new_instance(self) -> None:
        """Forget the games seen: the next calls belong to another instance."""
        self.games_seen.clear()

    def new_request(self) -> None:
        self.current_request += 1

    # --- results ----------------------------------------------------------

    def summary(self) -> dict:
        """calls and self_s per traced function, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for k in range(n):
            i = self.name[k]
            calls[i] += 1
            self_s[i] += self.end[k] - self.start[k] - child[k]
        out = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[i]
            out[f"{label}.self_s"] = self_s[i]
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """All spans as columns: name index, parent span, request, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.labels,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "request": self.request.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )

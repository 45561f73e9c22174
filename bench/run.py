"""The troplf benchmark: seeded workloads, independent answer checks, metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-newton-50 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run generates the workload's instance documents from ``--seed``, times a
fresh interpreter that imports ``troplf`` and parses them (``setup_s``), then
repeats whole rounds of the workload's operations for ``--seconds`` seconds,
checking every answer with ``checks.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer ones, from
spans around the package's public functions, with ``--trace 1``.  A fuller
record, with the environment, goes to ``bench/results/``.  ``--workload
all`` runs every workload untraced and traced, each in its own process, and
prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import instances  # noqa: E402
from tracer import Tracer  # noqa: E402

# The paper's optima of data/example{1,2,3}.json, as the documents state them.
PAPER_OPTIMA = {1: Fraction(5), 2: Fraction(0), 3: Fraction(-4)}
SETUP_REPEATS = 5
# A fixed 1 x 2 instance with entries in [-2, 2]; its grid reconstruction
# takes about 35 ms (Python 3.11, 2 CPUs).
SIDE_DOC = instances.tiny(random.Random(0), 1, 2, 2)
# The speed probe: its kernel's typical time on the machine the reference
# figures come from (Python 3.11, 2 CPUs), and how often it samples.
PROBE_NOMINAL_S = 0.008
PROBE_EVERY_S = 0.25
SETUP_SCRIPT = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from troplf.cli_io import parse_instance\n"
    "with open(sys.argv[2], encoding='utf-8') as fh:\n"
    "    docs = json.load(fh)\n"
    "for doc in docs:\n"
    "    parse_instance(doc)\n"
)
# Traced functions some workload never calls: their self time would read 0
# on every run there, so only their call counts are per-layer metrics.
NOT_EVERYWHERE = {
    "solver.homogeneous_solution_with_zeros",
    "spectral.phi",
    "spectral.phi_tau",
    "spectral.reconstruct",
    "trop_core.cycle_time_vector",
    "certify.make_unboundedness_certificate",
    "certify.check_unboundedness",
}


def load_troplf():
    """Import troplf from this checkout's src/, or stop without a result."""
    if not (SRC / "troplf" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'troplf'} is missing; run from the root of a troplf checkout")
    sys.path.insert(0, str(SRC))
    import troplf

    if Path(troplf.__file__).resolve().parent != SRC / "troplf":
        sys.exit(f"error: troplf was imported from {troplf.__file__}, not from {SRC}")
    from troplf import certify, cli_io, solver, spectral

    return certify, cli_io, solver, spectral


def example_docs() -> dict:
    docs = {}
    for k in PAPER_OPTIMA:
        with open(DATA / f"example{k}.json", encoding="utf-8") as fh:
            docs[k] = json.load(fh)
    return docs


# --- workloads ------------------------------------------------------------------
#
# A workload names the documents its run uses and the operations done on each.
# A round is the operations on one instance; a run repeats rounds until its
# time is up.  Instance i of a seed comes from its own generator seeded by
# (seed, i), while its size class, or in the pooled workloads its base
# instance, is fixed by i alone, so runs of different seeds see the same mix:
# a median over a mix that a seed could tilt towards easy or hard instances
# would move with the seed.


class Workload:
    methods = ("newton",)
    setup_count = 0  # seeded documents the set-up measurement parses
    examples_rebuilt = ()  # examples whose spectral function is rebuilt once per run
    side_rebuild_every_s = 1.0  # seconds between rebuilds of SIDE_DOC's spectral function
    solve_examples = False  # the examples are also solved, and their optima checked
    rebuild_instances = False  # each instance's spectral function is rebuilt too

    def instance(self, seed: int, index: int) -> dict:
        raise NotImplementedError


class DenseNewton50(Workload):
    """The criterion-10 family, in a fixed order.  Its instances take 2 to 18
    Newton steps, so a fresh sample per seed would put that spread into every
    median; instead the seed relabels the same base instances (rows and
    variables permuted, integer potentials added), which keeps each one's
    optimum and step count while every number the program sees changes."""

    setup_count = 20

    def __init__(self):
        self.pool = instances.criterion10_family(20)

    def instance(self, seed, index):
        rng = random.Random(f"dense:{seed}:{index}")
        return instances.relabel(self.pool[index % len(self.pool)], rng, 50)


class RationalBigint30(Workload):
    """60 fixed base instances, in a fixed order, relabelled by the seed as in
    DenseNewton50 (potentials up to 10^5, so the payments stay past int64
    after scaling): fresh instances per seed moved the median by 13%."""

    setup_count = 60

    def __init__(self):
        self.pool = [instances.rational_30(random.Random(f"rational-base:{i}")) for i in range(60)]

    def instance(self, seed, index):
        rng = random.Random(f"rational:{seed}:{index}")
        return instances.relabel(self.pool[index % len(self.pool)], rng, 10**5)


class SparseMixedSmall(Workload):
    methods = ("newton", "bisection", "negative-newton")
    setup_count = 1024
    solve_examples = True

    def instance(self, seed, index):
        m, n = divmod(index % 64, 8)
        return instances.sparse_small(random.Random(f"sparse:{seed}:{index}"), m + 1, n + 1)


class SpectralSmall(Workload):
    """320 fixed tiny instances, in a fixed order, with rows and variables
    permuted by the seed.  Potentials would change M and with it the grid a
    reconstruction walks; fresh instances per seed moved the median solve
    time by 20%, through the share of instances with an optimum."""

    methods = ("newton", "bisection", "negative-newton")
    setup_count = 320
    examples_rebuilt = (1, 2, 3)
    side_rebuild_every_s = None
    solve_examples = True
    rebuild_instances = True

    def __init__(self):
        self.pool = [
            instances.tiny(random.Random(f"spectral-base:{i}"), i % 8 // 4 + 1, i % 4 // 2 + 1, i % 2 + 1)
            for i in range(320)
        ]

    def instance(self, seed, index):
        rng = random.Random(f"spectral:{seed}:{index}")
        return instances.relabel(self.pool[index % len(self.pool)], rng, 0)


WORKLOADS = {
    "dense-newton-50": DenseNewton50,
    "sparse-mixed-small": SparseMixedSmall,
    "rational-bigint-30": RationalBigint30,
    "spectral-small": SpectralSmall,
}


# --- one run --------------------------------------------------------------------


class Run:
    """Times and checks the operations of one workload run."""

    def __init__(self, lib, tracer):
        self.certify, self.cli_io, self.solver, self.spectral = lib
        self.tracer = tracer
        self.solve_s, self.check_s, self.reconstruct_s = [], [], []
        self.attempted = self.failed = 0
        self.wrong = []
        self.failures = []
        self.statuses = {}
        self.newton_steps = self.bisection_probes = 0

    def _request(self):
        if self.tracer is not None:
            self.tracer.new_request()

    def _fail(self, what, exc):
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def instance(self, label, doc, methods, reconstruct, expected=None, rng=None):
        """Solve doc by each method, round-trip and check each certificate,
        and rebuild its spectral function when asked; check everything."""
        if self.tracer is not None:
            self.tracer.new_instance()
        H = checks.Homogeneous(doc)
        try:
            parsed = self.cli_io.parse_instance(doc)
            Hp = self.spectral.homogenize(parsed.instance)
        except Exception as exc:  # every generated document is valid
            self.attempted += 1
            self._fail(f"{label} parse", exc)
            return
        for method in methods:
            self._request()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.solver.solve(parsed.instance, method=method)
            except Exception as exc:  # a crash on valid input is a failed operation
                self._fail(f"{label} {method}", exc)
                continue
            self.solve_s.append(time.perf_counter() - t0)
            self.statuses[out.status] = self.statuses.get(out.status, 0) + 1
            if method == "bisection":
                self.bisection_probes += len(out.trace)
            else:
                self.newton_steps += len(out.trace)
            cert_doc = None
            if out.certificate is not None:
                cert_doc = self.check(label, method, Hp, out.certificate)
            reason = self.verify(H, out, cert_doc)
            if reason is None and expected is not None:
                if out.status != "Optimal" or H.document_value(out.lam) != expected:
                    reason = f"{out.status} {out.lam}, the paper's optimum is {expected}"
            if reason is not None:
                self.wrong.append(f"{label} {method}: {reason}")
        if reconstruct:
            self.reconstruct(label, H, Hp, expected, rng)

    def check(self, label, method, Hp, certificate):
        """The `troplf check` path: serialize, parse, validate; timed."""
        self._request()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            doc = json.loads(json.dumps(self.cli_io.serialize_certificate(certificate)))
            cert = self.cli_io.parse_certificate(doc, Hp.m, Hp.n)
            if doc["type"] == "optimality":
                result = self.certify.check_optimality(Hp, cert)
            else:
                result = self.certify.check_unboundedness(Hp, cert)
        except Exception as exc:
            self._fail(f"{label} {method} check", exc)
            return None
        self.check_s.append(time.perf_counter() - t0)
        if not result:
            self.wrong.append(f"{label} {method}: troplf rejects its own certificate: {result.reason}")
        return doc

    @staticmethod
    def verify(H, out, cert_doc):
        if out.status == "Optimal":
            if cert_doc is None:
                return "an optimum without a certificate"
            reason = checks.check_optimal(H, out.lam, cert_doc)
            if reason is None:
                shown = [None if e.kind == -1 else e.value for e in out.witness]
                if shown != [checks.entry(x) for x in cert_doc["witness"][: H.n]]:
                    reason = "the reported witness differs from the certificate's"
            return reason
        if out.status == "Unbounded":
            if cert_doc is None:
                return checks.check_unbounded_degenerate(H)
            return checks.check_unbounded(H, cert_doc)
        if out.status == "Infeasible":
            return checks.check_infeasible(H)
        return f"unknown status {out.status!r}"

    def reconstruct(self, label, H, Hp, expected, rng):
        self._request()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            pieces = self.spectral.reconstruct(Hp)
        except Exception as exc:
            self._fail(f"{label} reconstruct", exc)
            return
        self.reconstruct_s.append(time.perf_counter() - t0)
        plain = [
            (None if p.lo.kind == -1 else p.lo.value, None if p.hi.kind == 1 else p.hi.value,
             p.alpha, p.beta, p.k)
            for p in pieces
        ]
        samples = ()
        if rng is not None:  # tiny instance: compare with brute force
            edges = sorted({x for p in plain for x in p[:2] if x is not None})
            lo, hi = (edges[0] - 3, edges[-1] + 3) if edges else (-8, 8)
            samples = edges + [Fraction(rng.randint(int(lo) * 6, int(hi) * 6), 6) for _ in range(4)]
        reason = checks.check_pieces(H, plain, samples)
        if reason is None and expected is not None:
            zero = checks.smallest_zero(plain)
            if zero is None or H.document_value(zero / H.scale()) != expected:
                reason = f"the smallest zero {zero} is not the paper's optimum {expected}"
        if reason is not None:
            self.wrong.append(f"{label} reconstruct: {reason}")


class SpeedProbe:
    """How fast the machine runs Python during this run.

    On a shared machine the same operation takes up to twice as long in one
    run as in another, and every operation of a run moves together.  The
    probe times a fixed kernel of the benchmark's own (Karp's algorithm on a
    fixed 40-node graph, about 8 ms, no troplf code) between operations,
    about every PROBE_EVERY_S seconds; the timing metrics are scaled by
    ``factor()`` of the samples nearest to them in time, which reports them
    at the speed at which the kernel takes PROBE_NOMINAL_S.
    """

    def __init__(self):
        rng = random.Random(5)
        self.arcs = [(i, j, rng.randint(-50, 50)) for i in range(40) for j in range(40) if rng.random() < 0.5]
        self.samples = []
        self.next = time.perf_counter()

    def sample(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            checks.reachable_cycle_means(40, self.arcs, 0)
            self.samples.append(time.perf_counter() - t0)

    def between_operations(self) -> None:
        """One sample per PROBE_EVERY_S seconds since the last, at most 8."""
        now = time.perf_counter()
        if now >= self.next:
            self.sample(min(8, 1 + int((now - self.next) / PROBE_EVERY_S)))
            self.next = time.perf_counter() + PROBE_EVERY_S

    def factor(self) -> float:
        """PROBE_NOMINAL_S over the mean of the middle 80% of the samples.

        The kernel's time within one run often has two levels (7 and 10 ms
        here); a median picks one of them, while a mean weighs them as the
        operations of the run were exposed to them.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return PROBE_NOMINAL_S / statistics.mean(ordered[cut: len(ordered) - cut])


def setup_seconds(docs) -> float:
    """Median wall time of a fresh interpreter importing troplf and parsing docs."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"setup-docs-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh)
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(path)],
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
    finally:
        path.unlink()
    return statistics.median(times)


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    lib = load_troplf()
    work = WORKLOADS[name]()
    examples = example_docs()
    seeded = [work.instance(seed, i) for i in range(work.setup_count)]
    probe = SpeedProbe()
    probe.sample(8)
    setup = setup_seconds(seeded + [examples[k] for k in sorted(examples)])
    probe.sample(8)
    setup_speed = probe.factor()
    probe.samples.clear()

    tracer = Tracer() if trace else None
    run = Run(lib, tracer)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        rng = random.Random(f"{name}:{seed}:samples")
        for k in work.examples_rebuilt:
            run.instance(f"example{k}", examples[k], (), True, PAPER_OPTIMA[k])
        if work.solve_examples:
            for k in sorted(examples):
                run.instance(f"example{k}", examples[k], work.methods, False, PAPER_OPTIMA[k])
        # Solve workloads rebuild the spectral function of SIDE_DOC once a
        # second, so that reconstruct_s.p50 exists on every workload: their
        # own instances are too large for the grid.  Many short rebuilds
        # spread over the run give a steadier median than a few long ones.
        # The traced run leaves these rebuilds out of its per-layer figures.
        next_rebuild = t0
        rounds = 0
        while rounds == 0 or time.perf_counter() - t0 < seconds:
            probe.between_operations()
            if work.side_rebuild_every_s is not None and time.perf_counter() >= next_rebuild:
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    run.instance("side instance", SIDE_DOC, (), True, None, rng)
                next_rebuild += work.side_rebuild_every_s
            doc = seeded[rounds] if rounds < len(seeded) else work.instance(seed, rounds)
            run.instance(f"instance {rounds}", doc, work.methods, work.rebuild_instances, None, rng)
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - t0

    solves = len(run.solve_s)
    raw = {
        "setup_s": (setup, "s"),
        "solves_per_s": (solves / sum(run.solve_s) if solves else 0.0, "1/s"),
        "solve_s.p50": (statistics.median(run.solve_s) if solves else 0.0, "s"),
        "check_s.p50": (statistics.median(run.check_s) if run.check_s else 0.0, "s"),
        "reconstruct_s.p50": (statistics.median(run.reconstruct_s) if run.reconstruct_s else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    speed = probe.factor()
    scale = {"s": speed, "1/s": 1 / speed, "MB": 1}
    e2e = {k: (v * scale[u], u) for k, (v, u) in raw.items()}
    e2e["setup_s"] = (setup * setup_speed, "s")
    extra = {
        "solves": solves,
        "checks": len(run.check_s),
        "reconstructs": len(run.reconstruct_s),
        "rounds": rounds,
        "wall_s": wall,
        "statuses": run.statuses,
        "solve_s.p90": percentile(run.solve_s, 0.9) if solves >= 100 else None,
    }
    layers = None
    if tracer is not None:
        layers = {k: (v, "count" if k.endswith((".calls", ".built")) else "s")
                  for k, v in tracer.summary().items()}
        calls = layers.pop("game_engine.oracle.distinct")[0]
        total = layers["game_engine.oracle.calls"][0]
        layers["game_engine.oracle.distinct_ratio"] = (calls / total if total else 0.0, "ratio")
        layers["solver.newton_steps"] = (run.newton_steps, "count")
        layers["solver.bisection_probes"] = (run.bisection_probes, "count")
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{name}-seed{seed}.json")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong[:20],
        "failures": run.failures[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed_probe": {"setup_factor": setup_speed, "factor": speed,
                        "quartiles_s": statistics.quantiles(probe.samples, n=4), "samples": len(probe.samples)},
        "extra": extra,
        "per_layer": None if layers is None else {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "times_s": {"solve": run.solve_s, "check": run.check_s, "reconstruct": run.reconstruct_s},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def per_layer_metrics(layers: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json out of a traced record."""
    return {
        k: v for k, v in layers.items()
        if not (k.endswith(".self_s") and k[: -len(".self_s")] in NOT_EVERYWHERE)
    }


def print_record(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])}: "
          f"{rec['attempted']} attempted, {rec['failed']} failed, correct={rec['correct']}")
    for k, v in rec["end_to_end"].items():
        unscaled = rec["end_to_end_unscaled"][k]["value"]
        print(f"#   {k:<22} {v['value']:.6g} {v['unit']} (unscaled {unscaled:.6g})")
    print(f"#   speed_probe            {json.dumps(rec['speed_probe'])}")
    for k, v in rec["extra"].items():
        print(f"#   {k:<22} {v}")
    for line in rec["wrong"] + rec["failures"]:
        print(f"#   ! {line}")
    if rec["per_layer"]:
        for k, v in rec["per_layer"].items():
            print(f"#   {k:<58} {v['value']:.6g} {v['unit']}")
    print(f"#   environment {json.dumps(rec['environment'])}")


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced, then traced, each in a fresh process."""
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                check=True, stdout=subprocess.DEVNULL, timeout=900,
            )
            with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
                table[name][trace] = json.load(fh)
    print(f"{'workload':<20} {'metric':<20} {'value':>12} unit")
    for name, recs in table.items():
        plain, traced = recs[0], recs[1]
        print(f"{name:<20} {'attempted':<20} {plain['attempted']:>12}")
        print(f"{name:<20} {'failed':<20} {plain['failed']:>12}")
        print(f"{name:<20} {'correct':<20} {str(plain['correct'] and traced['correct']):>12}")
        for k, v in plain["end_to_end"].items():
            print(f"{name:<20} {k:<20} {v['value']:>12.6g} {v['unit']}")
        p90 = plain["extra"]["solve_s.p90"]
        if p90 is not None:
            print(f"{name:<20} {'solve_s.p90':<20} {p90:>12.6g} s")
        overhead = traced["end_to_end"]["solve_s.p50"]["value"] / plain["end_to_end"]["solve_s.p50"]["value"] - 1
        print(f"{name:<20} {'trace_overhead':<20} {100 * overhead:>12.1f} % of solve_s.p50")
    summary = {
        name: {
            "correct": recs[0]["correct"] and recs[1]["correct"],
            "attempted": recs[0]["attempted"],
            "failed": recs[0]["failed"],
            "metrics": recs[0]["end_to_end"],
        }
        for name, recs in table.items()
    }
    print(json.dumps(summary))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(rec)
    metrics = per_layer_metrics(rec["per_layer"]) if args.trace else rec["end_to_end"]
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

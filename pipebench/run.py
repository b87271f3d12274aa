"""Pipeline benchmark for pairdva: one seeded workload per run.

    python3 pipebench/run.py --workload single_pair --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The package is imported from ./src, never
from site-packages. With --trace 0 the last stdout line holds the
end-to-end metrics. With --trace 1 the run alternates untraced and traced
calls for --seconds and reports per-layer metrics. The
line before the last holds provenance, sample counts and any failure with
its stage. Spans and details are also written to .pipebench/results/.
Workloads and the reasons for them are described in workloads.py and
README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"
WORKLOAD_NAMES = ("single_pair", "sweep_grid", "lab_traces")
IMPORT_REPEATS = 5       # child processes, each timing `import pairdva`
GENERATION_REPEATS = 3
PROBE_EVERY_S = 1.0      # least time between two machine-speed probes
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import pairdva; "
                "print(time.perf_counter() - t)")


def import_package():
    """Import pairdva from ./src, refusing any other copy."""
    init = SRC / "pairdva" / "__init__.py"
    if not init.is_file():
        sys.exit(f"pipebench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import pairdva
    if Path(pairdva.__file__).resolve() != init.resolve():
        sys.exit(f"pipebench: imported pairdva from {pairdva.__file__}")
    return pairdva


def import_seconds():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(pairdva, args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "pairdva": pairdva.__version__, "backend": pairdva.backend(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit()}


class Phase:
    """Latencies, counts and failures of one measured stretch."""

    def __init__(self):
        self.latency = []     # seconds per operation, one entry per call
        self.walls = []       # seconds per call
        self.probes = []      # (index of the next call, probe seconds)
        self.attempted = 0
        self.failed = 0
        self.failures = []    # one record per error: op, stage, message

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_op(wl, j, phase, failure_cls, tracer=None):
    """Run call j of the workload into `phase`, checking its output after
    timing it. Returns the call's wall seconds."""
    inp = wl.prepare(j)
    n_ops = wl.ops(inp)
    scope = (tracer.operation(j) if tracer is not None
             else contextlib.nullcontext())
    t0 = time.perf_counter()
    try:
        with scope:
            out = wl.run(inp)
    except failure_cls as err:
        fails, n_failed = [err], n_ops
    except Exception as err:  # a crash counts as a failed operation
        err.stage = f"crash.{type(err).__name__}"
        fails, n_failed = [err], n_ops
    else:
        fails, n_failed = [], 0
    elapsed = time.perf_counter() - t0
    if not fails:
        try:
            fails = wl.check(inp, out) or []
        except failure_cls as err:
            fails = [err]
        n_failed = min(n_ops, len(fails))
    wl.cleanup(inp)
    phase.walls.append(elapsed)
    phase.latency.append(elapsed / n_ops)
    phase.attempted += n_ops
    phase.failed += n_failed
    phase.failures += [{"op": j, "stage": getattr(e, "stage", None),
                        "message": str(e)} for e in fails]
    return elapsed


def measure(wl, seconds, failure_cls):
    """Closed loop: run calls until the next one would overrun `seconds`
    (at least one). The machine-speed probe runs before the first call,
    between calls at least PROBE_EVERY_S apart, and after the last call."""
    phase = Phase()
    j = 0
    t_end = time.perf_counter() + seconds
    next_probe = time.perf_counter()
    while True:
        if time.perf_counter() >= next_probe:
            phase.probes.append((j, probe.probe()))
            next_probe = time.perf_counter() + PROBE_EVERY_S
        run_op(wl, j, phase, failure_cls)
        j += 1
        left = t_end - time.perf_counter()
        if left < statistics.median(phase.walls) or (
                wl.cap is not None and j >= wl.cap):
            phase.probes.append((j, probe.probe()))
            return phase


def measure_paired(wl, seconds, failure_cls, tracer, binds):
    """Closed loop of pairs: an untraced call, then a traced one right
    after it, on the same input when the workload allows repeats and on
    the next input otherwise. Returns the untraced and traced phases."""
    plain, traced = Phase(), Phase()
    pair_walls = []
    j = 0
    t_end = time.perf_counter() + seconds
    while True:
        k = j if wl.repeatable else j + 1
        wall = run_op(wl, j, plain, failure_cls)
        with tracing.patched(binds):
            wall += run_op(wl, k, traced, failure_cls, tracer)
        pair_walls.append(wall)
        j = k + 1
        left = t_end - time.perf_counter()
        if left < statistics.median(pair_walls) or (
                wl.cap is not None and j + 1 >= wl.cap):
            return plain, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(wl, n_imports, n_generations, imports, gens):
    imports += [import_seconds() for _ in range(n_imports)]
    for _ in range(n_generations):
        t0 = time.perf_counter()
        wl.setup()
        gens.append(time.perf_counter() - t0)


def run_untraced(wl, args, failure_cls, details):
    # Set-up is timed half before and half after the measured loop, so its
    # medians span the same stretch of machine speed as the loop does.
    imports, gens = [], []
    time_setup(wl, IMPORT_REPEATS // 2, 1, imports, gens)
    phase = measure(wl, args.seconds, failure_cls)
    time_setup(wl, IMPORT_REPEATS - IMPORT_REPEATS // 2,
               GENERATION_REPEATS - 1, imports, gens)
    setup_s = statistics.median(imports) + statistics.median(gens)
    relative = probe.normalise(phase.latency, phase.probes)
    details.update(import_s=imports, input_generation_s=gens,
                   latency=stats.summary(phase.latency),
                   latency_probes=stats.summary(relative),
                   probe_s=stats.summary([p for _, p in phase.probes]),
                   call_wall=stats.summary(phase.walls),
                   ops_per_call=phase.attempted / len(phase.walls),
                   walls=phase.walls, probes=phase.probes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_latency_p50_probes": (statistics.median(relative), "probes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return phase, metrics


def run_traced(wl, args, failure_cls, details):
    import numpy as np
    import pairdva
    wl.setup()
    merged = Phase()
    threaded = None
    if args.workload == "sweep_grid":
        # the first grid with two threads, just before its workers=1 sweep
        wl.workers = 2
        threaded = Phase()
        run_op(wl, 0, threaded, failure_cls)
        wl.workers = 1
        merged.add(threaded)
    tracer = tracing.Tracer()
    plain, traced = measure_paired(wl, args.seconds, failure_cls, tracer,
                                   tracing.bindings(tracer))
    merged.add(plain)
    merged.add(traced)
    table = tracing.layer_table(tracer.spans)
    metrics = tracing.layer_metrics(table)
    ratios = [t / p for t, p in zip(traced.latency, plain.latency)]
    metrics["trace_overhead_frac"] = (statistics.median(ratios) - 1.0,
                                      "ratio")
    metrics["op_latency_p50_s"] = (statistics.median(plain.latency), "s")
    speedup = 0.0
    if threaded is not None:
        speedup = plain.walls[0] / threaded.walls[0]
        details["thread_walls_s"] = {"workers1": plain.walls[0],
                                     "workers2": threaded.walls[0]}
    metrics["sweep.thread_speedup"] = (speedup, "ratio")
    z = np.random.default_rng([args.seed, 4]).uniform(0.05, 1.0, 4000)
    metrics["kernels.ocv_scalar_us"] = (
        tracing.ocv_scalar_us(pairdva.kernels.ocv, z.tolist()), "us")
    details.update(untraced_latency=stats.summary(plain.latency),
                   traced_latency=stats.summary(traced.latency),
                   layers=tracing.layer_summary(table),
                   spans_header=["name", "start", "end", "parent", "op",
                                 "count"],
                   spans=tracer.spans)
    return merged, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    pairdva = import_package()
    import workloads

    if not workloads.GOLDEN.is_file():
        sys.exit(f"pipebench: golden features not found at "
                 f"{workloads.GOLDEN}")
    ref = workloads.load_reference()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ref)
    failure_cls = (workloads.GateError, pairdva.PairDvaError)
    details = {"provenance": provenance(pairdva, args)}
    try:
        if args.trace:
            phase, metrics = run_traced(wl, args, failure_cls, details)
        else:
            phase, metrics = run_untraced(wl, args, failure_cls, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(attempted=phase.attempted, failed=phase.failed,
                   failures=phase.failures)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(details))
    brief = {k: v for k, v in details.items()
             if k not in ("spans", "spans_header", "walls", "probes")}
    print(json.dumps(brief))
    print(json.dumps({
        "correct": phase.failed == 0, "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into pairdva's layers, recorded from outside the package.

bindings() finds each function in LAYERS wherever a pairdva module binds it
(its own module, the package namespace and every ``from .x import f``
site). patched() swaps timing wrappers in there for a with-block and
restores the originals on exit. Spans are
kept in memory and only recorded inside an operation, on the thread that
opened it, so gate checks and worker threads run untraced.

halfcell has no entry: no workload path calls it (the integrator uses the
kernels directly), so it gets no metric rather than an artificial timing.
Scalar kernels (ocv, split_currents) are called ~10^5 times per simulation;
wrapping them would swamp the trace, so kernels.ocv_scalar_us is a separate
probe instead.
"""

import contextlib
import os
import statistics
import sys
import threading
import time

# Counters read from a call's arguments and result at the layer boundary.
COUNTERS = {
    "kernels.pair_rk4": lambda args, res: res[5],
    "signal.dvdq_curve": lambda args, res: len(res),
    "features.fit_positive_surrogate":
        lambda args, res: (res.n_iter, res.converged),
    "fileio.read_trace_csv": lambda args, res: os.path.getsize(args[0]),
    "sweep.run_sweep":
        lambda args, res: (sum(c.ok for c in res.cells), len(res.cells)),
}

LAYERS = (
    "cli.main",
    "sweep.run_sweep", "sweep.product_curve", "sweep.identify_product",
    "pairsim.simulate_cc_discharge", "kernels.pair_rk4",
    "fileio.write_trace_csv", "fileio.read_trace_csv", "fileio.write_json",
    "fileio.dumps_json", "fileio.read_features_json",
    "fileio.read_product_curve_csv",
    "features.extract_features", "signal.dvdq_curve",
    "signal.downselect_window", "signal.peak_height",
    "features.fit_positive_surrogate", "features.skewness_pipeline",
)

OP = "op"


class Tracer:
    """In-memory span list: [name, start, end, parent index, op id, count]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._thread = threading.get_ident()

    @contextlib.contextmanager
    def operation(self, op_id):
        self.op = op_id
        rec = self._open(OP)
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def _open(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        counter = COUNTERS.get(name)
        if counter is not None:
            rec[5] = counter(args, result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.op is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)
        return traced


def bindings(tracer):
    """(module, attribute, original, wrapper) for every binding of the
    LAYERS functions in a loaded pairdva module."""
    wrappers = []
    for name in LAYERS:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"pairdva.{module}"], attr)
        wrappers.append((original, tracer.wrap(name, original)))
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "pairdva" and not name.startswith("pairdva."):
            continue
        for attr, value in list(vars(mod).items()):
            for original, wrapper in wrappers:
                if value is original:
                    found.append((mod, attr, original, wrapper))
    return found


@contextlib.contextmanager
def patched(binds):
    """Swap in the wrappers of `binds` for the with-block."""
    try:
        for mod, attr, _, wrapper in binds:
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original, _ in binds:
            setattr(mod, attr, original)


def layer_table(spans):
    """Per span name: durations, self times (duration minus direct
    children) and counters, in call order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, count in spans:
        if parent is not None:
            child[parent] += end - start
    table = {}
    for k, (name, start, end, parent, op, count) in enumerate(spans):
        row = table.setdefault(name, {"dur": [], "self": [], "count": []})
        row["dur"].append(end - start)
        row["self"].append(end - start - child[k])
        if count is not None:
            row["count"].append(count)
    return table


def layer_summary(table):
    """Calls, total and self seconds per layer; the op row's self time is
    the operation wall time that no layer span covers."""
    return {name: {"calls": len(row["dur"]), "total_s": sum(row["dur"]),
                   "self_s": sum(row["self"])}
            for name, row in table.items()}


def _median(table, name, key="dur"):
    row = table.get(name)
    return statistics.median(row[key]) if row else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(table):
    """Per-layer metrics: times are medians per call, counts means per
    call. A layer the workload never calls reads 0."""
    def counts(name):
        return table.get(name, {}).get("count", [])

    fits = counts("features.fit_positive_surrogate")
    cells = counts("sweep.run_sweep")
    op_wall = sum(table.get(OP, {}).get("dur", [])) or 1.0
    return {
        "kernels.pair_rk4_s": (_median(table, "kernels.pair_rk4"), "s"),
        "kernels.rk4_steps": (_mean(counts("kernels.pair_rk4")), "count"),
        "pairsim.simulate_s":
            (_median(table, "pairsim.simulate_cc_discharge"), "s"),
        "pairsim.simulate_self_s":
            (_median(table, "pairsim.simulate_cc_discharge", "self"), "s"),
        "signal.dvdq_s": (_median(table, "signal.dvdq_curve"), "s"),
        "signal.grid_points": (_mean(counts("signal.dvdq_curve")), "count"),
        "signal.window_peak_s": (_median(table, "signal.downselect_window")
                                 + _median(table, "signal.peak_height"), "s"),
        "features.fit_s":
            (_median(table, "features.fit_positive_surrogate"), "s"),
        "features.fit_iters": (_mean([f[0] for f in fits]), "count"),
        "features.fit_converged_ratio":
            (_mean([float(f[1]) for f in fits]), "ratio"),
        "features.skewness_s":
            (_median(table, "features.skewness_pipeline"), "s"),
        "fileio.write_trace_s": (_median(table, "fileio.write_trace_csv"), "s"),
        "fileio.read_trace_s": (_median(table, "fileio.read_trace_csv"), "s"),
        "fileio.read_bytes":
            (_mean(counts("fileio.read_trace_csv")), "bytes"),
        "sweep.cells_ok_ratio": (sum(c[0] for c in cells)
                                 / max(1, sum(c[1] for c in cells)), "ratio"),
        "sweep.product_curve_s": (_median(table, "sweep.product_curve"), "s"),
        "sweep.identify_us":
            (_median(table, "sweep.identify_product") * 1e6, "us"),
        "cli.self_s": (_median(table, "cli.main", "self"), "s"),
        "uncovered_frac":
            (sum(table.get(OP, {}).get("self", [])) / op_wall, "ratio"),
    }


def ocv_scalar_us(ocv, z_values, rounds=5):
    """Median over rounds of the per-call time of ocv on Python floats."""
    per_call = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for z in z_values:
            ocv(z)
        per_call.append((time.perf_counter() - t0) / len(z_values))
    return statistics.median(per_call) * 1e6

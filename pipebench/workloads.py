"""Seeded inputs, operations and correctness gates of the three workloads.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned and been checked. The
seed given to the benchmark picks the inputs; pairdva only ever sees the
generated inputs (pair parameters, grids, CSV files).

Why these three workloads:

* single_pair -- the README's command-line loop (simulate, features,
  identify) through ``cli.main``. The scalar RK4 integrator does almost all
  the work, so a change that helps sweeps but slows one simulation shows
  here.
* sweep_grid -- one ``run_sweep`` over a jittered 4 x 5 grid, then
  ``product_curve``. The integrator runs for many pairs at once, so a
  whole-grid batched integrator would show its effect here; this is the
  headline sweep figure. BENCHMARK.json leaves it out: a 15-20 s call
  cannot be set against the machine-speed probe (README.md says more).
* lab_traces -- ``read_trace_csv`` -> ``extract_features`` ->
  ``identify_product`` on lab-style CSVs (only t_s, i_total_A, vt_V; 1-10 s
  sampling, 0.1 mV quantisation, a little noise). It never calls the
  integrator, so fileio, signal and features do the work and simulation
  changes should leave it unchanged. No two operations in a run share
  input bytes, so no cache can hit. Malformed input (rests, NaN) is left
  out on purpose.

Reference values for the gates live in reference.json, written by
make_reference.py from the same generators. Pair draws and lab inputs come
from finite pools so that every seed has stored references.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pairdva  # noqa: E402
from pairdva import cli, fileio  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_baseline_features.json"
REFERENCE = HERE / "reference.json"
REL = 1e-9

# The pair lattice: every pair any workload simulates is one of these
# 21 x 21 points (a superset of the default 11 x 11 sweep grid).
ALPHAS = tuple(round(0.5 + 0.025 * i, 12) for i in range(21))
BETAS = tuple(round(1.0 + 0.05 * j, 12) for j in range(21))
BALANCED = (20, 0)   # lattice indices of alpha = beta = 1

# sweep_grid: one alpha index per stratum (0.5 .. 0.975) and one beta index
# per stratum (1.0 .. 1.95), giving a jittered 4 x 5 = 20-cell grid.
SWEEP_ALPHA_STRATA = tuple(tuple(range(5 * k, 5 * k + 5)) for k in range(4))
SWEEP_BETA_STRATA = tuple(tuple(range(4 * k, 4 * k + 4)) for k in range(5))

# Identification curve used by single_pair and lab_traces: a coarse 4 x 4
# grid drawn per stratum, always holding the balanced cell (the height
# apex) and both extremes of the product range.
CURVE_ALPHA_STRATA = ((0, 1, 2), (6, 7, 8, 9, 10), (13, 14, 15, 16), (20,))
CURVE_BETA_STRATA = ((0,), (5, 6, 7), (11, 12, 13), (18, 19, 20))

# lab_traces: pool entries are derived from these two base pairs
# (capacity-only and resistance-only imbalance, both away from p = 1).
LAB_BASES = ((0.7, 1.0), (1.0, 1.6))
LAB_POOL = 4096


class GateError(Exception):
    """An output that ran to completion but does not match its reference."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def lattice_pair(k):
    """(alpha, beta) of flat lattice index k (row-major over alpha)."""
    return ALPHAS[k // len(BETAS)], BETAS[k % len(BETAS)]


def lattice_index(i, j):
    return i * len(BETAS) + j


def feature_row(f):
    return [f.height, f.skewness, f.q_at_peak, f.v_at_peak]


def check_close(stage, what, got, want, rel=REL):
    for name, g, w in zip(("height", "skewness", "q_at_peak", "v_at_peak"),
                          got, want):
        if not math.isclose(g, w, rel_tol=rel):
            raise GateError(stage, f"{what}: {name} {g!r} != reference "
                                   f"{w!r} (rel {rel:g})")


def load_reference():
    ref = json.loads(REFERENCE.read_text())
    if tuple(ref["alphas"]) != ALPHAS or tuple(ref["betas"]) != BETAS:
        raise ValueError("reference.json lattice does not match workloads.py")
    return ref


def draw_strata(rng, strata):
    return [s[int(rng.integers(len(s)))] for s in strata]


def coarse_curve(alpha_idx, beta_idx, ref):
    """Product curve binned by pairdva from the reference sweep features
    of a lattice sub-grid."""
    cells = [pairdva.SweepCell(alpha=ALPHAS[i], beta=BETAS[j],
                               features=ref_features(
                                   ref["sweep"][lattice_index(i, j)]))
             for i in alpha_idx for j in beta_idx]
    fmap = pairdva.FeatureMap(
        alpha_grid=np.array([ALPHAS[i] for i in alpha_idx]),
        beta_grid=np.array([BETAS[j] for j in beta_idx]), cells=cells,
        c_total=120.0, r_parallel=0.001, sim_config=None, smoothing=None)
    return pairdva.product_curve(fmap)


def ref_features(row):
    h, s, q, v = row
    return pairdva.PeakFeatures(h, q, v, s, fit=None)


def lab_csv(index, bases):
    """Text of lab-pool entry `index`, derived from one base trace.

    Sampling interval 1-10 s with a random phase, voltage noise of 0.05 mV
    quantised to 0.1 mV, current noise of 20 mA quantised to 1 mA. Depends
    only on the index and the base traces.
    """
    rng = np.random.default_rng([7, index])
    base = bases[index % len(bases)]
    step = int(rng.integers(1, 11))
    rows = slice(int(rng.integers(step)), None, step)
    t = base.t[rows].astype(np.int64)
    n = len(t)
    v = np.round((base.v_t[rows] + rng.normal(0.0, 5e-5, n)) * 1e4)
    i = np.round((base.i_total[rows] + rng.normal(0.0, 0.02, n)) * 1e3)
    lines = ["t_s,i_total_A,vt_V"]
    lines += [f"{tk},{ik / 1e3:.3f},{vk / 1e4:.4f}"
              for tk, ik, vk in zip(t.tolist(), i.tolist(), v.tolist())]
    return "\n".join(lines) + "\n"


def lab_bases():
    return [pairdva.simulate_cc_discharge(pairdva.make_pair(a, b))
            for a, b in LAB_BASES]


def coprime_stride(rng, n):
    while True:
        stride = int(rng.integers(1, n))
        if math.gcd(stride, n) == 1:
            return stride


class Workload:
    """One workload: repeatable setup, then numbered operations.

    prepare(j) builds the inputs of operation j outside the timed region
    and run() is the timed part. check() raises GateError on a wrong
    output, or returns one GateError per wrong operation when one run()
    call performs several; ops(inp) is how many it performs.
    """

    cap = None   # most operations one run can make without repeating input
    repeatable = True   # may one call's input run again in the same run

    def __init__(self, seed, workdir, ref):
        self.seed = seed
        self.workdir = Path(workdir)
        self.ref = ref

    def ops(self, inp):
        return 1

    def cleanup(self, inp):
        pass


class SinglePair(Workload):
    """simulate -> features -> identify through cli.main, one pair per op.

    Operations cycle through the balanced pair and three seeded lattice
    draws, so every pair repeats and its trace CSV must come out
    byte-identical each time.
    """

    name = "single_pair"

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        pool = self.ref["pair_draws"]
        draws = [pool[int(k)] for k in rng.choice(len(pool), 3, replace=False)]
        self.pairs = [lattice_index(*BALANCED)] + draws
        curve = coarse_curve(draw_strata(rng, CURVE_ALPHA_STRATA),
                             draw_strata(rng, CURVE_BETA_STRATA), self.ref)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.curve_path = self.workdir / "product_curve.csv"
        fileio.write_product_curve_csv(curve, self.curve_path)
        disk_curve = fileio.read_product_curve_csv(self.curve_path)
        golden = json.loads(GOLDEN.read_text())
        self.expected = {}
        for k in self.pairs:
            if k == lattice_index(*BALANCED):
                want = [golden["height_V_per_Ah"], golden["skewness"],
                        golden["q_at_peak_Ah"], golden["v_at_peak_V"]]
            else:
                want = self.ref["cli"][k]
            p_hat = pairdva.identify_product(ref_features(want),
                                             disk_curve).p_hat
            self.expected[k] = (want, p_hat)
        self.trace_digest = {}

    def prepare(self, j):
        k = self.pairs[j % len(self.pairs)]
        opdir = self.workdir / f"op{j}"
        opdir.mkdir(parents=True, exist_ok=True)
        alpha, beta = lattice_pair(k)
        return k, alpha, beta, opdir

    def run(self, inp):
        _, alpha, beta, opdir = inp
        calls = (
            ["simulate", "--alpha", repr(alpha), "--beta", repr(beta),
             "--outdir", str(opdir)],
            ["features", str(opdir / "trace.csv"), "--out", "features.json",
             "--outdir", str(opdir)],
            ["identify", str(opdir / "features.json"), str(self.curve_path),
             "--out", "identify.json", "--outdir", str(opdir)],
        )
        for argv in calls:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                return argv[0], code, err.getvalue()
        return None

    def check(self, inp, out):
        k, alpha, beta, opdir = inp
        what = f"pair alpha={alpha:g} beta={beta:g}"
        if out is not None:
            command, code, err = out
            try:
                doc = json.loads(err.strip().splitlines()[-1])
                stage, message = doc["stage"], doc["message"]
            except (IndexError, ValueError, KeyError):
                stage, message = f"cli.{command}", err.strip()
            raise GateError(stage, f"{what}: cli {command} exited {code}: "
                                   f"{message}")
        want, p_hat = self.expected[k]
        feats = json.loads((opdir / "features.json").read_text())
        got = [feats["height_V_per_Ah"], feats["skewness"],
               feats["q_at_peak_Ah"], feats["v_at_peak_V"]]
        stage = ("check.golden" if k == lattice_index(*BALANCED)
                 else "check.features")
        check_close(stage, what, got, want)
        if not feats["fit"]["converged"]:
            raise GateError(stage, f"{what}: surrogate fit not converged")
        digest = hashlib.sha256(
            (opdir / "trace.csv").read_bytes()).hexdigest()
        first = self.trace_digest.setdefault(k, digest)
        if digest != first:
            raise GateError("check.trace_bytes",
                            f"{what}: trace CSV differs from its first run")
        got_p = json.loads((opdir / "identify.json").read_text())["p_hat"]
        if not math.isclose(got_p, p_hat, rel_tol=REL):
            raise GateError("check.identify",
                            f"{what}: p_hat {got_p!r} != {p_hat!r}")

    def cleanup(self, inp):
        shutil.rmtree(inp[3], ignore_errors=True)


class SweepGrid(Workload):
    """run_sweep (workers=1) + product_curve over a jittered 20-cell grid.

    One call covers the whole grid; each cell is one operation. Call j
    sweeps grid j; a traced run sweeps each grid untraced, then traced,
    and grid 0 also with two workers.
    """

    name = "sweep_grid"
    workers = 1

    def setup(self):
        self.grids = {}

    def prepare(self, j):
        if j not in self.grids:
            rng = np.random.default_rng([self.seed, 2, j])
            self.grids[j] = (draw_strata(rng, SWEEP_ALPHA_STRATA),
                             draw_strata(rng, SWEEP_BETA_STRATA))
        return self.grids[j]

    def ops(self, inp):
        return len(inp[0]) * len(inp[1])

    def run(self, inp):
        fmap = pairdva.run_sweep([ALPHAS[i] for i in inp[0]],
                                 [BETAS[j] for j in inp[1]],
                                 workers=self.workers)
        return fmap, pairdva.product_curve(fmap)

    def check(self, inp, out):
        """Returns the gate failures, one per wrong cell."""
        fmap, curve = out
        failures = []
        bins = {}
        cells = iter(fmap.cells)
        for i in inp[0]:
            for j in inp[1]:
                cell = next(cells)
                what = f"cell alpha={ALPHAS[i]:g} beta={BETAS[j]:g}"
                want = self.ref["sweep"][lattice_index(i, j)]
                try:
                    if (cell.alpha, cell.beta) != (ALPHAS[i], BETAS[j]):
                        raise GateError("check.grid_order",
                                        f"{what}: got ({cell.alpha:g}, "
                                        f"{cell.beta:g})")
                    if not cell.ok:
                        raise GateError(cell.status,
                                        f"{what}: status {cell.status}")
                    check_close("check.features", what,
                                feature_row(cell.features), want)
                except GateError as err:
                    failures.append(err)
                    continue
                key = int(round(cell.product / curve.bin_width))
                bins.setdefault(key, []).append(want[:2])
        rows = {int(round(r.product / curve.bin_width)): r for r in curve.rows}
        if sorted(rows) != sorted(bins):
            failures.append(GateError("check.product_curve",
                                      "product bins do not match the cells"))
            return failures
        for key, hs in bins.items():
            mean_h, mean_s = np.mean(hs, axis=0)
            r = rows[key]
            if r.n != len(hs) or not (
                    math.isclose(r.mean_height, mean_h, rel_tol=REL)
                    and math.isclose(r.mean_skewness, mean_s, rel_tol=REL)):
                failures.append(GateError(
                    "check.product_curve",
                    f"bin p={r.product:g}: n={r.n} mean height "
                    f"{r.mean_height!r} vs {mean_h!r}"))
        return failures


class LabTraces(Workload):
    """read_trace_csv -> extract_features -> identify_product per lab CSV.

    Operation j reads pool entry start + j * stride (mod pool size) with a
    stride coprime to the pool size, so no entry repeats within a run.
    """

    name = "lab_traces"
    repeatable = False

    def setup(self):
        self.bases = lab_bases()
        rng = np.random.default_rng([self.seed, 3])
        self.pool = self.ref["lab_usable"]
        self.cap = len(self.pool)
        self.start = int(rng.integers(self.cap))
        self.stride = coprime_stride(rng, self.cap)
        self.curve = coarse_curve(draw_strata(rng, CURVE_ALPHA_STRATA),
                                  draw_strata(rng, CURVE_BETA_STRATA),
                                  self.ref)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seen = set()

    def entry(self, j):
        return self.pool[(self.start + j * self.stride) % self.cap]

    def prepare(self, j):
        index = self.entry(j)
        text = lab_csv(index, self.bases)
        path = self.workdir / f"lab{j}.csv"
        path.write_text(text)
        return index, path, hashlib.sha256(text.encode()).digest()

    def run(self, inp):
        trace = fileio.read_trace_csv(inp[1])
        feats = pairdva.extract_features(trace)
        return feats, pairdva.identify_product(feats, self.curve)

    def check(self, inp, out):
        index, _, digest = inp
        feats, est = out
        what = f"lab entry {index}"
        if digest in self.seen:
            raise GateError("check.distinct_input",
                            f"{what}: input bytes repeat within the run")
        self.seen.add(digest)
        h, s = self.ref["lab"][index]
        check_close("check.features", what, [feats.height, feats.skewness],
                    [h, s])
        want = pairdva.identify_product(ref_features([h, s, 0.0, 0.0]),
                                        self.curve).p_hat
        if not math.isclose(est.p_hat, want, rel_tol=REL):
            raise GateError("check.identify",
                            f"{what}: p_hat {est.p_hat!r} != {want!r}")

    def cleanup(self, inp):
        inp[1].unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SinglePair, SweepGrid, LabTraces)}

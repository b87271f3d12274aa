"""Regenerate reference.json, the stored outputs the benchmark gates against.

For every lattice pair it records the features of the in-memory sweep path
and of the command-line path (trace CSV written and read back). For every
lab-pool entry it records height and skewness. It also records which
entries the benchmark may draw: heights inside every possible coarse
identification curve, so identify_product cannot raise.

Run from the repository root (about 5 minutes on 2 cores):

    python3 pipebench/make_reference.py --jobs 2
"""

import argparse
import itertools
import json
import multiprocessing
import tempfile
from pathlib import Path

import workloads as wl
from workloads import fileio, pairdva

SCRATCH = wl.ROOT / ".pipebench"


def lattice_entry(k):
    alpha, beta = wl.lattice_pair(k)
    trace = pairdva.simulate_cc_discharge(pairdva.make_pair(alpha, beta))
    sweep = pairdva.extract_features(trace)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        path = Path(tmp) / "trace.csv"
        fileio.write_trace_csv(trace, path)
        via_cli = pairdva.extract_features(fileio.read_trace_csv(path))
    return wl.feature_row(sweep), wl.feature_row(via_cli)


_BASES = []


def lab_entry(index):
    if not _BASES:
        _BASES.extend(wl.lab_bases())
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        path = Path(tmp) / "lab.csv"
        path.write_text(wl.lab_csv(index, _BASES))
        feats = pairdva.extract_features(fileio.read_trace_csv(path))
    return [feats.height, feats.skewness]


def height_bounds(ref):
    """Heights every coarse curve spans: (max of minima, min of maxima)."""
    lo, hi = -float("inf"), float("inf")
    for a_idx in itertools.product(*wl.CURVE_ALPHA_STRATA):
        for b_idx in itertools.product(*wl.CURVE_BETA_STRATA):
            mh = [r.mean_height for r in wl.coarse_curve(a_idx, b_idx, ref).rows]
            lo, hi = max(lo, min(mh)), min(hi, max(mh))
    return lo, hi


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    SCRATCH.mkdir(exist_ok=True)
    n_cells = len(wl.ALPHAS) * len(wl.BETAS)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        cells = pool.map(lattice_entry, range(n_cells), chunksize=4)
        lab = pool.map(lab_entry, range(wl.LAB_POOL), chunksize=64)
    ref = {
        "made_with": {"pairdva": pairdva.__version__,
                      "backend": pairdva.backend()},
        "alphas": list(wl.ALPHAS), "betas": list(wl.BETAS),
        "sweep": [c[0] for c in cells], "cli": [c[1] for c in cells],
        "lab": lab,
    }
    lo, hi = height_bounds(ref)
    margin = 1e-6 * hi
    ref["height_bounds"] = [lo, hi]
    balanced = wl.lattice_index(*wl.BALANCED)
    ref["pair_draws"] = [k for k in range(n_cells) if k != balanced
                         and lo + margin <= ref["cli"][k][0] <= hi - margin]
    ref["lab_usable"] = [i for i, (h, _) in enumerate(lab)
                         if lo + margin <= h <= hi - margin]
    text = json.dumps(ref, separators=(",", ":"))
    wl.REFERENCE.write_text(text.replace("],[", "],\n[") + "\n")
    print(f"{wl.REFERENCE}: {len(ref['pair_draws'])} pair draws, "
          f"{len(ref['lab_usable'])}/{wl.LAB_POOL} lab entries usable, "
          f"heights [{lo:.6g}, {hi:.6g}]")


if __name__ == "__main__":
    main()

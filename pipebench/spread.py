"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

Runs the benchmark once per seed on each named workload, one run at a
time, and prints for every end-to-end metric the median and the quartile
spread (Q3 - Q1) / median next to the bound in BENCHMARK.json. With
--against DIR (a copy of an earlier .pipebench/spread/), also prints how
far each median moved from the earlier one. Raw results go to
.pipebench/spread/.

    python3 pipebench/spread.py --workloads lab_traces --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[1]


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--against", type=Path, default=None,
                        help="directory of an earlier spread to compare")
    args = parser.parse_args()
    out_dir = ROOT / ".pipebench" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads:
        runs = [run_once(bench["command"], workload, seed,
                         bench["run_seconds"]) for seed in args.seeds]
        (out_dir / f"{workload}.json").write_text(json.dumps(runs))
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed operations, "
              f"all correct: {all(r['correct'] for r in runs)}")
        ok = ok and failed == 0
        before_runs = None
        if args.against:
            before_runs = json.loads(
                (args.against / f"{workload}.json").read_text())
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = stats.quartile_spread(values)
            line = (f"  {name:<20} median {median:<12.6g} spread "
                    f"{spread:.4f} (bound {bound}, third {bound / 3:.4f})")
            ok = ok and spread <= bound
            if before_runs:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in before_runs)
                worse = median / before - 1.0
                if metric["better"] == "higher":
                    worse = before / median - 1.0
                line += f" worse-than-earlier {worse:+.4f}"
                ok = ok and worse <= bound
            print(line)
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line checks (subprocess level)."""

import argparse
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairdva
from pairdva import cli, fileio
from pairdva.fileio import (FEATUREMAP_HEADER, PRODUCT_CURVE_HEADER,
                            TRACE_HEADER)

GOLDEN = Path(__file__).parent / "data" / "golden_baseline_features.json"
# the children run in tmp dirs, where a relative PYTHONPATH entry no longer
# finds the package this process imported
PKG_ROOT = str(Path(pairdva.__file__).resolve().parents[1])


def run_python(args, cwd, env_extra=None):
    env = os.environ.copy()
    env.pop("PAIRDVA_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PKG_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          env=env, timeout=600)


def run_cli(args, cwd, env_extra=None):
    return run_python(["-m", "pairdva", *args], cwd, env_extra)


def stderr_json(proc):
    return json.loads(proc.stderr.strip().splitlines()[-1])


def assert_provenance(side):
    assert side["pairdva"] == pairdva.__version__
    assert side["backend"] == pairdva.backend()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sim_dir(workdir):
    out = workdir / "sim"
    out.mkdir()
    proc = run_cli(["simulate", "--outdir", str(out)], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    return out


def test_simulate_outputs(sim_dir):
    csv_path = sim_dir / "trace.csv"
    side_path = sim_dir / "trace.json"
    assert csv_path.exists() and side_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == TRACE_HEADER
    side = json.loads(side_path.read_text())
    assert side["kind"] == "sim_trace"
    assert side["termination_reason"] == "soc_floor"
    assert side["current_reversal"] is False
    assert side["run_config"]["alpha"] == 1.0
    assert side["run_config"]["sg_window"] == 25
    assert_provenance(side)


def test_features_match_golden(sim_dir, workdir):
    proc = run_cli(["features", str(sim_dir / "trace.csv")], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(GOLDEN.read_text())
    for key in ("height_V_per_Ah", "q_at_peak_Ah", "v_at_peak_V",
                "skewness"):
        assert got[key] == pytest.approx(want[key], rel=1e-9), key
    for key in ("a", "b", "c", "d", "e", "f"):
        assert got["fit"][key] == pytest.approx(want["fit"][key], rel=1e-6)
    assert got["fit"]["converged"] is True


def test_reruns_are_byte_identical(workdir, sim_dir):
    again = workdir / "sim2"
    again.mkdir()
    proc = run_cli(["simulate", "--outdir", str(again)], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert filecmp.cmp(sim_dir / "trace.csv", again / "trace.csv",
                       shallow=False)
    a = run_cli(["features", str(sim_dir / "trace.csv")], cwd=workdir)
    b = run_cli(["features", str(sim_dir / "trace.csv")], cwd=workdir)
    assert a.stdout == b.stdout


def test_features_json_round_trips_fit_diagnostics(baseline_features,
                                                  tmp_path):
    path = tmp_path / "features.json"
    fileio.write_json(fileio.features_dict(baseline_features), path)
    fit = fileio.read_features_json(path).fit
    assert fit.n_iter == baseline_features.fit.n_iter
    assert fit.scaled_gradient == pytest.approx(
        baseline_features.fit.scaled_gradient, rel=1e-11)
    # a file written before the diagnostics were recorded still reads
    assert fileio.read_features_json(GOLDEN).fit.n_iter == 0


@pytest.mark.parametrize("field", ["height_V_per_Ah", "skewness", "fit.a"])
def test_non_finite_features_field_rejected(baseline_features, tmp_path,
                                            field):
    doc = fileio.features_dict(baseline_features)
    *parents, key = field.split(".")
    target = doc[parents[0]] if parents else doc
    target[key] = float("nan")
    path = tmp_path / "features.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FormatError, match=rf"field {field} .*nan"):
        fileio.read_features_json(path)


def test_repeated_trace_column_rejected(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("t_s,t_s,i_total_A,vt_V\n"
                    "0,100,-40,4.1\n1,200,-40,4.0\n2,300,-40,3.9\n")
    with pytest.raises(fileio.FormatError, match=r"repeated .*'t_s'"):
        fileio.read_trace_csv(path)


def test_invalid_ratio_exits_with_config_error(workdir):
    proc = run_cli(["simulate", "--alpha", "1.5"], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "ConfigError"
    assert doc["stage"] == "config"


def test_unknown_config_key_rejected(workdir, sim_dir):
    # workers was a config key while the sweep had a thread pool
    for line in ("frobnicate = 1", "workers = 2"):
        cfg = workdir / "bad.cfg"
        cfg.write_text(line + "\n")
        proc = run_cli(["features", str(sim_dir / "trace.csv"),
                        "--config", str(cfg)], cwd=workdir)
        assert proc.returncode == 2, line
        assert stderr_json(proc)["error"] == "ConfigError", line


def test_missing_input_file(workdir):
    proc = run_cli(["features", "nope.csv"], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "FormatError"
    assert doc["stage"] == "io"


def test_unknown_trace_column_rejected(workdir):
    bad = workdir / "bad_cols.csv"
    bad.write_text("t_s,i_total_A,vt_V,bogus\n0,1,4,0\n1,1,4,0\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert proc.returncode == 2
    assert "bogus" in stderr_json(proc)["message"]


def test_repeated_trace_column_reported(workdir):
    bad = workdir / "twice_cols.csv"
    bad.write_text("t_s,t_s,i_total_A,vt_V\n"
                   "0,100,-40,4.1\n1,200,-40,4.0\n2,300,-40,3.9\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "FormatError"
    assert doc["stage"] == "io"
    assert "'t_s'" in doc["message"]


def test_minimal_columns_reproduce_features(workdir, sim_dir):
    lines = (sim_dir / "trace.csv").read_text().splitlines()
    keep = [0, 1, 9]                 # t_s, i_total_A, vt_V
    slim = workdir / "slim.csv"
    slim.write_text("\n".join(
        ",".join(ln.split(",")[k] for k in keep) for ln in lines) + "\n")
    full = json.loads(run_cli(["features", str(sim_dir / "trace.csv")],
                              cwd=workdir).stdout)
    part = json.loads(run_cli(["features", str(slim)], cwd=workdir).stdout)
    assert part["height_V_per_Ah"] == pytest.approx(
        full["height_V_per_Ah"], rel=1e-9)
    assert part["skewness"] == pytest.approx(full["skewness"], abs=1e-9)
    assert part["q_at_peak_Ah"] == pytest.approx(full["q_at_peak_Ah"],
                                                 abs=1e-6)


def test_flags_override_config_file(workdir, sim_dir):
    cfg = workdir / "narrow.cfg"
    cfg.write_text("# narrower analysis band\nv_lo = 3.75\n")
    base = run_cli(["features", str(sim_dir / "trace.csv")], cwd=workdir)
    narrowed = run_cli(["features", str(sim_dir / "trace.csv"),
                        "--config", str(cfg)], cwd=workdir)
    restored = run_cli(["features", str(sim_dir / "trace.csv"),
                        "--config", str(cfg), "--v-lo", "3.7"], cwd=workdir)
    assert narrowed.returncode == 0 and restored.returncode == 0
    assert narrowed.stdout != base.stdout
    assert restored.stdout == base.stdout


def test_explicit_none_overrides_config_file(workdir):
    cfg = workdir / "tmax100.cfg"
    cfg.write_text("t_max_s = 100\n")
    out = workdir / "sim_tmax_none"
    proc = run_cli(["simulate", "--config", str(cfg), "--t-max-s", "none",
                    "--outdir", str(out)], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    side = json.loads((out / "trace.json").read_text())
    assert side["run_config"]["t_max_s"] is None
    assert side["sim_config"]["t_max"] == 54000.0
    assert side["termination_reason"] != "t_max"


def test_non_finite_trace_value_rejected(workdir, sim_dir):
    lines = (sim_dir / "trace.csv").read_text().splitlines()
    row = lines[5000].split(",")
    row[-1] = "nan"                  # vt_V, file line 5001
    lines[5000] = ",".join(row)
    bad = workdir / "nan_vt.csv"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "FormatError"
    assert doc["stage"] == "io"
    assert "vt_V" in doc["message"] and "line 5001" in doc["message"]


@pytest.mark.parametrize("name,row,where", [
    ("short_row", "1,-40", ["line 3", "vt_V"]),
    ("word_cell", "1,-40,abc", ["line 3", "vt_V", "'abc'"]),
])
def test_malformed_trace_row_rejected(workdir, name, row, where):
    bad = workdir / f"{name}.csv"
    bad.write_text(f"t_s,i_total_A,vt_V\n0,-40,4.1\n{row}\n2,-40,4.0\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "FormatError"
    assert doc["stage"] == "io"
    for part in where:
        assert part in doc["message"]


def test_outdir_env_and_sidecar(workdir, sim_dir):
    proc = run_cli(["features", str(sim_dir / "trace.csv"),
                    "--out", "feats.json"], cwd=workdir,
                   env_extra={"PAIRDVA_OUTDIR": str(workdir / "envout")})
    assert proc.returncode == 0, proc.stderr
    out = workdir / "envout" / "feats.json"
    side = workdir / "envout" / "feats.config.json"
    assert out.exists() and side.exists()
    assert str(out) in proc.stdout
    feats = json.loads(out.read_text())
    assert_provenance(feats)
    assert feats["fit"]["n_iter"] >= 1
    assert feats["fit"]["scaled_gradient"] >= 0.0
    doc = json.loads(side.read_text())
    assert_provenance(doc)
    cfg = doc["run_config"]
    assert cfg["v_lo"] == 3.7 and cfg["density_floor"] == 0.005


def test_unusable_windows_reported(workdir, sim_dir):
    # band above the whole curve: nothing to select
    proc = run_cli(["features", str(sim_dir / "trace.csv"),
                    "--v-lo", "4.7", "--v-hi", "4.9"], cwd=workdir)
    assert proc.returncode == 1
    doc = stderr_json(proc)
    assert doc["error"] == "EmptyWindowError"
    assert doc["stage"] == "downselect_window"
    # band on the upper OCV slope: samples exist but the curve is monotone
    proc = run_cli(["features", str(sim_dir / "trace.csv"),
                    "--v-lo", "4.2", "--v-hi", "4.4"], cwd=workdir)
    assert proc.returncode == 1
    doc = stderr_json(proc)
    assert doc["error"] == "NoPeakError"
    assert doc["stage"] == "peak_height"


def test_sweep_then_identify(workdir, sim_dir):
    out = workdir / "sweepout"
    proc = run_cli(["sweep", "--alpha-steps", "2", "--beta-steps", "2",
                    "--outdir", str(out)], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    fmap_lines = (out / "featuremap.csv").read_text().splitlines()
    assert fmap_lines[0] == FEATUREMAP_HEADER
    assert len(fmap_lines) == 1 + 4          # corners only
    curve_lines = (out / "product_curve.csv").read_text().splitlines()
    assert curve_lines[0] == PRODUCT_CURVE_HEADER
    assert len(curve_lines) == 1 + 3         # products 0.5, 1.0, 2.0
    assert_provenance(json.loads((out / "sweep.json").read_text()))

    feats = run_cli(["features", str(sim_dir / "trace.csv"),
                     "--out", "feats.json", "--outdir", str(out)],
                    cwd=workdir)
    assert feats.returncode == 0, feats.stderr
    ident = run_cli(["identify", str(out / "feats.json"),
                     str(out / "product_curve.csv"),
                     "--skew-resolution", "0.01"], cwd=workdir)
    assert ident.returncode == 0, ident.stderr
    doc = json.loads(ident.stdout)
    assert_provenance(doc)
    assert doc["p_hat"] == pytest.approx(1.0, abs=1e-6)
    assert doc["ambiguous"] is True
    assert doc["inputs"]["curve"].endswith("product_curve.csv")


SIM_KEYS = ["--c-rate", "--dt-s", "--z0", "--v-cutoff-v", "--soc-floor",
            "--t-max-s"]
ANALYSIS_KEYS = ["--dq-ah", "--sg-window", "--sg-order", "--v-lo", "--v-hi",
                 "--density-floor", "--fit-tol"]
GRID_KEYS = ["--alpha-min", "--alpha-max", "--alpha-steps", "--beta-min",
             "--beta-max", "--beta-steps", "--bin-width"]
COMMON = ["-h", "--help", "--config", "--outdir"]


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for a in p._actions for opt in a.option_strings)
             for name, p in sub.choices.items()}
    assert flags == {
        "simulate": sorted(COMMON + ["--out", "--alpha", "--beta",
                                     "--c-total-ah", "--r-parallel-ohm"]
                           + SIM_KEYS),
        "features": sorted(COMMON + ["--out"] + ANALYSIS_KEYS),
        "sweep": sorted(COMMON + ["--c-total-ah", "--r-parallel-ohm"]
                        + SIM_KEYS + ANALYSIS_KEYS + GRID_KEYS),
        "identify": sorted(COMMON + ["--out", "--skew-resolution"]),
    }
    defaults = {key: default for key, (_, default) in cli._SCHEMA.items()}
    assert list(defaults.items()) == [
        ("alpha", 1.0), ("beta", 1.0), ("c_total_ah", 120.0),
        ("r_parallel_ohm", 0.001), ("c_rate", 1.0 / 3.0), ("dt_s", 1.0),
        ("z0", 1.0), ("v_cutoff_v", 3.0), ("soc_floor", 0.02),
        ("t_max_s", None), ("dq_ah", 0.05), ("sg_window", 25),
        ("sg_order", 3), ("v_lo", 3.7), ("v_hi", 3.9),
        ("density_floor", 0.005), ("fit_tol", 0.005), ("alpha_min", 0.5),
        ("alpha_max", 1.0), ("alpha_steps", 11), ("beta_min", 1.0),
        ("beta_max", 2.0), ("beta_steps", 11), ("bin_width", 0.02),
        ("skew_resolution", None), ("outdir", None), ("out", None),
    ]
    ints = {key for key, (caster, _) in cli._SCHEMA.items() if caster is int}
    assert ints == {"sg_window", "sg_order", "alpha_steps", "beta_steps"}


def test_unit_suffixed_config_key_reaches_sim_config(workdir):
    cfg = workdir / "dt2.cfg"
    cfg.write_text("dt_s = 2.0\n")
    out = workdir / "sim_dt2"
    proc = run_cli(["simulate", "--config", str(cfg), "--outdir", str(out)],
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    side = json.loads((out / "trace.json").read_text())
    assert side["sim_config"]["dt"] == 2.0
    assert side["run_config"]["dt_s"] == 2.0

"""End-to-end command-line checks (subprocess level)."""

import argparse
import filecmp
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairdva
from pairdva import cli, fileio
from pairdva.fileio import (FEATUREMAP_HEADER, PRODUCT_CURVE_HEADER,
                            TRACE_HEADER)

GOLDEN = Path(__file__).parent / "data" / "golden_baseline_features.json"
# the children run in tmp dirs, where a relative PYTHONPATH entry no longer
# finds the package this process imported
PKG_ROOT = str(Path(pairdva.__file__).resolve().parents[1])


def run_python(args, cwd, env_extra=None, stdin=None):
    env = os.environ.copy()
    env.pop("PAIRDVA_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PKG_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, cwd=str(cwd),
                          env=env, timeout=600)


def run_cli(args, cwd, env_extra=None, stdin=None):
    return run_python(["-m", "pairdva", *args], cwd, env_extra, stdin)


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
    # the pair is stored as its two cells; (1, 1) halves the nameplate
    cell = {"capacity_ah": 60.0, "resistance_ohm": 0.002}
    assert side["params"] == {"cell1": cell, "cell2": cell}
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


@pytest.mark.parametrize("field,value,kind", [
    ("fit.converged", "false", "bool"), ("skewness", True, "number"),
    ("height_V_per_Ah", "0.015", "number"), ("fit.n_iter", 3.7, "integer")])
def test_mistyped_features_field_rejected(baseline_features, tmp_path, field,
                                          value, kind):
    doc = fileio.features_dict(baseline_features)
    *parents, key = field.split(".")
    target = doc[parents[0]] if parents else doc
    target[key] = value
    path = tmp_path / "features.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FormatError,
                       match=rf"field {field} holds .*, not a JSON {kind}$"):
        fileio.read_features_json(path)


@pytest.mark.parametrize("window, message", [
    (["a"], 'field window_V holds ["a"], not a list of two JSON numbers'),
    ([3.5, "4.0"], 'field window_V[1] holds "4.0", not a JSON number'),
    ([3.5, float("nan")], "field window_V[1] holds the non-finite value nan")],
    ids=["not_two_numbers", "not_a_number", "not_finite"])
def test_malformed_features_window_reported(baseline_features, workdir,
                                            window, message):
    doc = fileio.features_dict(baseline_features)
    doc["window_V"] = window
    path = workdir / "bad_window.json"
    path.write_text(json.dumps(doc))
    # the features file is read, and rejected, before the curve
    proc = run_cli(["identify", str(path), "nope.csv"], cwd=workdir)
    assert proc.returncode == 2
    err = stderr_json(proc)
    assert (err["error"], err["stage"]) == ("FormatError", "io")
    assert err["message"] == f"features file {path}: {message}"


def test_features_integer_past_float_range_rejected(baseline_features,
                                                   tmp_path):
    doc = fileio.features_dict(baseline_features)
    doc["skewness"] = 10 ** 400         # a JSON integer no float can hold
    path = tmp_path / "features.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FormatError,
                       match="field skewness holds the non-finite value inf"):
        fileio.read_features_json(path)


def _scaled_gradient_file(doc, path, raw):
    """doc written to path with raw JSON text as fit.scaled_gradient."""
    doc["fit"]["scaled_gradient"] = "@"
    path.write_text(json.dumps(doc).replace('"@"', raw))
    return path


@pytest.mark.parametrize("raw, value", [
    ("1e999", "inf"), ("-1e999", "-inf"), ("NaN", "nan")])
def test_non_finite_scaled_gradient_rejected(baseline_features, tmp_path,
                                             raw, value):
    path = _scaled_gradient_file(fileio.features_dict(baseline_features),
                                 tmp_path / "features.json", raw)
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_features_json(path)
    assert err.value.stage == "io"
    assert str(err.value) == (f"features file {path}: field "
                              f"fit.scaled_gradient holds the non-finite "
                              f"value {value}")


def test_identify_exits_2_on_a_non_finite_scaled_gradient(baseline_features,
                                                          workdir):
    path = _scaled_gradient_file(fileio.features_dict(baseline_features),
                                 workdir / "bad_gradient.json", "1e999")
    proc = run_cli(["identify", str(path), "nope.csv"], cwd=workdir)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    err = stderr_json(proc)
    assert (err["error"], err["stage"]) == ("FormatError", "io")
    assert err["message"] == (f"features file {path}: field "
                              f"fit.scaled_gradient holds the non-finite "
                              f"value inf")


@pytest.mark.parametrize("text, where", [
    ("[]", "the document holds []"), ("5", "the document holds 5"),
    ('"s"', 'the document holds "s"'), ("null", "the document holds null"),
    ('{"fit": 3}', "field fit holds 3")])
def test_features_document_not_an_object_rejected(capsys, tmp_path, text,
                                                  where):
    path = tmp_path / "features.json"
    path.write_text(text)
    message = f"features file {path}: {where}, not a JSON object"
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_features_json(path)
    assert (err.value.stage, str(err.value)) == ("io", message)
    # the features file is read, and rejected, before the curve
    assert cli.main(["identify", str(path), "nope.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    line, = err.strip().splitlines()
    assert json.loads(line) == {"error": "FormatError", "stage": "io",
                                "message": message}


def test_long_features_value_echo_is_cut(baseline_features, workdir):
    doc = fileio.features_dict(baseline_features)
    doc["skewness"] = [doc["skewness"]] * 100_000
    path = workdir / "long_skewness.json"
    path.write_text(json.dumps(doc))
    text = json.dumps(doc["skewness"])
    message = (f"features file {path}: field skewness holds "
               f"{text[:fileio.ECHO_CHARS]}... ({len(text)} characters), "
               f"not a JSON number")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_features_json(path)
    assert (err.value.stage, str(err.value)) == ("io", message)
    assert len(message) < len(str(path)) + 200
    # the features file is read, and rejected, before the curve
    proc = run_cli(["identify", str(path), "nope.csv"], cwd=workdir)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert len(proc.stderr.encode()) < 1000
    assert stderr_json(proc) == {"error": "FormatError", "stage": "io",
                                 "message": message}


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


@pytest.mark.parametrize("flags,field", [
    (["--t-max-s", "inf"], "t_max"), (["--c-total-ah", "inf"], "c_total"),
    (["--r-parallel-ohm", "inf"], "r_parallel"), (["--dt-s", "inf"], "dt"),
    (["--c-rate", "inf", "--t-max-s", "100"], "c_rate")])
def test_non_finite_setting_exits_with_config_error(workdir, flags, field):
    proc = run_cli(["simulate", *flags, "--outdir", "non_finite"],
                   cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    doc = stderr_json(proc)
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"] == f"{field} must be positive and finite"
    assert not (workdir / "non_finite").exists()


@pytest.mark.parametrize("flags", [
    ["--c-rate", "1e-320", "--t-max-s", "100"], ["--c-total-ah", "1e306"]])
def test_extreme_finite_setting_has_no_traceback(workdir, flags):
    # a zero or subnormal SOC step once overflowed the SOC-floor step bound
    proc = run_cli(["simulate", *flags, "--outdir", "extreme"], cwd=workdir)
    assert "Traceback" not in proc.stderr
    if proc.returncode != 0:
        assert proc.returncode == 2, proc.stderr
        assert stderr_json(proc)["error"] == "ConfigError"


ONE_CELL = ["--alpha-steps", "1", "--beta-steps", "1"]


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--dq-ah", "inf", *ONE_CELL], "ConfigError"),
    (["sweep", "--dq-ah", "1e308", *ONE_CELL], "SweepError"),
    (["sweep", "--dq-ah", "1e-300", *ONE_CELL], "ConfigError"),
    (["features", "TRACE", "--dq-ah", "1e-300"], "SpanError")])
def test_extreme_grid_spacing_has_no_traceback(workdir, sim_dir, argv, error):
    # a reach of inf Ah once overflowed its conversion to steps, and a grid
    # too fine to allocate reached np.arange
    argv = [str(sim_dir / "trace.csv") if a == "TRACE" else a for a in argv]
    proc = run_cli([*argv, "--outdir", "spacing"], cwd=workdir)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert stderr_json(proc)["error"] == error
    assert proc.returncode == (2 if error == "ConfigError" else 1)


def test_one_row_trace_names_its_row_count(capsys, tmp_path, sim_dir):
    # the file a run ending at its first sample would write
    header, first = (sim_dir / "trace.csv").read_text().splitlines()[:2]
    one = tmp_path / "one_row.csv"
    one.write_text(f"{header}\n{first}\n")
    assert cli.main(["features", str(one), "--outdir", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (doc["error"], doc["message"]) == (
        "FormatError", f"{one} has 1 usable data row; a trace needs at "
        "least 2")


def test_overflowing_current_exits_with_config_error(workdir):
    proc = run_cli(["simulate", "--c-rate", "1e300", "--c-total-ah", "1e300",
                    "--t-max-s", "100", "--outdir", "overflow"], cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    doc = stderr_json(proc)
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"] == "discharge current -inf A is not finite"
    assert "Warning" not in proc.stderr
    assert not (workdir / "overflow").exists()


def test_run_past_the_step_limit_exits_with_config_error(workdir):
    # about 1e15 steps to the time limit: the run is refused before any
    # buffer is sized by it
    proc = run_cli(["simulate", "--c-rate", "1e-12", "--t-max-s", "1e15",
                    "--outdir", "step_limit"], cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    doc = stderr_json(proc)
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"] == (
        "a run at c_rate 1e-12, dt_s 1 and t_max_s 1e+15 may take "
        "1,000,000,000,000,002 steps, more than 10,000,000")
    assert not (workdir / "step_limit").exists()


@pytest.mark.parametrize("flags,field", [
    (["--alpha-steps", "-1"], "alpha_steps"),
    (["--bin-width", "0"], "bin_width"), (["--bin-width", "inf"], "bin_width"),
    (["--c-total-ah", "0"], "c_total"),
    (["--r-parallel-ohm", "-1"], "r_parallel")])
def test_bad_grid_rejected_before_the_sweep(monkeypatch, capsys, tmp_path,
                                            flags, field):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the settings were checked")

    monkeypatch.setattr(pairdva.sweep, "simulate_cc_discharge", no_cell)
    out = tmp_path / "out"
    assert cli.main(["sweep", *flags, "--outdir", str(out)]) == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"].startswith(f"{field} must")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--c-rate", "1e-12", "--t-max-s", "1e15"],
     "a run at c_rate 1e-12, dt_s 1 and t_max_s 1e+15 may take"),
    (["sweep", "--c-rate", "1e300", "--c-total-ah", "1e300", "--t-max-s",
      "100"], "discharge current -inf A is not finite"),
    (["sweep", "--v-lo", "3.9", "--v-hi", "3.7"], "v_lo and v_hi must"),
    (["features", "TRACE", "--v-lo", "3.9", "--v-hi", "3.7"],
     "v_lo and v_hi must"),
    (["features", "TRACE", "--v-lo", "nan"], "v_lo and v_hi must"),
    (["features", "TRACE", "--density-floor", "nan"], "density_floor must"),
    (["features", "TRACE", "--fit-tol", "-1"], "fit_tol must"),
    (["simulate", "--z0", "0.01"], "z0 0.01 must lie above soc_floor 0.02"),
    (["sweep", "--z0", "0.02"], "z0 0.02 must lie above soc_floor 0.02"),
    (["simulate", "--z0", "0.03", "--v-cutoff-v", "3.4"],
     "the first sample's voltage 3.3549 V, at z0 0.03, is at or below "
     "v_cutoff 3.4"),
    (["sweep", "--z0", "0.03", "--v-cutoff-v", "3.4"],
     "the first sample's voltage 3.3549 V"),
    (["sweep", "--dq-ah", "1e-300", "--alpha-steps", "2", "--beta-steps",
      "1"], "dq_ah 1e-300 puts 1.111e+298 grid points on one step's")])
def test_bad_setting_exits_2_before_any_sweep_cell(monkeypatch, capsys,
                                                   tmp_path, sim_dir, argv,
                                                   message):
    # a discharge every sweep cell would refuse, and an analysis setting
    # out of range, are refused once where the settings are built, not by
    # each cell or by the pipeline stage that first trips on them
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the settings were checked")

    monkeypatch.setattr(pairdva.sweep, "simulate_cc_discharge", no_cell)
    out = tmp_path / "out"
    argv = [str(sim_dir / "trace.csv") if a == "TRACE" else a for a in argv]
    assert cli.main([*argv, "--outdir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    line, = err.strip().splitlines()
    doc = json.loads(line)
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--alpha-steps", "2.5"],
     "argument --alpha-steps: invalid int value: '2.5'"),
    (["features"], "the following arguments are required: trace"),
    (["simulate", "--frobnicate", "1"],
     "unrecognized arguments: --frobnicate 1"),
    ([], "the following arguments are required: command")])
def test_flag_error_is_one_json_line(capsys, argv, message):
    # as the same value in a config file is, not argparse's usage text
    assert cli.main(argv) == 2
    assert_one_error(capsys, "ConfigError", "config", message)


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["sweep", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pairdva sweep ")


def test_sweep_whose_every_cell_fails_keeps_its_record(capsys, tmp_path):
    # both cells fail at peak_height; the feature map and sweep.json are
    # written before binning fails
    assert cli.main(["sweep", "--v-lo", "4.5", "--v-hi", "4.6",
                     "--alpha-steps", "2", "--beta-steps", "1",
                     "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.split() == [str(tmp_path / "featuremap.csv"),
                           str(tmp_path / "sweep.json")]
    line, = err.strip().splitlines()
    assert json.loads(line) == {
        "error": "SweepError", "stage": "product_curve",
        "message": "no successful sweep cells to bin: 2 failed "
                   "(NoPeakError at peak_height: 2)"}
    rows = (tmp_path / "featuremap.csv").read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["NoPeakError"] * 2
    side = json.loads((tmp_path / "sweep.json").read_text())
    assert (side["n_ok"], side["n_cells"]) == (0, 2)
    assert {f["stage"] for f in side["failures"]} == {"peak_height"}
    assert side["cell_counts"] == [
        {"status": "NoPeakError", "stage": "peak_height", "n": 2}]
    assert side["worst_residual_rms_V"] is None
    assert not (tmp_path / "product_curve.csv").exists()


def test_sweep_json_counts_cells_and_gives_the_worst_fit(tmp_path):
    assert cli.main(["sweep", "--alpha-steps", "3", "--beta-steps", "3",
                     "--outdir", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "sweep.json").read_text())
    assert side["cell_counts"] == [{"status": "ok", "stage": None, "n": 9}]
    # the same grid swept in process, at the JSON's 12 digits
    fmap = pairdva.run_sweep(side["alpha_grid"], side["beta_grid"])
    worst = max(c.features.fit.residual_rms for c in fmap.cells)
    assert side["worst_residual_rms_V"] == float(fileio.fmt(worst))
    assert 0.0 < worst < 1e-3


def test_sweep_ignores_a_shared_configs_pair_ratios(workdir):
    # a config file shared with simulate may hold ratios that are out of
    # range for one pair; the sweep's grid takes their place
    path = workdir / "shared_ratios.cfg"
    path.write_text("alpha = 1.5\nbeta = 0.5\n")
    proc = run_cli(["sweep", "--config", str(path), "--alpha-steps", "1",
                    "--beta-steps", "1", "--outdir", "shared_ratios"],
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr


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


def assert_one_error(capsys, error, stage, message):
    """One JSON error line on stderr, and nothing on stdout."""
    out, err = capsys.readouterr()
    assert out == ""
    line, = err.strip().splitlines()
    assert json.loads(line) == {"error": error, "stage": stage,
                                "message": message}


def test_simulate_rejects_stdout_as_its_base_name(capsys, tmp_path):
    assert cli.main(["simulate", "--outdir", str(tmp_path),
                     "--out", "-"]) == 2
    assert_one_error(capsys, "ConfigError", "config",
                     "--out takes simulate's output base name; simulate "
                     "writes two files, not stdout (-)")
    assert list(tmp_path.iterdir()) == []


def test_output_in_a_missing_directory_exits_2(capsys, tmp_path, sim_dir):
    assert cli.main(["simulate", "--outdir", str(tmp_path),
                     "--out", "nodir/trace"]) == 2
    path = tmp_path / "nodir" / "trace.csv"
    assert_one_error(capsys, "FormatError", "io",
                     f"cannot write {path}: [Errno 2] No such file or "
                     f"directory: '{path}'")
    assert cli.main(["features", str(sim_dir / "trace.csv"), "--outdir",
                     str(tmp_path), "--out", "nodir/f.json"]) == 2
    path = tmp_path / "nodir" / "f.json"
    assert_one_error(capsys, "FormatError", "io",
                     f"cannot write {path}: [Errno 2] No such file or "
                     f"directory: '{path}'")
    assert list(tmp_path.iterdir()) == []


def test_one_parser_carries_no_setting_between_calls(capsys, tmp_path,
                                                     sim_dir):
    assert cli.build_parser() is cli.build_parser()
    trace = sim_dir / "trace.csv"
    assert cli.main(["features", str(trace), "--dq-ah", "0.1",
                     "--out", "a.json", "--outdir", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    assert out.split() == [str(tmp_path / "a.json"),
                           str(tmp_path / "a.config.json")]
    side = json.loads((tmp_path / "a.config.json").read_text())
    assert side["run_config"]["dq_ah"] == 0.1
    # the second call names neither: stdout and the default dq_ah
    assert cli.main(["features", str(trace)]) == 0
    out, err = capsys.readouterr()
    feats = pairdva.extract_features(fileio.read_trace_csv(trace))
    assert (out, err) == (fileio.dumps_json(fileio.features_dict(feats)), "")
    assert out != (tmp_path / "a.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.config.json",
                                                          "a.json"]


def test_outdir_under_a_file_exits_2(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "out"
    assert cli.main(["simulate", "--outdir", str(outdir)]) == 2
    assert_one_error(capsys, "FormatError", "io",
                     f"cannot write {outdir}: [Errno 20] Not a directory: "
                     f"'{outdir}'")


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


def test_byte_order_mark_gives_the_same_features(workdir, sim_dir):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    lines = (sim_dir / "trace.csv").read_text().splitlines()
    slim = "".join(",".join(ln.split(",")[k] for k in (0, 1, 9)) + "\n"
                   for ln in lines)
    plain, marked = workdir / "plain.csv", workdir / "bom.csv"
    plain.write_text(slim)
    marked.write_bytes(b"\xef\xbb\xbf" + slim.encode())
    want = run_cli(["features", str(plain)], cwd=workdir)
    got = run_cli(["features", str(marked)], cwd=workdir)
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout) == json.loads(want.stdout)


def trace_lines(sim_dir, columns=None, blank=None):
    """The simulated trace CSV's lines, with their newlines: only the
    given columns, if any, and a whitespace-only line as file line blank,
    if given."""
    lines = (sim_dir / "trace.csv").read_text().splitlines()
    if columns:
        lines = [",".join(ln.split(",")[k] for k in columns) for ln in lines]
    if blank:
        lines.insert(blank - 1, "  ")
    return [ln + "\n" for ln in lines]


@pytest.mark.parametrize("columns,blank", [
    ((0, 1, 9), None), (None, None), ((0, 1, 9), 2000),
], ids=["slim", "full", "slim_blank_line"])
def test_piped_trace_reads_like_the_file(workdir, sim_dir, columns, blank):
    # every pass of the reader reads the one open input from its start; a
    # pipe, which cannot be rewound, is held in memory for the read, so
    # the pass that drops a whitespace-only line reads it like the file
    text = "".join(trace_lines(sim_dir, columns, blank))
    path = workdir / f"pipe_{len(columns or ())}_{blank}.csv"
    path.write_text(text)
    want = run_cli(["features", str(path)], cwd=workdir)
    got = run_cli(["features", "/dev/stdin"], cwd=workdir, stdin=text)
    assert want.returncode == 0 and got.returncode == 0, got.stderr
    assert got.stdout == want.stdout


def test_piped_read_drops_a_whitespace_only_line(sim_dir, tmp_path):
    # 300 data rows and a whitespace-only file line 150: about 10 kB, which
    # the pipe's buffer holds before the read starts
    text = "".join(trace_lines(sim_dir, (0, 1, 9), 150)[:302])
    path = tmp_path / "blank150.csv"
    path.write_text(text)
    want = fileio.read_trace_csv(path)
    read, write = os.pipe()
    with os.fdopen(write, "w") as pipe:
        pipe.write(text)
    try:
        got = fileio.read_trace_csv(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert len(want) == 300
    for field, _ in fileio.TRACE_COLUMNS.values():
        assert np.array_equal(getattr(got, field), getattr(want, field))


def assert_one_read_error(proc, message):
    """Exit 2 with one JSON FormatError line on stderr, no traceback."""
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    doc = stderr_json(proc)
    assert (doc["error"], doc["stage"]) == ("FormatError", "io")
    assert doc["message"].startswith(message)


def test_latin1_config_comment_rejected(workdir):
    # a Latin-1 degree sign, as an editor in a Western locale saves it
    cfg = workdir / "latin1.cfg"
    cfg.write_bytes(b"# cell at 25 \xb0C\nc_rate = 0.5\n")
    proc = run_cli(["simulate", "--config", str(cfg), "--outdir",
                    str(workdir / "latin1")], cwd=workdir)
    assert_one_read_error(proc, f"cannot read config file {cfg}: ")


def test_latin1_features_file_rejected(baseline_features, workdir):
    path = workdir / "latin1.json"
    text = fileio.dumps_json(fileio.features_dict(baseline_features))
    path.write_bytes(text.replace('"numpy"', '"numpy \xb0C"')
                     .encode("latin-1"))
    # the features file is read, and rejected, before the curve
    proc = run_cli(["identify", str(path), "nope.csv"], cwd=workdir)
    assert_one_read_error(proc, f"cannot read features file {path}: ")


def test_form_feed_in_a_config_line_keeps_the_line_whole(tmp_path):
    # str.splitlines breaks at a form feed; the file's line does not
    cfg = tmp_path / "feed.cfg"
    cfg.write_text("dt_s = 2.0\x0c x\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config_file(cfg)
    assert err.value.stage == "config"
    assert str(err.value).startswith("config key 'dt_s': bad value "
                                     r"'2.0\x0c x' (")


def test_byte_order_mark_config_is_read(workdir):
    cfg, out = workdir / "bom.cfg", workdir / "bomcfg"
    cfg.write_bytes(b"\xef\xbb\xbfc_rate = 0.5\nt_max_s = 100\n")
    proc = run_cli(["simulate", "--config", str(cfg), "--outdir", str(out)],
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    side = json.loads((out / "trace.json").read_text())
    assert (side["sim_config"]["c_rate"], side["sim_config"]["t_max"]) == (
        0.5, 100.0)


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


def test_repeated_timestamp_names_sample(workdir):
    # a repeated t_s gives two samples with the same charge
    bad = workdir / "repeated_t.csv"
    bad.write_text("t_s,i_total_A,vt_V\n0,-40,4.1\n1,-40,4.0\n"
                   "1,-40,3.95\n2,-40,3.9\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert proc.returncode == 2
    doc = stderr_json(proc)
    assert doc["error"] == "FormatError"
    # the reader accepts the file; the resample stage rejects its charge
    assert doc["stage"] == "resample"
    assert doc["message"].endswith(
        "not strictly increasing: 0.011111111111111112 at sample 2 after "
        "0.011111111111111112")


def test_charge_segment_in_a_discharge_rejected(workdir, sim_dir):
    # a three-column trace sampled every 5 s with a 10-minute 20 A charge
    # pulse from t = 3000 s: the charge column cannot be rebuilt from |i|
    lines = (sim_dir / "trace.csv").read_text().splitlines()
    rows = ["t_s,i_total_A,vt_V"]
    for ln in lines[1::5]:
        t, i, v = (ln.split(",")[k] for k in (0, 1, 9))
        rows.append(f"{t},{20 if 3000 <= float(t) < 3600 else i},{v}")
    bad = workdir / "charge_pulse.csv"
    bad.write_text("\n".join(rows) + "\n")
    proc = run_cli(["features", str(bad)], cwd=workdir)
    assert_one_read_error(proc, f"{bad} line 602: column i_total_A holds "
                                f"20 A, of the other sign from the -40 A "
                                f"on line 2")


# a trace whose file line 500 is given, and the error that names it
PIPED_TRACE_ERRORS = {
    "sign": ("{t},40.000,{v}", "line 500: column i_total_A holds 40 A, of "
             "the other sign from the -40 A on line 2"),
    "cell": ("{t},-40,abc\n", "line 500: column vt_V holds the non-numeric "
             "value 'abc'"),
}


@pytest.mark.parametrize("case", ["sign", "cell", "curve"])
def test_piped_input_error_names_the_file_line(workdir, sim_dir, case):
    # a bad row, or a row that breaks a rule of its format, is named by its
    # file line, read again from the start of the one open input, a pipe's
    # too
    if case == "curve":
        text = (f"{PRODUCT_CURVE_HEADER}\n0.5,0.01,-0.2,0.001,0.01,3\n"
                "1,0.016,0,0.001,0.01,2.5\n2,0.01,0.2,0.001,0.01,3\n")
        args = ["identify", str(GOLDEN)]
        message = "line 3: column n holds the non-integer value 2.5"
    else:
        row, message = PIPED_TRACE_ERRORS[case]
        lines = trace_lines(sim_dir, (0, 1, 9))
        t, _, v = lines[499].split(",")
        lines[499] = row.format(t=t, v=v)
        text, args = "".join(lines), ["features"]
    path = workdir / f"piped_{case}_error.csv"
    path.write_text(text)
    want = run_cli([*args, str(path)], cwd=workdir)
    got = run_cli([*args, "/dev/stdin"], cwd=workdir, stdin=text)
    assert_one_read_error(want, f"{path} {message}")
    assert_one_read_error(got, f"/dev/stdin {message}")
    assert stderr_json(got)["message"] == stderr_json(want)["message"].replace(
        str(path), "/dev/stdin")


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
    assert doc["stage"] == "dvdq_curve"
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
    # the cells' record first, then the curve binned from it
    assert proc.stdout.split() == [str(out / name) for name in (
        "featuremap.csv", "sweep.json", "product_curve.csv")]
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


@pytest.mark.parametrize("resolution", ["-1", "nan", "inf"])
def test_bad_skew_resolution_exits_with_config_error(capsys, tmp_path,
                                                     resolution):
    curve = tmp_path / "curve.csv"
    curve.write_text(f"{PRODUCT_CURVE_HEADER}\n0.5,0.01,-0.2,0.001,0.01,3\n"
                     "1,0.016,0,0.001,0.01,3\n2,0.01,0.2,0.001,0.01,3\n")
    assert cli.main(["identify", str(GOLDEN), str(curve),
                     "--skew-resolution", resolution]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    line, = err.strip().splitlines()
    doc = json.loads(line)
    assert (doc["error"], doc["stage"]) == ("ConfigError", "config")
    assert doc["message"].startswith("skew_resolution must")


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


def test_package_surface_is_pinned():
    assert sorted(pairdva.__all__) == [
        "AnalysisConfig", "Candidate", "CellParams", "ConfigError",
        "DvDqCurve", "EmptyWindowError", "FeatureError", "FeatureMap",
        "FitWarning", "FormatError", "GridConfig", "IdentificationResult",
        "IdentifyError", "IntegrationError", "NoPeakError", "PairDvaError",
        "PairSpec", "PeakFeatures", "PeakSample", "ProductBin",
        "ProductCurve", "SimConfig", "SimTrace", "SmoothingConfig",
        "SpanError", "SurrogateFit", "SweepCell", "SweepError",
        "VOLTAGE_WINDOW", "__version__", "backend", "docv_dz",
        "downselect_window", "dvdq_curve", "extract_features",
        "fit_positive_surrogate", "identify_product", "make_pair", "ocv",
        "peak_height", "product_curve", "resample_uniform_q", "run_sweep",
        "simulate_cc_discharge", "single_cell_reference",
        "skewness_pipeline", "weighted_skewness",
    ]


def _benchmark_tracing():
    # the benchmark's tracer imports only the standard library, so it
    # loads from its file without the benchmark's own imports
    path = Path(__file__).parents[1] / "pipebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("pipebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_finds_the_names_it_calls():
    for name in _benchmark_tracing().LAYERS:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"pairdva.{module}"),
                                attr, None)), name
    for name in ("backend", "make_pair", "SweepCell", "FeatureMap",
                 "PeakFeatures"):
        assert hasattr(pairdva, name), name


def test_traced_sweep_times_its_discharges():
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    with tracing.patched(tracing.bindings(tracer)), tracer.operation(0):
        pairdva.run_sweep([1.0], [1.0])
    metrics = tracing.layer_metrics(tracing.layer_table(tracer.spans))
    assert metrics["pairsim.simulate_s"][0] > 0.0


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


NO_SCIPY_CHILD = r"""
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import pairdva
assert not scipy_modules(), scipy_modules()[:3]


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, BlockScipy())
from pairdva import cli, fileio

assert cli.main(["simulate", "--alpha", "0.7", "--beta", "1.6",
                 "--outdir", "sim"]) == 0
assert cli.main(["features", "sim/trace.csv", "--outdir", "sim",
                 "--out", "features.json"]) == 0
rows = open("sim/trace.csv").read().splitlines()
with open("slim.csv", "w") as f:
    f.writelines(",".join(r.split(",")[k] for k in (0, 1, 9)) + "\n"
                 for r in rows)
assert not fileio.read_trace_csv("slim.csv").has_cell2
assert cli.main(["features", "slim.csv", "--out", "slim.json"]) == 0
assert not scipy_modules(), scipy_modules()[:3]
"""


def test_runtime_runs_without_scipy(tmp_path):
    proc = run_python(["-c", NO_SCIPY_CHILD], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sim" / "features.json").is_file()
    assert (tmp_path / "slim.json").is_file()

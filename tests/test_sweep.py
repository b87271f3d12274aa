"""Grid sweeps, product-curve collapse, and identification."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairdva import (AnalysisConfig, ConfigError, FeatureError, GridConfig,
                     IdentifyError, PairDvaError, SimConfig, SmoothingConfig,
                     SweepError, extract_features, fileio, identify_product,
                     make_pair, product_curve, resample_uniform_q, run_sweep,
                     simulate_cc_discharge, sweep)


def test_default_grids():
    a = GridConfig().alpha_grid
    b = GridConfig().beta_grid
    assert len(a) == 11 and a[0] == 0.5 and a[-1] == 1.0
    assert len(b) == 11 and b[0] == 1.0 and b[-1] == 2.0


@pytest.mark.parametrize("kw", [
    {"alpha_steps": 0}, {"beta_steps": -1}, {"alpha_min": 0.0},
    {"alpha_max": 1.5}, {"beta_min": 0.5}, {"beta_max": np.inf},
    {"bin_width": 0.0}, {"bin_width": np.inf}])
def test_grid_config_validated(kw):
    name = next(iter(kw))
    with pytest.raises(ConfigError, match=f"^{name} must"):
        GridConfig(**kw)


@pytest.mark.parametrize("kw", [
    {"c_total": 0.0}, {"c_total": np.inf}, {"r_parallel": -1.0},
    {"alpha_grid": [np.nan]}, {"beta_grid": [np.inf]},
    {"beta_grid": [np.nan]}])
def test_run_sweep_checks_the_nameplate_first(monkeypatch, kw):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the nameplate was checked")

    monkeypatch.setattr(sweep, "simulate_cc_discharge", no_cell)
    name = next(iter(kw)).removesuffix("_grid")
    with pytest.raises(ConfigError, match=f"^{name} must"):
        run_sweep(**{"alpha_grid": [1.0], "beta_grid": [1.0], **kw})


@pytest.mark.parametrize("kw, message", [
    ({"sim_config": SimConfig(c_rate=1e-12, t_max=1e15)},
     "a run at c_rate 1e-12, dt_s 1 and t_max_s 1e+15 may take"),
    ({"sim_config": SimConfig(c_rate=1e300, t_max=100.0), "c_total": 1e300},
     "discharge current -inf A is not finite")])
def test_run_sweep_checks_the_discharge_first(monkeypatch, kw, message):
    # a discharge every cell would refuse is refused once, with the
    # nameplate, instead of failing each cell
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the discharge was checked")

    monkeypatch.setattr(sweep, "simulate_cc_discharge", no_cell)
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        run_sweep([0.5, 1.0], [1.0, 2.0], **kw)


@pytest.mark.parametrize("alpha_grid, beta_grid", [
    ([], [1.0]), ([1.0], []), ([[1.0]], [1.0])])
def test_run_sweep_rejects_an_empty_or_nested_grid(alpha_grid, beta_grid):
    with pytest.raises(ConfigError,
                       match="^grids must be nonempty 1-d arrays$") as err:
        run_sweep(alpha_grid, beta_grid)
    assert err.value.stage == "config"


def test_product_curve_rejects_infinite_bin_width(default_sweep):
    with pytest.raises(ConfigError, match="^bin_width must"):
        product_curve(default_sweep, np.inf)


def test_sweep_cells_are_row_major_and_match_single_runs():
    grid_a, grid_b = [0.5, 0.75, 1.0], [1.0, 1.5, 2.0]
    fmap = run_sweep(alpha_grid=grid_a, beta_grid=grid_b)
    assert [(c.alpha, c.beta) for c in fmap.cells] == [
        (a, b) for a in grid_a for b in grid_b]
    for cell in fmap.cells:
        want = extract_features(
            simulate_cc_discharge(make_pair(cell.alpha, cell.beta)))
        assert cell.features.height == want.height
        assert cell.features.skewness == want.skewness


def _outcome(run):
    """What run() returns, or its error's class name, stage and message."""
    try:
        return run()
    except PairDvaError as err:
        return type(err).__name__, err.stage, str(err)


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(alpha=st.floats(0.5, 1.0), beta=st.floats(1.0, 2.0),
       c_rate=st.floats(0.2, 1.0),
       sg_window=st.integers(4, 50).map(lambda k: 2 * k + 1),
       dq_ah=st.floats(0.01, 0.2), v_lo=st.floats(3.7, 3.76))
def test_stopped_cell_runs_give_the_full_runs_features(alpha, beta, c_rate,
                                                       sg_window, dq_ah,
                                                       v_lo):
    # a sweep cell's discharge stops just past the voltage window; its
    # features, or its error, are those of the whole discharge
    cfg = SimConfig(c_rate=c_rate)
    analysis = AnalysisConfig(
        smoothing=SmoothingConfig(dq_ah=dq_ah, sg_window=sg_window),
        v_lo=v_lo)
    runs = []
    discharge = sweep.simulate_cc_discharge
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sweep, "simulate_cc_discharge",
                        lambda *args, **kw: runs.append(discharge(*args, **kw))
                        or runs[-1])
        cell, = run_sweep([alpha], [beta], sim_config=cfg,
                          analysis=analysis).cells
    full = simulate_cc_discharge(make_pair(alpha, beta), cfg)
    stopped, = runs
    assert stopped.reason == "past_window" and len(stopped) < len(full)
    # the stopped run's charge grid holds a smoothing half-window and one
    # central difference past the window's last sample
    _, v = resample_uniform_q(stopped, dq_ah)
    inside = np.flatnonzero((v >= v_lo) & (v <= analysis.v_hi))
    assert len(v) >= inside[-1] + 1 + sg_window // 2 + 1
    got = cell.features if cell.ok else (cell.status, cell.stage,
                                         cell.message)
    assert got == _outcome(lambda: extract_features(full, analysis))


@pytest.mark.parametrize("z0", [0.504, 0.514])
def test_run_stopped_near_its_start_fails_as_the_full_run(z0):
    # the discharge starts 10-20 mV above the window's low edge; its run is
    # held until the charge grid has the samples the curve needs, so the
    # cell fails as the whole discharge does, not for a short trace
    cfg = SimConfig(z0=z0)
    cell, = run_sweep([1.0], [1.0], sim_config=cfg).cells
    full = simulate_cc_discharge(make_pair(1.0, 1.0), cfg)
    assert (cell.status, cell.stage, cell.message) == _outcome(
        lambda: extract_features(full))


@pytest.mark.parametrize("dq_ah", [1e308])
def test_extreme_grid_spacing_fails_its_cells(dq_ah):
    # a reach of inf Ah is capped at the run's step limit
    analysis = AnalysisConfig(smoothing=SmoothingConfig(dq_ah=dq_ah))
    cell, = run_sweep([1.0], [1.0], analysis=analysis).cells
    assert (cell.status, cell.stage) == ("SpanError", "resample")


def test_grid_no_cell_can_hold_refused_before_any_cell(monkeypatch):
    # one step's charge is 40 A * 1 s / 3600 = 1/90 Ah; a grid whose
    # spacing puts more than 10,000,000 points in it is refused once, and
    # one a little coarser is left to each cell, whose run spans many steps
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was checked")

    step_ah = 40.0 / 3600.0
    too_fine = AnalysisConfig(
        smoothing=SmoothingConfig(dq_ah=step_ah / 1.01e7))
    with monkeypatch.context() as patched:
        patched.setattr(sweep, "simulate_cc_discharge", no_cell)
        with pytest.raises(ConfigError, match=(
                r"^dq_ah 1\.10011e-09 puts 1\.01e\+07 grid points on one "
                r"step's charge, more than 10,000,000$")) as err:
            run_sweep([1.0, 0.9], [1.0], analysis=too_fine)
    assert err.value.stage == "config"
    coarser = AnalysisConfig(
        smoothing=SmoothingConfig(dq_ah=step_ah / 0.99e7))
    cell, = run_sweep([1.0], [1.0], analysis=coarser).cells
    assert (cell.status, cell.stage) == ("SpanError", "resample")


def test_sweep_records_failures_instead_of_raising():
    fmap = run_sweep(alpha_grid=[1.0], beta_grid=[1.0],
                     sim_config=SimConfig(t_max=600.0))
    cell = fmap.cells[0]
    assert not cell.ok
    assert cell.status == "EmptyWindowError"
    assert cell.features is None
    with pytest.raises(SweepError, match=r"^no successful sweep cells to "
                       r"bin: 1 failed \(EmptyWindowError at dvdq_curve: "
                       r"1\)$"):
        product_curve(fmap)


def test_failed_cell_keeps_stage_and_message(monkeypatch, tmp_path):
    def fail_weak_cell(trace, analysis):
        if trace.params.alpha < 1.0:
            raise FeatureError("forced failure")
        return extract_features(trace, analysis)

    monkeypatch.setattr(sweep, "extract_features", fail_weak_cell)
    fmap = run_sweep(alpha_grid=[0.9, 1.0], beta_grid=[1.0])
    bad, good = fmap.cells
    assert (bad.status, bad.stage, bad.message) == (
        "FeatureError", "skewness_pipeline", "forced failure")
    assert good.ok and good.stage is None and good.message is None
    side = fileio.sweep_sidecar(fmap, run_config={})
    assert side["failures"] == [
        {"alpha": 0.9, "beta": 1.0, "status": "FeatureError",
         "stage": "skewness_pipeline", "message": "forced failure"}]
    assert side["cell_counts"] == [
        {"status": "FeatureError", "stage": "skewness_pipeline", "n": 1},
        {"status": "ok", "stage": None, "n": 1}]
    assert side["worst_residual_rms_V"] == good.features.fit.residual_rms
    fileio.write_featuremap_csv(fmap, tmp_path / "featuremap.csv")
    rows = (tmp_path / "featuremap.csv").read_text().splitlines()
    assert rows[1] == "0.9,1,0.9,nan,nan,FeatureError"
    assert rows[2].endswith(",ok")


def test_cell_lookup(default_sweep):
    cell = default_sweep.cell(0.5, 2.0)
    assert cell.product == pytest.approx(1.0)
    with pytest.raises(KeyError):
        default_sweep.cell(0.51, 1.0)


def test_unit_product_cells_match_baseline(default_sweep, baseline_features):
    h0 = baseline_features.height
    s0 = baseline_features.skewness
    for cell in default_sweep.cells:
        if abs(cell.product - 1.0) < 1e-12:
            assert cell.ok
            assert abs(cell.features.height - h0) <= 0.01 * h0
            assert abs(cell.features.skewness - s0) <= 0.02


def test_height_decreases_with_either_imbalance(default_sweep):
    alphas = sorted({c.alpha for c in default_sweep.cells}, reverse=True)
    row = [default_sweep.cell(a, 1.0).features.height for a in alphas]
    assert all(row[i + 1] < row[i] for i in range(len(row) - 1))
    betas = sorted({c.beta for c in default_sweep.cells})
    col = [default_sweep.cell(1.0, b).features.height for b in betas]
    assert all(col[i + 1] < col[i] for i in range(len(col) - 1))


def test_product_curve_sorted_with_nonnegative_spreads(default_curve):
    p = [r.product for r in default_curve.rows]
    assert p == sorted(p)
    assert all(r.spread_height >= 0.0 and r.spread_skewness >= 0.0
               for r in default_curve.rows)
    assert sum(r.n for r in default_curve.rows) == 121


def test_single_cell_curve_has_zero_spread():
    fmap = run_sweep(alpha_grid=[0.8], beta_grid=[1.1])
    curve = product_curve(fmap)
    assert len(curve.rows) == 1
    row = curve.rows[0]
    assert row.n == 1
    assert row.spread_height == 0.0 and row.spread_skewness == 0.0
    assert row.product == pytest.approx(0.88)


def test_features_collapse_onto_product(default_sweep, default_curve):
    heights = [c.features.height for c in default_sweep.cells if c.ok]
    full_range = max(heights) - min(heights)
    for row in default_curve.rows:
        assert row.spread_height < 0.1 * full_range


def test_balanced_bin_is_the_apex(default_curve, baseline_features):
    rows = default_curve.rows
    apex = max(rows, key=lambda r: r.mean_height)
    assert apex.product == pytest.approx(1.0)
    # the p = 1 bin also holds p = 0.99 neighbors, so match at the feature
    # tolerance rather than exactly
    assert apex.mean_height == pytest.approx(baseline_features.height,
                                             rel=0.01)
    assert abs(apex.mean_skewness - baseline_features.skewness) < 0.02


def test_identify_balanced_is_ambiguous(baseline_features, default_curve):
    res = identify_product(baseline_features, default_curve)
    assert res.p_hat == pytest.approx(1.0)
    assert res.ambiguous
    assert res.candidates


def test_identify_closed_loop_capacity(default_sweep, default_curve):
    feats = default_sweep.cell(0.5, 1.0).features
    res = identify_product(feats, default_curve)
    assert res.p_hat == pytest.approx(0.5, abs=0.05)
    assert not res.ambiguous
    # the rejected high-product candidate must sit at a higher skewness
    assert len(res.candidates) == 2
    other = [c for c in res.candidates if c.p != res.p_hat][0]
    assert other.p > 1.0
    assert other.skewness > feats.skewness


def test_identify_closed_loop_resistance(default_sweep, default_curve):
    feats = default_sweep.cell(1.0, 2.0).features
    res = identify_product(feats, default_curve)
    assert res.p_hat == pytest.approx(2.0, abs=0.1)
    assert not res.ambiguous


def test_identify_near_unit_products_flagged(default_curve):
    for a, b in ((0.95, 1.0), (1.0, 1.05)):
        tr = simulate_cc_discharge(make_pair(a, b))
        res = identify_product(extract_features(tr), default_curve)
        assert res.ambiguous
        assert 0.9 <= res.p_hat <= 1.1


def test_identify_endpoint_fallback(default_curve, baseline_features):
    from dataclasses import replace
    rows = list(default_curve.rows)
    # the end rows' own height spread is the endpoint tolerance
    for i in (0, -1):
        rows[i] = replace(rows[i], spread_height=6e-5)
    curve = sweep.ProductCurve(rows=rows)
    mh = [r.mean_height for r in rows]
    low = min(mh[0], mh[-1]) - 5e-5       # just under the lowest endpoint
    feats = replace(baseline_features, height=low, skewness=0.15)
    res = identify_product(feats, curve)
    assert "endpoint" in res.note
    assert res.p_hat in (default_curve.rows[0].product,
                         default_curve.rows[-1].product)
    assert all(c.p in (default_curve.rows[0].product,
                       default_curve.rows[-1].product)
               for c in res.candidates)


def _curve(*rows):
    """A product curve from (product, mean height, mean skewness, spread
    height) rows."""
    return sweep.ProductCurve(rows=[
        sweep.ProductBin(product=p, mean_height=h, mean_skewness=s,
                         spread_height=sh, spread_skewness=0.0, n=1)
        for p, h, s, sh in rows])


@pytest.mark.parametrize("i", [0, 1, 2])
def test_identify_height_equal_to_row_mean_gives_row(baseline_features, i):
    from dataclasses import replace
    curve = _curve((0.5, 0.010, -0.2, 0.0), (1.0, 0.015, 0.0, 0.0),
                   (1.5, 0.012, 0.2, 0.0))
    row = curve.rows[i]
    feats = replace(baseline_features, height=row.mean_height,
                    skewness=row.mean_skewness)
    res = identify_product(feats, curve)
    assert res.p_hat == row.product
    assert res.candidates[0] == (row.product, row.mean_skewness, 0.0)


def test_identify_merges_crossings_near_the_apex(baseline_features):
    from dataclasses import replace
    curve = _curve((0.98, 0.0149, 0.0, 0.0), (1.0, 0.015 + 1e-13, 0.0, 0.0),
                   (1.02, 0.0149, 0.0, 0.0))
    res = identify_product(replace(baseline_features, height=0.015), curve)
    assert len(res.candidates) == 1
    assert res.p_hat == pytest.approx(0.99999999998, abs=1e-12)


def test_identify_one_row_curve_lists_row_once(baseline_features):
    from dataclasses import replace
    curve = _curve((0.88, 0.015, 0.1, 1e-4))
    feats = replace(baseline_features, height=0.015 - 5e-5, skewness=0.1)
    res = identify_product(feats, curve, skew_resolution=0.05)
    assert "endpoint" in res.note
    assert [c.p for c in res.candidates] == [0.88]
    assert not res.ambiguous


def test_identify_rejects_unreachable_height(default_curve, baseline_features):
    from dataclasses import replace
    too_low = replace(baseline_features, height=0.001)
    with pytest.raises(IdentifyError):
        identify_product(too_low, default_curve)


@pytest.mark.parametrize("field", ["height", "skewness"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_identify_rejects_non_finite_features(default_curve,
                                              baseline_features, field,
                                              value):
    from dataclasses import replace
    feats = replace(baseline_features, **{field: value})
    with pytest.raises(IdentifyError, match=f"{field} is {value}"):
        identify_product(feats, default_curve)


def test_identify_rejects_an_empty_curve(baseline_features):
    with pytest.raises(SweepError,
                       match="^identification curve has no rows$") as err:
        identify_product(baseline_features, sweep.ProductCurve(rows=[]))
    assert err.value.stage == "product_curve"


def test_identify_resolution_without_rows_near_one(baseline_features):
    # no row within 0.1 of p = 1, so every row's skewness spread sets the
    # default resolution: twice the largest, 0.4
    from dataclasses import replace
    curve = sweep.ProductCurve(rows=[
        sweep.ProductBin(product=p, mean_height=h, mean_skewness=s,
                         spread_height=0.0, spread_skewness=ss, n=1)
        for p, h, s, ss in ((2.0, 1.0, 0.0, 0.05), (3.0, 2.0, 0.1, 0.2),
                            (4.0, 1.0, 0.3, 0.1))])
    feats = replace(baseline_features, height=1.5, skewness=0.05)
    res = identify_product(feats, curve)
    assert res.note == "2 height crossing(s); skewness resolution 0.4"
    assert [c.p for c in res.candidates] == [2.5, 3.5]
    assert res.ambiguous                # 0.15 apart, under 0.4
    assert not identify_product(feats, curve, skew_resolution=0.1).ambiguous


def test_product_curve_roundtrip(tmp_path, default_sweep, default_curve):
    from pairdva.fileio import read_product_curve_csv, write_product_curve_csv
    path = tmp_path / "curve.csv"
    write_product_curve_csv(default_curve, path)
    back = read_product_curve_csv(path)
    assert len(back.rows) == len(default_curve.rows)
    for got, want in zip(back.rows, default_curve.rows):
        assert got.n == want.n
        assert got.product == pytest.approx(want.product, rel=1e-11)
        assert got.mean_height == pytest.approx(want.mean_height, rel=1e-11)
    # identification through the serialized curve agrees with the live one
    feats = default_sweep.cell(0.5, 1.0).features
    live = identify_product(feats, default_curve)
    disk = identify_product(feats, back)
    assert disk.p_hat == pytest.approx(live.p_hat, abs=1e-9)
    assert disk.ambiguous == live.ambiguous


@pytest.mark.parametrize("row,where", [
    ("1,nan,0,0.01,0.01,3", ["line 3", "mean_height", "non-finite"]),
    ("1,0.2,inf,0.01,0.01,3", ["line 3", "mean_skewness", "non-finite"]),
    ("1,0.2,0,0.01", ["line 3", "spread_skewness", "missing"]),
    ("1,0.2,0,0.01,0.01,x", ["line 3", "column n", "'x'"]),
    ("1,0.2,0,0.01,0.01,1.5", ["line 3", "column n", "1.5"]),
    ("1,0.2,1_0,0.01,0.01,3", ["line 3", "mean_skewness", "'1_0'"]),
    ("1,0.2,0,0.01,0.01,0", ["line 3", "column n", "below 1"]),
    ("1,0.2,0,0.01,0.01,-2", ["line 3", "column n", "-2"]),
    ("1,0.2,0,-0.01,0.01,3", ["line 3", "spread", "negative"]),
    ("1,0.2,0,0.01,-0.01,3", ["line 3", "spread", "negative"]),
    ("0.5,0.2,0,0.01,0.01,3", ["line 3", "product 0.5", "not above"]),
    ("0.4,0.2,0,0.01,0.01,3", ["line 3", "product 0.4", "not above"]),
])
def test_product_curve_csv_rejects_bad_cells(tmp_path, row, where):
    path = tmp_path / "curve.csv"
    path.write_text(f"{fileio.PRODUCT_CURVE_HEADER}\n"
                    f"0.5,0.1,-0.2,0.01,0.01,1\n{row}\n"
                    f"2,0.1,0.2,0.01,0.01,1\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_product_curve_csv(path)
    for part in where:
        assert part in str(err.value)


def test_identify_resolution_override(default_sweep, default_curve):
    feats = default_sweep.cell(0.5, 1.0).features
    res = identify_product(feats, default_curve, skew_resolution=10.0)
    assert res.ambiguous                     # everything within 10.0
    res = identify_product(feats, default_curve, skew_resolution=1e-12)
    assert not res.ambiguous


@pytest.mark.parametrize("resolution", [-1.0, np.nan, np.inf])
def test_identify_rejects_a_bad_resolution(baseline_features, default_curve,
                                           resolution):
    with pytest.raises(ConfigError, match="^skew_resolution must") as err:
        identify_product(baseline_features, default_curve,
                         skew_resolution=resolution)
    assert err.value.stage == "config"

"""Grid sweeps, product-curve collapse, and identification."""

import numpy as np
import pytest

from pairdva import (FeatureError, GridConfig, IdentifyError, SimConfig,
                     extract_features, fileio, identify_product, make_pair,
                     product_curve, run_sweep, simulate_cc_discharge, sweep)


def test_default_grids():
    a = GridConfig().alpha_grid
    b = GridConfig().beta_grid
    assert len(a) == 11 and a[0] == 0.5 and a[-1] == 1.0
    assert len(b) == 11 and b[0] == 1.0 and b[-1] == 2.0


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


def test_sweep_records_failures_instead_of_raising():
    fmap = run_sweep(alpha_grid=[1.0], beta_grid=[1.0],
                     sim_config=SimConfig(t_max=600.0))
    cell = fmap.cells[0]
    assert not cell.ok
    assert cell.status == "EmptyWindowError"
    assert cell.features is None
    with pytest.raises(Exception):
        product_curve(fmap)           # no successful cells to bin


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
    mh = [r.mean_height for r in default_curve.rows]
    low = min(mh[0], mh[-1]) - 5e-5       # just under the lowest endpoint
    feats = replace(baseline_features, height=low, skewness=0.15)
    res = identify_product(feats, default_curve, height_tol=6e-5)
    assert "endpoint" in res.note
    assert res.p_hat in (default_curve.rows[0].product,
                         default_curve.rows[-1].product)
    assert all(c.p in (default_curve.rows[0].product,
                       default_curve.rows[-1].product)
               for c in res.candidates)


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

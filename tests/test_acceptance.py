"""Top-level acceptance checks, one per release criterion.

Each test appends a one-line verdict to the shared report (printed in the
terminal summary) and then asserts, so a red test still leaves a readable
pass/fail line for its criterion.
"""

import numpy as np
import pytest
from scipy.optimize import least_squares

import pairdva
from pairdva import (SimConfig, SmoothingConfig, extract_features,
                     identify_product, make_pair, ocv, docv_dz,
                     simulate_cc_discharge, single_cell_reference,
                     weighted_skewness)
from pairdva.features import fit_positive_surrogate, skewness_pipeline
from pairdva.signal import downselect_window, dvdq_curve, savgol_smooth

H_TOL_FRAC = 0.01      # feature tolerance on height, fraction of h0
S_TOL = 0.02           # feature tolerance on skewness, absolute


def verdict(report, num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    report.append(line)
    print(line)
    return line


def _oracle_skewness(trace):
    """Independent re-derivation of the skewness for sign cross-checks.

    Refits the surrogate with a general-purpose least-squares solver and
    differentiates the unsmoothed step signal, so it shares no solver or
    smoothing code with the library pipeline.
    """
    win = downselect_window(dvdq_curve(trace), 3.7, 3.9)
    q, v = win.q, win.v
    c2, c1, c0 = np.polyfit(q, v, 2)
    x0 = np.array([c0, c1, c2, 0.01, q[int(np.argmax(win.dvdq))],
                   0.02 * (q[-1] - q[0])])

    def resid(th):
        a, b, c, d, e, f = th
        return a + b * q + c * q * q - d * np.tanh((q - e) / f) - v

    sol = least_squares(resid, x0, method="lm", xtol=1e-14, ftol=1e-14,
                        max_nfev=20000)
    a, b, c = sol.x[:3]
    n_sig = a + b * q + c * q * q - v
    dndq = np.gradient(n_sig, win.dq)
    density = dndq / (dndq.sum() * win.dq)
    kept = density >= 0.005
    w = density[kept] * win.dq
    w = w / w.sum()
    mu = (w * q[kept]).sum()
    dx = q[kept] - mu
    return float((w * dx**3).sum() / (w * dx**2).sum() ** 1.5)


@pytest.fixture(scope="module")
def imbalance_cases(baseline_features):
    cases = {}
    for name, (a, b) in {"capacity": (0.5, 1.0),
                         "resistance": (1.0, 2.0)}.items():
        tr = simulate_cc_discharge(make_pair(a, b))
        cases[name] = {"features": extract_features(tr),
                       "oracle_shift": _oracle_skewness(tr)}
    bal = simulate_cc_discharge(make_pair(1.0, 1.0))
    s_bal = _oracle_skewness(bal)
    for case in cases.values():
        case["oracle_shift"] -= s_bal
    return cases


def test_criterion_01_parallel_equivalence(acceptance_report, balanced_trace):
    single = single_cell_reference(120.0, 0.001)
    same_len = len(single.v_t) == len(balanced_trace.v_t)
    n = min(len(single.v_t), len(balanced_trace.v_t))
    dv = float(np.abs(balanced_trace.v_t[:n] - single.v_t[:n]).max())
    half = balanced_trace.i_total / 2.0
    di = max(float(np.abs(balanced_trace.i1 - half).max()),
             float(np.abs(balanced_trace.i2 - half).max()))
    ok = same_len and dv < 1e-9 and di < 1e-9
    line = verdict(acceptance_report, 1, ok,
                   f"balanced pair vs 120 Ah/1 mOhm cell: max|dV|={dv:.3g} V,"
                   f" max|i_k - I/2|={di:.3g} A")
    assert ok, line


def test_criterion_02_conservation(acceptance_report):
    worst = {"kcl_A": 0.0, "charge_Ah": 0.0, "voltage_V": 0.0}
    scenarios = [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0), (0.8, 1.25)]
    for a, b in scenarios:
        tr = simulate_cc_discharge(make_pair(a, b))
        r1 = tr.params.cell1.resistance_ohm
        r2 = tr.params.cell2.resistance_ohm
        worst["kcl_A"] = max(worst["kcl_A"], float(
            np.abs(tr.i1 + tr.i2 - tr.i_total).max()))
        worst["charge_Ah"] = max(worst["charge_Ah"], float(
            np.abs(tr.q1 + tr.q2 - tr.q_pair).max()))
        worst["voltage_V"] = max(worst["voltage_V"], float(
            np.abs(tr.v_t - (ocv(tr.z1) + tr.i1 * r1)).max()), float(
            np.abs(tr.v_t - (ocv(tr.z2) + tr.i2 * r2)).max()))
    ok = all(v < 1e-9 for v in worst.values())
    line = verdict(acceptance_report, 2, ok,
                   f"{len(scenarios)} scenarios: " + ", ".join(
                       f"{k}={v:.3g}" for k, v in worst.items()))
    assert ok, line


def test_criterion_03_nullification(acceptance_report, baseline_features):
    h0, s0 = baseline_features.height, baseline_features.skewness
    details, ok = [], True
    for a, b in ((0.5, 2.0), (0.8, 1.25)):
        tr = simulate_cc_discharge(make_pair(a, b))
        dz = float(np.abs(tr.z1 - tr.z2).max())
        feats = extract_features(tr)
        dh = abs(feats.height - h0)
        ds = abs(feats.skewness - s0)
        ok = ok and dz < 1e-9 and dh <= H_TOL_FRAC * h0 and ds <= S_TOL
        details.append(f"({a},{b}): max|z1-z2|={dz:.2g}, |dh|={dh:.2g},"
                       f" |ds|={ds:.2g}")
    line = verdict(acceptance_report, 3, ok, "; ".join(details))
    assert ok, line


def test_criterion_04_capacity_imbalance_direction(
        acceptance_report, baseline_features, imbalance_cases):
    h0, s0 = baseline_features.height, baseline_features.skewness
    feats = imbalance_cases["capacity"]["features"]
    shift = feats.skewness - s0
    oracle = imbalance_cases["capacity"]["oracle_shift"]
    height_ok = feats.height < h0 - H_TOL_FRAC * h0
    sign_ok = shift > 0.0 and oracle > 0.0   # toward larger Q
    ok = height_ok and sign_ok
    line = verdict(
        acceptance_report, 4, ok,
        f"(0.5,1): height {feats.height:.5g} < h0(1-1%), skew shift "
        f"{shift:+.4f} toward larger Q (independent-refit oracle "
        f"{oracle:+.4f})")
    assert ok, line


def test_criterion_05_resistance_imbalance_direction(
        acceptance_report, baseline_features, imbalance_cases):
    # Swapping the two cells maps (alpha, beta) to (1/alpha, 1/beta) and
    # leaves the trace unchanged, so a resistance-only imbalance beta acts
    # like a capacity-only imbalance 1/beta: its skew shift points the same
    # way as criterion 4's, toward larger Q. Criterion 7 fixes this too, as
    # bins p=0.5 and p=2 of the default grid hold only (0.5,1) and (1,2).
    h0, s0 = baseline_features.height, baseline_features.skewness
    cap = imbalance_cases["capacity"]
    res = imbalance_cases["resistance"]
    shift_cap = cap["features"].skewness - s0
    shift_res = res["features"].skewness - s0
    height_ok = res["features"].height < h0 - H_TOL_FRAC * h0
    same = all(shift > 0.0 for shift in (shift_res, shift_cap,
                                         res["oracle_shift"],
                                         cap["oracle_shift"]))
    ok = height_ok and same
    line = verdict(
        acceptance_report, 5, ok,
        f"(1,2): height {res['features'].height:.5g} < h0(1-1%) "
        f"{'holds' if height_ok else 'FAILS'}; skew shift {shift_res:+.4f} "
        f"vs capacity-case shift {shift_cap:+.4f} "
        f"({'same sign, toward larger Q' if same else 'NOT all > 0'}; "
        f"independent-refit oracle {res['oracle_shift']:+.4f} vs "
        f"{cap['oracle_shift']:+.4f})")
    assert ok, line


def test_criterion_06_monotone_height(acceptance_report, default_sweep,
                                      baseline_features):
    h0 = baseline_features.height
    allow = 0.005 * h0
    alphas = sorted({c.alpha for c in default_sweep.cells}, reverse=True)
    betas = sorted({c.beta for c in default_sweep.cells})
    row = np.array([default_sweep.cell(a, 1.0).features.height
                    for a in alphas])
    col = np.array([default_sweep.cell(1.0, b).features.height
                    for b in betas])
    worst = max(float(np.diff(row).max()), float(np.diff(col).max()))
    ok = (len(row) == 11 and len(col) == 11 and worst < allow
          and row[-1] < row[0] and col[-1] < col[0])
    line = verdict(
        acceptance_report, 6, ok,
        f"11-point alpha row and beta column decrease; worst inversion "
        f"{max(worst, 0.0):.3g} vs allowance {allow:.3g} V/Ah")
    assert ok, line


def test_criterion_07_product_collapse(acceptance_report, default_sweep,
                                       default_curve):
    heights = [c.features.height for c in default_sweep.cells if c.ok]
    full_range = max(heights) - min(heights)
    worst_spread = max(r.spread_height for r in default_curve.rows)
    apex = max(default_curve.rows, key=lambda r: r.mean_height)
    by_p = {r.product: r.mean_skewness for r in default_curve.rows}
    skew_ordered = by_p[2.0] > by_p[0.5]
    ok = (worst_spread < 0.1 * full_range
          and apex.product == pytest.approx(1.0) and skew_ordered)
    line = verdict(
        acceptance_report, 7, ok,
        f"worst bin spread {worst_spread:.3g} < 10% of range "
        f"{full_range:.3g}; apex at p={apex.product:g}; skew(p=2)="
        f"{by_p[2.0]:.4f} > skew(p=0.5)={by_p[0.5]:.4f}")
    assert ok, line


def test_criterion_08_closed_loop_identification(
        acceptance_report, default_sweep, default_curve, baseline_features):
    cap = identify_product(default_sweep.cell(0.5, 1.0).features,
                           default_curve)
    res = identify_product(default_sweep.cell(1.0, 2.0).features,
                           default_curve)
    point_ok = (abs(cap.p_hat - 0.5) <= 0.05 and not cap.ambiguous
                and abs(res.p_hat - 2.0) <= 0.2 and not res.ambiguous)
    band_flags = []
    for a, b in ((0.95, 1.0), (1.0, 1.0), (1.0, 1.05)):
        feats = (baseline_features if (a, b) == (1.0, 1.0) else
                 extract_features(simulate_cc_discharge(make_pair(a, b))))
        band_flags.append(identify_product(feats, default_curve).ambiguous)
    ok = point_ok and all(band_flags)
    line = verdict(
        acceptance_report, 8, ok,
        f"p=0.5 -> {cap.p_hat:.4f} (ambiguous={cap.ambiguous}), p=2.0 -> "
        f"{res.p_hat:.4f} (ambiguous={res.ambiguous}); products "
        f"0.95/1.0/1.05 flagged ambiguous={band_flags}")
    assert ok, line


def test_criterion_09_numerical_hygiene(acceptance_report, balanced_trace):
    # derivative of the cell voltage source vs central differences
    z = np.linspace(0.001, 0.999, 1999)
    h = 1e-6
    fd = (ocv(z + h) - ocv(z - h)) / (2.0 * h)
    fd_rel = float((np.abs(fd - docv_dz(z)) / np.abs(docv_dz(z))).max())

    # integrator step halving
    half = simulate_cc_discharge(make_pair(1.0, 1.0), SimConfig(dt=0.5))
    n = min(len(balanced_trace.v_t), len(half.v_t[::2]))
    dv_half = float(np.abs(balanced_trace.v_t[:n] - half.v_t[::2][:n]).max())

    # smoothing filter passes cubics through untouched
    cfg = SmoothingConfig()
    x = np.arange(200, dtype=float)
    cubic = 4.0 - 3e-3 * x + 2e-5 * x**2 - 1e-7 * x**3
    sg_err = float(np.abs(savgol_smooth(cubic, cfg.sg_window, cfg.sg_order)
                          - cubic).max())

    # fitter recovers exact synthetic parameters
    true = np.array([3.85, -2e-3, 1e-6, 0.03, 50.0, 2.0])
    q = np.linspace(40.0, 60.0, 401)
    a, b, c, d, e, f = true
    v = a + b * q + c * q * q - d * np.tanh((q - e) / f)
    fit = fit_positive_surrogate(q, v)
    got = np.array([fit.a, fit.b, fit.c, fit.d, fit.e, fit.f])
    fit_rel = float(np.abs((got - true) / true).max())

    ok = (fd_rel < 1e-6 and dv_half < 1e-6 and sg_err < 1e-9
          and fit_rel < 1e-6 and fit.converged
          and fit.scaled_gradient < 1e-8)
    line = verdict(
        acceptance_report, 9, ok,
        f"FD rel {fd_rel:.2g}; step-halving {dv_half:.2g} V; SG cubic "
        f"{sg_err:.2g}; fit rel {fit_rel:.2g} at scaled gradient "
        f"{fit.scaled_gradient:.2g}")
    assert ok, line


def test_criterion_10_skewness_statistic(acceptance_report):
    # symmetric densities score zero
    q = np.linspace(40.0, 60.0, 801)
    sym_stat = abs(weighted_skewness(q, np.exp(-0.5 * ((q - 50.0) / 2.0)**2)))
    v = 3.85 - 2e-3 * q + 1e-6 * q * q - 0.03 * np.tanh((q - 50.0) / 2.0)
    fit = fit_positive_surrogate(q, v)
    sym_pipe = abs(skewness_pipeline(q, v, fit))

    # two-point density: masses 3/4 and 1/4 one unit apart -> +2/sqrt(3)
    two_mass = weighted_skewness(np.array([0.0, 1.0]),
                                 np.array([0.75, 0.25]))
    two_mass_err = abs(two_mass - 2.0 / np.sqrt(3.0))

    # grid refinement leaves the statistic in place
    def mixture(x):
        return (0.7 * np.exp(-0.5 * ((x - 48.0) / 1.0)**2)
                + 0.3 * np.exp(-0.5 * ((x - 52.0) / 1.5)**2))
    coarse = np.arange(40.0, 60.0 + 1e-9, 0.05)
    fine = np.arange(40.0, 60.0 + 1e-9, 0.01)
    s_coarse = weighted_skewness(coarse, mixture(coarse))
    s_fine = weighted_skewness(fine, mixture(fine))
    refine_rel = abs(s_coarse - s_fine) / abs(s_fine)

    ok = (sym_stat < 0.01 and sym_pipe < 0.01 and two_mass_err < 1e-6
          and refine_rel < 0.005)
    line = verdict(
        acceptance_report, 10, ok,
        f"symmetric {sym_stat:.2g} (pipeline {sym_pipe:.2g}); two-mass "
        f"{two_mass:+.7f} (err {two_mass_err:.2g}); refinement drift "
        f"{refine_rel:.2g}")
    assert ok, line

"""Surrogate fitting and the step-signal skewness statistic."""

import dataclasses
import warnings

import numpy as np
import pytest

from pairdva import (AnalysisConfig, ConfigError, DvDqCurve, FeatureError,
                     FitWarning, PeakFeatures, SimTrace, SpanError,
                     SurrogateFit, VOLTAGE_WINDOW, downselect_window,
                     dvdq_curve, extract_features, fit_positive_surrogate,
                     make_pair, peak_height, resample_uniform_q,
                     simulate_cc_discharge, skewness_pipeline,
                     weighted_skewness)
from pairdva import features, fileio
from pairdva.signal import savgol_smooth


def surrogate(q, a, b, c, d, e, f):
    return a + b * q + c * q * q - d * np.tanh((q - e) / f)


TRUE = dict(a=3.85, b=-0.002, c=1e-6, d=0.03, e=50.0, f=2.0)


# --- fitting ------------------------------------------------------------------

@pytest.mark.parametrize("kw, name", [
    ({"v_lo": 3.9, "v_hi": 3.7}, "v_lo"), ({"v_lo": 3.8, "v_hi": 3.8}, "v_lo"),
    ({"v_lo": np.nan}, "v_lo"), ({"v_hi": np.inf}, "v_lo"),
    ({"density_floor": np.nan}, "density_floor"),
    ({"density_floor": -0.001}, "density_floor"),
    ({"density_floor": np.inf}, "density_floor"),
    ({"fit_tol": -1.0}, "fit_tol"), ({"fit_tol": 0.0}, "fit_tol"),
    ({"fit_tol": np.nan}, "fit_tol")])
def test_analysis_config_validated(kw, name):
    with pytest.raises(ConfigError, match=f"^{name} ") as err:
        AnalysisConfig(**kw)
    assert err.value.stage == "config"
    # a zero floor keeps every sample of the density
    assert AnalysisConfig(density_floor=0.0).density_floor == 0.0


def test_exact_synthetic_recovery():
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **TRUE)
    fit = fit_positive_surrogate(q, v)
    for name, val in TRUE.items():
        assert getattr(fit, name) == pytest.approx(val, rel=1e-6)
    assert fit.converged
    assert fit.residual_rms < 1e-10
    assert fit.scaled_gradient < 1e-8
    assert fit.n_iter < 200


def test_returned_parameters_are_a_local_minimum():
    # independent certificate: no single-coordinate nudge may lower the cost
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **TRUE)
    fit = fit_positive_surrogate(q, v)
    theta = np.array([fit.a, fit.b, fit.c, fit.d, fit.e, fit.f])

    def cost(t):
        r = surrogate(q, *t) - v
        return float(r @ r)

    best = cost(theta)
    for j in range(6):
        scale = max(abs(theta[j]), 1e-3)
        for sign in (-1.0, 1.0):
            trial = theta.copy()
            trial[j] += sign * 1e-4 * scale
            assert cost(trial) >= best - 1e-18


def test_noisy_recovery_stays_close():
    rng = np.random.default_rng(42)
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **TRUE) + rng.normal(0.0, 1e-4, len(q))
    fit = fit_positive_surrogate(q, v)
    assert fit.converged
    assert fit.d == pytest.approx(TRUE["d"], rel=0.05)
    assert fit.e == pytest.approx(TRUE["e"], abs=0.1)
    assert fit.residual_rms == pytest.approx(1e-4, rel=0.3)


def test_pure_quadratic_warns_about_flat_step():
    # stepless data: d is unidentifiable, so steer the start into the
    # degenerate basin and expect the rank-deficiency warning there
    q = np.linspace(40.0, 60.0, 400)
    v = 3.8 - 0.001 * q + 1e-6 * q * q
    with pytest.warns(FitWarning):
        fit = fit_positive_surrogate(q, v, init_hints={"d": 1e-9})
    assert fit.a == pytest.approx(3.8, abs=1e-6)
    assert fit.b == pytest.approx(-0.001, abs=1e-7)
    assert fit.c == pytest.approx(1e-6, abs=1e-9)
    assert abs(fit.d) < 1e-6


def test_width_sign_normalized_positive():
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **{**TRUE, "d": -0.03})   # rising step
    # right basin (the default init aims e at the steepest descent, which a
    # rising step doesn't have): amplitude keeps its true negative sign
    fit = fit_positive_surrogate(q, v, init_hints={"d": -0.02, "e": 50.0})
    assert fit.f > 0.0
    assert fit.d == pytest.approx(-0.03, rel=1e-6)
    assert fit.e == pytest.approx(TRUE["e"], rel=1e-6)
    # mirror start (d, f both flipped is the same function): the fitter
    # lands on f < 0 and must hand back the normalized representative
    fit = fit_positive_surrogate(q, v,
                                 init_hints={"d": 0.03, "f": -2.0, "e": 50.0})
    assert fit.f > 0.0
    assert fit.d == pytest.approx(-0.03, rel=1e-6)
    assert fit.f == pytest.approx(2.0, rel=1e-6)


def test_init_hints_validated():
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **TRUE)
    with pytest.raises(ConfigError):
        fit_positive_surrogate(q, v, init_hints={"g": 1.0})
    with pytest.raises(ConfigError):
        fit_positive_surrogate(q, v, init_hints={"f": 0.0})
    fit = fit_positive_surrogate(q, v, init_hints={"e": 50.5, "d": 0.02})
    assert fit.e == pytest.approx(50.0, rel=1e-6)


def test_too_few_samples_rejected():
    q = np.linspace(40.0, 60.0, 30)
    with pytest.raises(SpanError):
        fit_positive_surrogate(q, surrogate(q, **TRUE))


def test_fit_deterministic():
    q = np.linspace(40.0, 60.0, 400)
    v = surrogate(q, **TRUE)
    f1 = fit_positive_surrogate(q, v)
    f2 = fit_positive_surrogate(q, v)
    assert (f1.a, f1.b, f1.c, f1.d, f1.e, f1.f) == \
        (f2.a, f2.b, f2.c, f2.d, f2.e, f2.f)


# --- weighted skewness ---------------------------------------------------------

def test_two_mass_example():
    # 75% at 0, 25% at 1: third standardized moment is 2/sqrt(3)
    got = weighted_skewness(np.array([0.0, 1.0]), np.array([0.75, 0.25]))
    assert got == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-6)


def test_symmetric_masses_have_zero_skew():
    x = np.linspace(-3.0, 3.0, 601)
    w = np.exp(-0.5 * x * x)
    assert abs(weighted_skewness(x, w)) < 1e-12


def test_shift_and_scale_invariance():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 10.0, 200)
    w = rng.uniform(0.1, 1.0, 200)
    base = weighted_skewness(x, w)
    assert weighted_skewness(x + 100.0, w) == pytest.approx(base, abs=1e-9)
    assert weighted_skewness(3.0 * x, w) == pytest.approx(base, abs=1e-9)
    assert weighted_skewness(-x, w) == pytest.approx(-base, abs=1e-9)
    assert weighted_skewness(x, 7.0 * w) == pytest.approx(base, abs=1e-12)


def test_mixture_matches_closed_form():
    # 0.7 N(48, 1) + 0.3 N(52, 1.5): moments known in closed form
    q = np.arange(40.0, 60.0 + 1e-9, 0.05)
    g = (0.7 * np.exp(-0.5 * (q - 48.0) ** 2) / np.sqrt(2.0 * np.pi)
         + 0.3 * np.exp(-0.5 * ((q - 52.0) / 1.5) ** 2)
         / (1.5 * np.sqrt(2.0 * np.pi)))
    mu = 0.7 * 48.0 + 0.3 * 52.0
    m2 = 0.7 * (1.0 + (48.0 - mu) ** 2) + 0.3 * (1.5 ** 2 + (52.0 - mu) ** 2)
    m3 = (0.7 * (3.0 * 1.0 * (48.0 - mu) + (48.0 - mu) ** 3)
          + 0.3 * (3.0 * 1.5 ** 2 * (52.0 - mu) + (52.0 - mu) ** 3))
    expected = m3 / m2 ** 1.5
    assert weighted_skewness(q, g * 0.05) == pytest.approx(expected, abs=1e-3)


def test_grid_refinement_invariance():
    def discrete_skew(dq):
        q = np.arange(40.0, 60.0 + 1e-9, dq)
        g = (0.7 * np.exp(-0.5 * (q - 48.0) ** 2)
             + 0.2 * np.exp(-0.5 * ((q - 52.0) / 1.5) ** 2))
        return weighted_skewness(q, g * dq)

    coarse = discrete_skew(0.05)
    fine = discrete_skew(0.02)
    assert fine == pytest.approx(coarse, rel=0.005)


@pytest.mark.parametrize("x, w, cls, message", [
    ([0.0, 1.0], [1.0], ConfigError,
     "x and w must be 1-d arrays of equal length"),
    ([[0.0, 1.0]], [[1.0, 1.0]], ConfigError,
     "x and w must be 1-d arrays of equal length"),
    ([0.0, 1.0, 2.0], [1.0, -1.0, 1.0], ConfigError,
     "weights must be nonnegative"),
    ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], ConfigError,
     "weights must have positive total mass"),
    ([0.0, 1.0, 2.0], [0.0, 2.0, 0.0], FeatureError,
     "degenerate density: sigma below 1e-9 Ah")],
    ids=["lengths", "two_d", "negative", "zero_total", "point_mass"])
def test_weighted_skewness_rejects_bad_masses(x, w, cls, message):
    with pytest.raises(cls, match=f"^{message}$") as err:
        weighted_skewness(x, w)
    assert err.value.stage == cls.stage


# --- the pipeline ---------------------------------------------------------------

def test_symmetric_step_density_is_unskewed(monkeypatch):
    q = np.arange(40.0, 60.0 + 1e-9, 0.05)
    v = surrogate(q, **TRUE)
    fit = fit_positive_surrogate(q, v)
    moments = []
    weighted_moments = features._weighted_moments

    def spy(x, w):
        moments.append((w, weighted_moments(x, w)))
        return moments[-1][1]

    monkeypatch.setattr(features, "_weighted_moments", spy)
    res = skewness_pipeline(q, v, fit)
    assert abs(res) < 0.01
    # the renormalized masses the moments are taken over, and their mean
    (w, (mu, _, skew)), = moments
    assert skew == res
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu == pytest.approx(TRUE["e"], abs=0.05)


def test_pipeline_scale_and_shift_equivariance():
    q = np.arange(40.0, 60.0 + 1e-9, 0.05)
    v = surrogate(q, **TRUE)
    base = skewness_pipeline(q, v, fit_positive_surrogate(q, v))
    lifted = skewness_pipeline(q, v + 0.5, fit_positive_surrogate(q, v + 0.5))
    shifted = skewness_pipeline(q + 10.0, v,
                                fit_positive_surrogate(q + 10.0, v))
    assert lifted == pytest.approx(base, abs=1e-9)
    # the q shift is only absorbed up to the fit's convergence tolerance
    # (a, b, c, e all move), so allow refit noise
    assert shifted == pytest.approx(base, abs=1e-6)


def test_two_lobe_density_skews_toward_light_side():
    # 70% of the mass early, 30% late: the tail extends to larger q, so the
    # statistic must come out positive; mirroring flips the sign exactly
    q = np.arange(35.0, 65.0 + 1e-9, 0.05)
    lobes = (0.7 / np.cosh((q - 47.0) / 1.5) ** 2
             + 0.3 / np.cosh((q - 53.0) / 1.5) ** 2)
    skew = weighted_skewness(q, lobes)
    assert skew > 0.1
    assert weighted_skewness(q, lobes[::-1]) == pytest.approx(-skew,
                                                              abs=1e-12)


def test_floor_starves_the_density():
    q = np.arange(40.0, 60.0 + 1e-9, 0.05)
    v = surrogate(q, **TRUE)
    fit = fit_positive_surrogate(q, v)
    with pytest.raises(FeatureError):
        skewness_pipeline(q, v, fit, density_floor=1.0)


def test_pipeline_window_shorter_than_the_filter_rejected():
    q = np.arange(24) * 0.05 + 49.4        # the default filter is 25 long
    v = surrogate(q, **TRUE)
    fit = SurrogateFit(**TRUE, residual_rms=0.0, converged=True)
    with pytest.raises(SpanError, match="^window shorter than the "
                                        "smoothing filter$") as err:
        skewness_pipeline(q, v, fit)
    assert err.value.stage == "skewness_pipeline"


def test_pipeline_rejects_a_density_of_nonpositive_mass():
    # with no quadratic part the step signal is -v, which falls where v
    # rises, so its derivative sums below zero
    q = np.arange(40.0, 60.0 + 1e-9, 0.05)
    fit = SurrogateFit(a=0.0, b=0.0, c=0.0, d=0.0, e=50.0, f=2.0,
                       residual_rms=0.0, converged=True)
    with pytest.raises(FeatureError, match="^step-signal density has "
                                           "nonpositive total mass$") as err:
        skewness_pipeline(q, 3.7 + 0.01 * q, fit)
    assert err.value.stage == "skewness_pipeline"


def test_extract_features_matches_golden(balanced_trace):
    feats = extract_features(balanced_trace)
    assert feats.height == pytest.approx(0.015069756047543237, rel=1e-12)
    assert feats.skewness == pytest.approx(0.036160666104407338, rel=1e-9)
    assert feats.q_at_peak == pytest.approx(49.05, abs=1e-9)
    assert feats.v_at_peak == pytest.approx(3.8195163895111839, rel=1e-9)
    assert feats.fit.converged
    assert feats.fit.residual_rms < 5e-4
    assert feats.window == (3.7, 3.9)


# --- the fit against its reference loop -----------------------------------

def _reference_fit(q, v, hints):
    """The damped Gauss-Newton loop of fit_positive_surrogate with a fresh
    Jacobian and augmented system per try, as it was first written: the
    reference for the fit, which writes them in place. Returns the fit and
    the number of damping retries. Its start values, residual and
    optimality measure are also those first written, not the fit's."""
    A = np.column_stack((np.ones_like(q), q, q * q))
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    slope = np.gradient(v, q)
    e0 = float(q[int(np.argmax(-slope))])
    theta = np.array([coef[0], coef[1], coef[2], 0.01, e0,
                      0.02 * float(q[-1] - q[0])])
    for i, name in enumerate("abcdef"):
        if name in hints:
            theta[i] = float(hints[name])

    def residual(theta):
        a, b, c, d, e, f = theta
        return a + b * q + c * q * q - d * np.tanh((q - e) / f) - v

    def scaled_gradient(J, r):
        rnorm = float(np.linalg.norm(r))
        if rnorm / np.sqrt(len(r)) < 1e-10 * v_scale:
            return 0.0
        jnorm = float(np.linalg.norm(J))
        if jnorm == 0.0:
            return 0.0
        return float(np.max(np.abs(J.T @ r)) / (jnorm * rnorm))

    def jacobian(theta):
        _, _, _, d, e, f = theta
        t = np.tanh((q - e) / f)
        sech2 = 1.0 - t * t
        J = np.empty((len(q), 6))
        J[:, 0] = 1.0
        J[:, 1] = q
        J[:, 2] = q * q
        J[:, 3] = -t
        J[:, 4] = d * sech2 / f
        J[:, 5] = d * sech2 * (q - e) / (f * f)
        return J

    v_scale = max(1.0, float(np.max(np.abs(v))))
    r = residual(theta)
    cost = float(r @ r)
    lam = 1e-3
    n_iter = retries = 0
    for n_iter in range(1, features.FIT_MAX_ITER + 1):
        J = jacobian(theta)
        if scaled_gradient(J, r) < features.FIT_GTOL:
            break
        col = np.sqrt((J * J).sum(axis=0))
        col[col < 1e-30] = 1.0
        improved = False
        for _ in range(25):
            A = np.vstack((J, np.sqrt(lam) * np.diag(col)))
            rhs = np.concatenate((-r, np.zeros(6)))
            step, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            trial = theta + step
            r_t = residual(trial)
            cost_t = float(r_t @ r_t)
            if np.isfinite(cost_t) and cost_t < cost:
                theta, r, cost = trial, r_t, cost_t
                lam = max(lam / 3.0, 1e-14)
                improved = True
                break
            lam *= 3.0
            retries += 1
            if lam > 1e14:
                break
        if not improved:
            break
    if theta[5] < 0.0:
        theta[3] = -theta[3]
        theta[5] = -theta[5]
    scaled = scaled_gradient(jacobian(theta), r)
    rms = float(np.sqrt(cost / len(q)))
    fit = SurrogateFit(*(float(x) for x in theta), residual_rms=rms,
                       converged=bool(scaled < 1e-8
                                      and rms <= features.FIT_TOL),
                       scaled_gradient=scaled, n_iter=n_iter)
    return fit, retries


def _lab_trace(trace, seed, path):
    """trace as pipebench's lab CSVs sample it: every 1-10 s from a random
    phase, 0.05 mV voltage noise quantised to 0.1 mV, 20 mA current noise
    quantised to 1 mA, pair columns only; read back from path."""
    rng = np.random.default_rng([7, seed])
    step = int(rng.integers(1, 11))
    rows = slice(int(rng.integers(step)), None, step)
    t = trace.t[rows].astype(np.int64)
    v = np.round((trace.v_t[rows] + rng.normal(0.0, 5e-5, len(t))) * 1e4)
    i = np.round((trace.i_total[rows] + rng.normal(0.0, 0.02, len(t))) * 1e3)
    path.write_text("t_s,i_total_A,vt_V\n" + "".join(
        f"{tk},{ik / 1e3:.3f},{vk / 1e4:.4f}\n"
        for tk, ik, vk in zip(t.tolist(), i.tolist(), v.tolist())))
    return fileio.read_trace_csv(path)


def _window(trace):
    """The fit's inputs in extract_features: the window and its hint."""
    win = downselect_window(dvdq_curve(trace), *VOLTAGE_WINDOW)
    return win.q, win.v, {"e": peak_height(win).q_at_peak}


def test_fit_equals_reference_loop(balanced_trace, tmp_path):
    traces = [balanced_trace] + [simulate_cc_discharge(make_pair(a, b))
                                 for a, b in ((0.7, 1.6), (0.5, 2.0))]
    cases = [_window(tr) for tr in traces]
    cases += [_window(_lab_trace(traces[k % 3], k, tmp_path / f"{k}.csv"))
              for k in range(9)]
    # a far-off start that the damping must back away from
    q = np.linspace(40.0, 60.0, 400)
    cases.append((q, surrogate(q, **TRUE), {"d": 0.5, "e": 41.0, "f": 0.05}))
    # no hint: the start takes the steepest drop for e
    cases.append((*cases[0][:2], {}))
    retries = 0
    for q, v, hints in cases:
        got = fit_positive_surrogate(q, v, init_hints=hints)
        want, tries = _reference_fit(q, v, hints)
        retries += tries
        for name in SurrogateFit.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name
    # some tries were rejected, so the in-place damping was rewritten
    assert retries > 0


# --- the window's curve against the whole curve -------------------------

def _whole_curve_window(trace, analysis):
    """The window's sub-curve of the whole resampled curve, smoothed and
    differentiated end to end, as extract_features took it before the
    curve was cut to the window's run."""
    sm = analysis.smoothing
    q, v = resample_uniform_q(trace, sm.dq_ah)
    dvdq = -np.gradient(savgol_smooth(v, sm.sg_window, sm.sg_order),
                        sm.dq_ah)
    return downselect_window(DvDqCurve(q=q, v=v, dvdq=dvdq, dq=sm.dq_ah),
                             analysis.v_lo, analysis.v_hi)


def _whole_curve_features(trace, analysis):
    """extract_features on _whole_curve_window's sub-curve."""
    win = _whole_curve_window(trace, analysis)
    peak = peak_height(win)
    fit = fit_positive_surrogate(win.q, win.v,
                                 init_hints={"e": peak.q_at_peak},
                                 fit_tol=analysis.fit_tol)
    skew = skewness_pipeline(win.q, win.v, fit, analysis.smoothing,
                             density_floor=analysis.density_floor)
    return PeakFeatures(height=peak.height, q_at_peak=peak.q_at_peak,
                        v_at_peak=peak.v_at_peak, skewness=skew,
                        fit=fit, window=(analysis.v_lo, analysis.v_hi))


def _step_trace(q0, q1):
    """3.8 - 0.004 (q - 50) - 0.03 tanh((q - 50) / 2) V every 0.01 Ah over
    [q0, q1]: inside (3.7, 3.9) V for q in about (32.5, 67.5) Ah."""
    q = np.linspace(q0, q1, int(round((q1 - q0) / 0.01)) + 1)
    v = 3.8 - 0.004 * (q - 50.0) - 0.03 * np.tanh((q - 50.0) / 2.0)
    zeros = np.zeros_like(q)
    return SimTrace(t=np.arange(len(q), dtype=float), i_total=zeros - 1.0,
                    i1=zeros, i2=zeros, z1=zeros + 0.5, z2=zeros + 0.5,
                    q_pair=q, q1=q / 2.0, q2=q / 2.0, v_t=v)


# the curve holds 10, 1 or 0 samples before the window's run, or 1, 10 or
# 0 after it: fewer than the smoothing half-window (12 samples), so the
# cut curve is clipped there
@pytest.mark.parametrize("q0, q1", [(32.0, 80.0), (32.45, 80.0),
                                    (33.0, 80.0), (20.0, 67.6),
                                    (20.0, 68.0), (20.0, 67.0),
                                    (32.45, 67.6)])
def test_window_curve_near_the_ends_gives_whole_curve_features(q0, q1):
    trace = _step_trace(q0, q1)
    analysis = AnalysisConfig()
    sm = analysis.smoothing
    q, _ = resample_uniform_q(trace, sm.dq_ah)
    curve = dvdq_curve(trace, sm, (analysis.v_lo, analysis.v_hi))
    win = downselect_window(curve, analysis.v_lo, analysis.v_hi)
    # the run reaches within the half-window of an end of the curve
    half = sm.sg_window // 2 * sm.dq_ah
    assert win.q[0] - q[0] < half or q[-1] - win.q[-1] < half
    whole = _whole_curve_window(trace, analysis)
    for name in ("q", "v", "dvdq"):
        assert np.array_equal(getattr(win, name), getattr(whole, name))
    assert extract_features(trace) == _whole_curve_features(trace, analysis)


def test_window_curve_of_noisy_traces_gives_whole_curve_features(
        balanced_trace):
    # 1 mV of noise breaks the window's voltage mask into several runs
    # near its edges, and the longest is picked from them
    analysis = AnalysisConfig()
    for k in range(6):
        noise = np.random.default_rng([5, k]).normal(
            0.0, 1e-3, len(balanced_trace))
        trace = dataclasses.replace(balanced_trace,
                                    v_t=balanced_trace.v_t + noise)
        _, v = resample_uniform_q(trace, analysis.smoothing.dq_ah)
        inside = np.flatnonzero((v >= analysis.v_lo) & (v <= analysis.v_hi))
        assert (np.diff(inside) > 1).any()
        assert extract_features(trace) == _whole_curve_features(trace,
                                                                analysis)

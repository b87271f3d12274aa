"""Resampling, smoothing, differentiation, windowing, and peak pickup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import savgol_filter

from pairdva import (ConfigError, DvDqCurve, EmptyWindowError, FormatError,
                     NoPeakError, SimTrace, SmoothingConfig, SpanError,
                     downselect_window, dvdq_curve, peak_height,
                     resample_uniform_q)
from pairdva.signal import savgol_smooth, uniform_gradient


def synthetic_trace(q, v):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    zeros = np.zeros_like(q)
    return SimTrace(t=np.arange(len(q), dtype=float), i_total=zeros - 1.0,
                    i1=zeros, i2=zeros, z1=zeros + 0.5, z2=zeros + 0.5,
                    q_pair=q, q1=q / 2.0, q2=q / 2.0, v_t=v)


# --- resampling --------------------------------------------------------------

def test_resample_linear_signal_is_exact():
    rng = np.random.default_rng(3)
    q_raw = np.sort(rng.uniform(0.0, 80.0, 400))
    q_raw[0], q_raw[-1] = 0.0, 80.0
    v_raw = 4.2 - 0.01 * q_raw
    q, v = resample_uniform_q(synthetic_trace(q_raw, v_raw), dq=0.05)
    assert q[0] == 0.0 and q[1] - q[0] == 0.05
    assert np.allclose(v, 4.2 - 0.01 * q, rtol=0.0, atol=1e-12)


def test_resample_rejects_flat_charge_column():
    tr = synthetic_trace(np.zeros(100), np.linspace(4.0, 3.0, 100))
    with pytest.raises(FormatError):
        resample_uniform_q(tr, dq=0.05)
    q = np.linspace(0.0, 10.0, 100)
    q[41] = q[40]
    with pytest.raises(FormatError, match=r"sample 41 after 4\.040404"):
        resample_uniform_q(synthetic_trace(q, np.linspace(4.0, 3.0, 100)),
                           dq=0.05)


@pytest.mark.parametrize("q_raw, dq, cls, stage, message", [
    ([0.0, 1.0, 2.0], 0.0, ConfigError, "config", "dq must be positive"),
    ([0.0, 1.0, 2.0], -0.5, ConfigError, "config", "dq must be positive"),
    ([0.0, 1.0, 2.0], np.nan, ConfigError, "config", "dq must be positive"),
    ([0.0], 0.05, SpanError, "resample", "trace too short to resample"),
    ([0.0, 0.02, 0.04], 0.05, SpanError, "resample",
     "charge span shorter than one grid step"),
    ([0.0, 1.0, 2.0], 1e-300, SpanError, "resample",
     r"a grid at 1e-300 Ah spacing holds 2e\+300 points, more than "
     "10,000,000"),
    ([0.0, 1.0, 2.0], 1e-320, SpanError, "resample",
     r"a grid at 9\.99989e-321 Ah spacing holds inf points, more than "
     "10,000,000")],
    ids=["zero_dq", "negative_dq", "nan_dq", "one_sample", "short_span",
         "huge_grid", "grid_past_float_range"])
def test_resample_rejects_a_grid_it_cannot_make(q_raw, dq, cls, stage,
                                                message):
    q_raw = np.asarray(q_raw)
    with pytest.raises(cls, match=f"^{message}$") as err:
        resample_uniform_q(synthetic_trace(q_raw, 4.0 - 0.01 * q_raw), dq)
    assert err.value.stage == stage


@pytest.mark.parametrize("column", ["q", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_resample_rejects_non_finite_samples(column, bad):
    q = np.linspace(0.0, 10.0, 100)
    v = np.linspace(4.0, 3.0, 100)
    {"q": q, "v": v}[column][40] = bad
    with pytest.raises(FormatError, match="sample 40") as err:
        resample_uniform_q(synthetic_trace(q, v), dq=0.05)
    assert err.value.stage == "resample"


# --- smoothing filter ----------------------------------------------------------
# scipy's filter, a test-only dependency sharing no code with savgol_smooth,
# is the reference

def random_walk(n, seed=0):
    return 3.8 + 1e-3 * np.cumsum(np.random.default_rng(seed).normal(size=n))


def test_smoother_equals_reference_on_balanced_trace(balanced_trace):
    _, v = resample_uniform_q(balanced_trace, SmoothingConfig().dq_ah)
    assert np.array_equal(savgol_smooth(v, 25, 3),
                          savgol_filter(v, 25, 3, mode="interp"))


# (25, 3) is the default; at (25, 5) and (35, 3) rounding leaves the
# weights more than eps from symmetric, which takes the plain-sum interior;
# at (101, 9) the edge fit's powers pass 2**53
@pytest.mark.parametrize("n,window,order", [
    (50, 25, 3), (51, 25, 3), (200, 25, 3), (2401, 25, 3),
    (200, 25, 5), (200, 35, 3), (201, 101, 9)])
def test_smoother_equals_reference_on_random_walks(n, window, order):
    y = random_walk(n, seed=n)
    assert np.array_equal(savgol_smooth(y, window, order),
                          savgol_filter(y, window, order, mode="interp"))


@st.composite
def window_and_order(draw):
    window = draw(st.sampled_from(range(5, 52, 2)))
    return window, draw(st.integers(1, min(window - 2, 7)))


@settings(derandomize=True, deadline=None, database=None)
@given(config=window_and_order(), extra=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
def test_smoother_agrees_with_reference_over_configs(config, extra, seed):
    window, order = config
    y = random_walk(window + extra, seed)
    ref = savgol_filter(y, window, order, mode="interp")
    err = np.abs(savgol_smooth(y, window, order) - ref).max()
    assert err <= 1e-9 * np.abs(y).max()


@settings(derandomize=True, deadline=None, database=None)
@given(config=window_and_order(), extra=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_smoother_range_equals_whole_signal_slice(config, extra, seed, data):
    window, order = config
    n = window + extra
    y = random_walk(n, seed)
    lo = data.draw(st.integers(0, n - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, n), label="hi")
    assert np.array_equal(savgol_smooth(y, window, order, lo, hi),
                          savgol_smooth(y, window, order)[lo:hi])


@pytest.mark.parametrize("window, order", [(25, 3), (51, 3), (51, 5)])
@pytest.mark.parametrize("extra", [0, 1])
def test_smoother_with_one_or_two_interior_samples(window, order, extra):
    # with one interior sample (n == window) the interior terms form a
    # single column; np.add.reduce over stacked terms would sum it
    # pairwise, which for a few signals in a hundred rounds differently
    # from the reference's running sum
    for seed in range(200):
        y = random_walk(window + extra, seed)
        assert np.array_equal(
            savgol_smooth(y, window, order),
            savgol_filter(y, window, order, mode="interp")), seed


def test_smoother_rejects_bad_range():
    y = random_walk(30)
    for lo, hi in [(-1, 10), (5, 5), (10, 5), (0, 31)]:
        with pytest.raises(ConfigError):
            savgol_smooth(y, 25, 3, lo, hi)


def test_smoother_rejects_bad_window():
    y = random_walk(30)
    for window, order in [(24, 3), (3, 3), (31, 3)]:
        with pytest.raises(ConfigError):
            savgol_smooth(y, window, order)


# --- derivative curve ---------------------------------------------------------

def test_line_gives_constant_dvdq():
    q_raw = np.linspace(0.0, 80.0, 2001)
    curve = dvdq_curve(synthetic_trace(q_raw, 4.2 - 0.004 * q_raw))
    assert np.allclose(curve.dvdq, 0.004, rtol=0.0, atol=1e-9)


def test_smoother_reproduces_random_cubics():
    # degree <= order polynomials pass through the smoothing stage untouched,
    # so differentiating the smoothed signal equals differentiating the exact
    # one; raw samples sit on the resample grid to keep interpolation exact
    rng = np.random.default_rng(17)
    q_raw = 0.05 * np.arange(1201)
    for _ in range(5):
        c0 = float(rng.uniform(3.0, 4.0))
        c1 = float(rng.uniform(-1e-2, -1e-3))
        c2 = float(rng.uniform(-1e-5, 1e-5))
        c3 = float(rng.uniform(-1e-7, 1e-7))
        poly = lambda x: c0 + c1 * x + c2 * x**2 + c3 * x**3
        curve = dvdq_curve(synthetic_trace(q_raw, poly(q_raw)))
        expected = -np.gradient(poly(curve.q), curve.dq)
        assert np.abs(curve.dvdq - expected).max() < 1e-9


@settings(derandomize=True, deadline=None, database=None)
@given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1),
       dx=st.floats(1e-6, 1e3))
def test_uniform_gradient_is_np_gradient_bit_for_bit(n, seed, dx):
    f = random_walk(n, seed)
    assert np.array_equal(uniform_gradient(f, dx), np.gradient(f, dx))


def test_tanh_step_peak_location_and_height():
    q_raw = np.linspace(20.0, 100.0, 4001)
    v_raw = 3.8 - 0.002 * (q_raw - 60.0) - 0.03 * np.tanh((q_raw - 60.0) / 2.0)
    curve = dvdq_curve(synthetic_trace(q_raw, v_raw))
    peak = peak_height(curve)
    assert peak.q_at_peak == pytest.approx(60.0, abs=curve.dq + 1e-12)
    assert peak.height == pytest.approx(0.002 + 0.03 / 2.0, rel=0.02)


def test_short_trace_rejected():
    q_raw = np.linspace(0.0, 1.0, 30)   # resamples to ~20 < 2 * sg_window
    with pytest.raises(SpanError):
        dvdq_curve(synthetic_trace(q_raw, 4.0 - 0.01 * q_raw))


def test_dq_refinement_barely_moves_peak(balanced_trace):
    coarse = peak_height(downselect_window(dvdq_curve(balanced_trace)))
    fine_cfg = SmoothingConfig(dq_ah=0.025, sg_window=25, sg_order=3)
    fine = peak_height(downselect_window(dvdq_curve(balanced_trace,
                                                    config=fine_cfg)))
    assert fine.height == pytest.approx(coarse.height, rel=0.01)
    assert fine.q_at_peak == pytest.approx(coarse.q_at_peak, abs=0.1)


def test_smoothing_config_validated():
    with pytest.raises(ConfigError):
        SmoothingConfig(sg_window=24)      # must be odd
    with pytest.raises(ConfigError):
        SmoothingConfig(sg_window=3, sg_order=3)
    for dq_ah in (0.0, np.inf):
        with pytest.raises(ConfigError,
                           match="^dq_ah must be positive and finite$"):
            SmoothingConfig(dq_ah=dq_ah)


def test_smoothing_config_needs_a_positive_order():
    with pytest.raises(ConfigError, match="^sg_order must be at least 1$") \
            as err:
        SmoothingConfig(sg_order=0)
    assert err.value.stage == "config"


# --- windowing ----------------------------------------------------------------

def test_window_keeps_requested_voltage_band():
    q_raw = np.linspace(0.0, 100.0, 4001)
    v_raw = 4.1 - 0.005 * q_raw
    wind = downselect_window(dvdq_curve(synthetic_trace(q_raw, v_raw)))
    assert wind.v.min() >= 3.7 - 1e-12
    assert wind.v.max() <= 3.9 + 1e-12
    # the band 3.7..3.9 in a 4.1 - 0.005 q line sits at q in [40, 80]
    assert wind.q[0] >= 40.0 - 0.05 and wind.q[-1] <= 80.0 + 0.05


def test_window_misses_raise():
    q_raw = np.linspace(0.0, 50.0, 2001)
    curve = dvdq_curve(synthetic_trace(q_raw, 4.5 - 0.001 * q_raw))
    with pytest.raises(EmptyWindowError):
        downselect_window(curve)           # trace never drops to 3.9 V
    with pytest.raises(EmptyWindowError):
        downselect_window(curve, v_lo=4.2, v_hi=4.1)


# --- peak pickup ---------------------------------------------------------------

def test_no_peak_on_monotone_derivative():
    q_raw = np.linspace(0.0, 100.0, 4001)
    v_raw = 4.0 - 0.001 * q_raw - 2e-5 * q_raw**2   # dvdq strictly increasing
    curve = dvdq_curve(synthetic_trace(q_raw, v_raw))
    with pytest.raises(NoPeakError):
        peak_height(curve)


def test_tied_peaks_resolve_to_smaller_q():
    curve = DvDqCurve(q=np.arange(5.0), v=np.linspace(3.9, 3.7, 5),
                      dvdq=np.array([0.0, 1.0, 0.0, 1.0, 0.0]), dq=1.0)
    assert peak_height(curve).q_at_peak == 1.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_peak_needs_three_samples(n):
    curve = DvDqCurve(q=np.arange(float(n)), v=np.full(n, 3.8),
                      dvdq=np.ones(n), dq=1.0)
    with pytest.raises(NoPeakError, match="^curve too short to hold an "
                                          "interior maximum$") as err:
        peak_height(curve)
    assert err.value.stage == "peak_height"


def test_balanced_peak_matches_golden(balanced_trace):
    peak = peak_height(downselect_window(dvdq_curve(balanced_trace)))
    assert peak.height == pytest.approx(0.015069756047543237, rel=1e-9)
    assert peak.q_at_peak == pytest.approx(49.05, abs=1e-9)
    assert peak.v_at_peak == pytest.approx(3.8195163895111839, rel=1e-9)

"""Resampling, smoothing, differentiation, and peak detection on traces.

The differential voltage is defined as -dV/dQ so that discharge peaks point
upward. Curves live on a uniform charge grid so a fixed-width
Savitzky-Golay window has a fixed physical span.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyWindowError, FormatError, NoPeakError, SpanError

VOLTAGE_WINDOW = (3.7, 3.9)


@dataclass(frozen=True)
class SmoothingConfig:
    dq_ah: float = 0.05
    sg_window: int = 25
    sg_order: int = 3

    def __post_init__(self):
        if not (self.dq_ah > 0.0):
            raise ConfigError("dq_ah must be positive")
        if self.sg_window % 2 != 1 or self.sg_window <= self.sg_order + 1:
            raise ConfigError(
                "sg_window must be odd and greater than sg_order + 1")
        if self.sg_order < 1:
            raise ConfigError("sg_order must be at least 1")


@dataclass
class DvDqCurve:
    q: np.ndarray
    v: np.ndarray
    dvdq: np.ndarray
    dq: float

    def __len__(self):
        return len(self.q)


class PeakSample(NamedTuple):
    height: float
    q_at_peak: float
    v_at_peak: float


def resample_uniform_q(trace, dq: float):
    """Linearly interpolate v_t onto a uniform grid of the pair charge.

    Returns (q, v) arrays spanning the trace's charge range at spacing dq.
    """
    if not (dq > 0.0):
        raise ConfigError("dq must be positive")
    q_raw, v_raw = trace.q_pair, trace.v_t
    if len(q_raw) < 2:
        raise SpanError("trace too short to resample")
    for name, col in (("charge", q_raw), ("voltage", v_raw)):
        finite = np.isfinite(col)
        if not finite.all():
            k = int(np.argmin(finite))
            raise FormatError(f"{name} column holds the non-finite value "
                              f"{col[k]:g} at sample {k}", stage="resample")
    flat = np.flatnonzero(np.diff(q_raw) <= 0.0)
    if flat.size:
        k = int(flat[0]) + 1
        raise FormatError(f"charge column is not strictly increasing: "
                          f"{float(q_raw[k])!r} at sample {k} after "
                          f"{float(q_raw[k - 1])!r}", stage="resample")
    n = int(np.floor((q_raw[-1] - q_raw[0]) / dq)) + 1
    if n < 2:
        raise SpanError("charge span shorter than one grid step")
    q = q_raw[0] + dq * np.arange(n)
    v = np.interp(q, q_raw, v_raw)
    return q, v


@lru_cache(maxsize=64)
def _savgol_weights(window: int, order: int) -> np.ndarray:
    """Smoothing weights of an odd window in correlation order, read-only.

    Solved by lstsq on the Vandermonde matrix of x = half ... -half with
    rcond eps * window, as the reference savgol_coeffs(use="conv") does,
    so the weights equal its weights bit for bit.
    """
    half = window // 2
    x = np.arange(-half, window - half, dtype=np.float64)[::-1]
    a = x ** np.arange(order + 1, dtype=np.float64).reshape(-1, 1)
    e0 = np.zeros(order + 1)
    e0[0] = 1.0
    w = np.linalg.lstsq(a, e0, rcond=np.finfo(np.float64).eps * window)[0]
    w = w[::-1].copy()
    w.flags.writeable = False
    return w


def _polyfit(t: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """np.polyfit(t, y, order) with the powers of t taken by `**`.

    np.polyfit builds them by repeated multiplication, which rounds
    differently once t**order passes 2**53; the reference edge fit uses
    `**`, and this keeps its bits.
    """
    lhs = t[:, None] ** np.arange(order, -1, -1, dtype=np.float64)
    scale = np.sqrt(np.sum(lhs * lhs, axis=0))
    lhs /= scale
    coef = np.linalg.lstsq(lhs, y, rcond=len(t) * np.finfo(np.float64).eps)[0]
    return coef / scale


def savgol_smooth(y, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing of a 1-d signal with polynomial edge fits.

    Each interior sample becomes the centre value of the degree-`order`
    least-squares polynomial over the `window` samples around it; the
    first and last window // 2 samples take the polynomials fitted to the
    first and last full windows. The result equals the reference
    savgol_filter(y, window, order, mode="interp") bit for bit
    (tests/test_signal.py), so the interior sums in that filter's order:
    sample pairs, outermost first, when the weights mirror within eps, and
    one running sum otherwise, since rounding leaves the weights of many
    configurations (25/5 and 35/3 among them) a few ulps from symmetric.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if window % 2 != 1 or not order < window <= n:
        raise ConfigError(f"need an odd window in ({order}, {n}], "
                          f"got {window}")
    w = _savgol_weights(window, order)
    h = window // 2
    out = np.empty(n)
    mid = out[h:n - h]
    if np.all(np.abs(w[:h] - w[:h:-1]) <= np.finfo(np.float64).eps):
        np.multiply(y[h:n - h], w[h], out=mid)
        for j in range(h, 0, -1):
            mid += (y[h - j:n - h - j] + y[h + j:n - h + j]) * w[h - j]
    else:
        np.multiply(y[2 * h:], w[2 * h], out=mid)
        for k in range(2 * h):
            mid += y[k:n - 2 * h + k] * w[k]
    t = np.arange(window, dtype=np.float64)
    out[:h] = np.polyval(_polyfit(t, y[:window], order), t[:h])
    out[n - h:] = np.polyval(_polyfit(t, y[n - window:], order),
                             t[window - h:])
    return out


def dvdq_curve(trace, config: SmoothingConfig = None) -> DvDqCurve:
    """Smooth the resampled pair voltage and differentiate to -dV/dQ.

    Central differences inside, one-sided at the ends.
    """
    config = config if config is not None else SmoothingConfig()
    q, v = resample_uniform_q(trace, config.dq_ah)
    if len(q) < 2 * config.sg_window:
        raise SpanError(
            f"{len(q)} samples; need at least twice the filter window "
            f"({2 * config.sg_window})")
    v_smooth = savgol_smooth(v, config.sg_window, config.sg_order)
    dvdq = -np.gradient(v_smooth, config.dq_ah)
    return DvDqCurve(q=q, v=v, dvdq=dvdq, dq=config.dq_ah)


def downselect_window(curve: DvDqCurve, v_lo: float = VOLTAGE_WINDOW[0],
                      v_hi: float = VOLTAGE_WINDOW[1]) -> DvDqCurve:
    """Contiguous sub-curve where v_lo <= v <= v_hi, grid spacing kept.

    On a monotone discharge curve the in-window samples form one run; if
    smoothing noise fragments the mask, the longest run wins.
    """
    if not (v_lo < v_hi):
        raise EmptyWindowError("degenerate voltage window (v_lo >= v_hi)")
    mask = (curve.v >= v_lo) & (curve.v <= v_hi)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise EmptyWindowError(
            f"no samples with voltage in [{v_lo:g}, {v_hi:g}]")
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    run = max(runs, key=len)
    sl = slice(run[0], run[-1] + 1)
    return DvDqCurve(q=curve.q[sl].copy(), v=curve.v[sl].copy(),
                     dvdq=curve.dvdq[sl].copy(), dq=curve.dq)


def peak_height(curve: DvDqCurve) -> PeakSample:
    """Largest strict local maximum of dvdq; ties break toward smaller q."""
    y = curve.dvdq
    if len(y) < 3:
        raise NoPeakError("curve too short to hold an interior maximum")
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    cand = np.flatnonzero(interior) + 1
    if cand.size == 0:
        raise NoPeakError("windowed curve is monotone; no local maximum")
    best = cand[int(np.argmax(y[cand]))]
    return PeakSample(height=float(y[best]), q_at_peak=float(curve.q[best]),
                      v_at_peak=float(curve.v[best]))

"""Resampling, smoothing, differentiation, and peak detection on traces.

The differential voltage is defined as -dV/dQ so that discharge peaks point
upward. Curves live on a uniform charge grid so a fixed-width
Savitzky-Golay window has a fixed physical span.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, EmptyWindowError, FormatError, NoPeakError,
                     SpanError, require_positive)

VOLTAGE_WINDOW = (3.7, 3.9)
# the most points a charge grid may hold: 80 MB a column, as many as the
# longest simulated run has samples
_MAX_GRID_POINTS = 10 ** 7


@dataclass(frozen=True)
class SmoothingConfig:
    dq_ah: float = 0.05
    sg_window: int = 25
    sg_order: int = 3

    def __post_init__(self):
        require_positive(dq_ah=self.dq_ah)
        if self.sg_window % 2 != 1 or self.sg_window <= self.sg_order + 1:
            raise ConfigError(
                "sg_window must be odd and greater than sg_order + 1")
        if self.sg_order < 1:
            raise ConfigError("sg_order must be at least 1")

    @property
    def min_samples(self) -> int:
        """Grid samples a curve needs: twice the filter window."""
        return 2 * self.sg_window

    @property
    def reach_ah(self) -> float:
        """Charge past its run that a windowed curve reads: a smoothing
        half window and one central difference."""
        return (self.sg_window // 2 + 1) * self.dq_ah


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
    steps = float(q_raw[-1] - q_raw[0]) / dq     # inf past the float range
    if not steps < _MAX_GRID_POINTS:
        raise SpanError(f"a grid at {dq:g} Ah spacing holds {steps + 1:.4g} "
                        f"points, more than {_MAX_GRID_POINTS:,}")
    n = int(steps) + 1
    if n < 2:
        raise SpanError("charge span shorter than one grid step")
    q = q_raw[0] + dq * np.arange(n)
    v = np.interp(q, q_raw, v_raw)
    return q, v


@lru_cache(maxsize=64)
def _savgol_weights(window: int, order: int):
    """Smoothing weights of an odd window in correlation order, read-only,
    and whether they mirror within eps.

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
    symmetric = bool(np.all(np.abs(w[:half] - w[:half:-1])
                            <= np.finfo(np.float64).eps))
    return w, symmetric


@lru_cache(maxsize=64)
def _edge_basis(window: int, order: int):
    """The sample positions 0..window - 1, and the column-scaled powers
    t**order .. t**0 and their scales that np.polyfit solves with, read-only.

    The powers are taken by `**`: np.polyfit builds them by repeated
    multiplication, which rounds differently once t**order passes 2**53;
    the reference edge fit uses `**`, and this keeps its bits.
    """
    t = np.arange(window, dtype=np.float64)
    lhs = t[:, None] ** np.arange(order, -1, -1, dtype=np.float64)
    scale = np.sqrt(np.sum(lhs * lhs, axis=0))
    lhs /= scale
    for a in (t, lhs, scale):
        a.flags.writeable = False
    return t, lhs, scale


def _edge_fit(y, order: int, at: slice) -> np.ndarray:
    """The degree-`order` least-squares polynomial through the samples y,
    as np.polyfit fits it, at the positions `at` of y."""
    t, lhs, scale = _edge_basis(len(y), order)
    coef = np.linalg.lstsq(lhs, y, rcond=len(t) * np.finfo(np.float64).eps)[0]
    return np.polyval(coef / scale, t[at])


def savgol_smooth(y, window: int, order: int, lo: int = 0,
                  hi: int = None) -> np.ndarray:
    """Savitzky-Golay smoothing of a 1-d signal with polynomial edge fits;
    its samples lo..hi - 1 alone when a range is given.

    Each interior sample becomes the centre value of the degree-`order`
    least-squares polynomial over the `window` samples around it; the
    first and last window // 2 samples take the polynomials fitted to the
    first and last full windows, which are fitted only when the range
    reaches them. The result equals the reference
    savgol_filter(y, window, order, mode="interp")[lo:hi] bit for bit
    (tests/test_signal.py), so the interior sums in that filter's order:
    sample pairs, outermost first, when the weights mirror within eps, and
    one running sum otherwise, since rounding leaves the weights of many
    configurations (25/5 and 35/3 among them) a few ulps from symmetric.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    hi = n if hi is None else hi
    if window % 2 != 1 or not order < window <= n:
        raise ConfigError(f"need an odd window in ({order}, {n}], "
                          f"got {window}")
    if not 0 <= lo < hi <= n:
        raise ConfigError(f"need 0 <= lo < hi <= {n}, got {lo} and {hi}")
    w, symmetric = _savgol_weights(window, order)
    h = window // 2
    out = np.empty(hi - lo)
    a, b = max(lo, h), min(hi, n - h)       # the range's interior samples
    if a < b:
        mid = out[a - lo:b - lo]
        if symmetric:
            np.multiply(y[a:b], w[h], out=mid)
            for j in range(h, 0, -1):
                mid += (y[a - j:b - j] + y[a + j:b + j]) * w[h - j]
        else:
            np.multiply(y[a + h:b + h], w[2 * h], out=mid)
            for k in range(2 * h):
                mid += y[a - h + k:b - h + k] * w[k]
    if lo < h:
        head = min(h, hi)
        out[:head - lo] = _edge_fit(y[:window], order, slice(lo, head))
    if hi > n - h:
        tail, off = max(lo, n - h), n - window      # y[off:], the last window
        out[tail - lo:] = _edge_fit(y[off:], order,
                                    slice(tail - off, hi - off))
    return out


def uniform_gradient(f, dx: float) -> np.ndarray:
    """np.gradient(f, dx) of a 1-d float array f of two or more samples at
    a uniform spacing dx, by its arithmetic: (f[k + 1] - f[k - 1]) / (2 dx)
    inside and the one-sided differences over dx at the ends."""
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dx
    out[0] = (f[1] - f[0]) / dx
    out[-1] = (f[-1] - f[-2]) / dx
    return out


def _window_run(v, v_lo: float, v_hi: float) -> slice:
    """The samples of the longest run of consecutive v_lo <= v <= v_hi,
    the first of equally long runs."""
    if not (v_lo < v_hi):
        raise EmptyWindowError("degenerate voltage window (v_lo >= v_hi)")
    idx = np.flatnonzero((v >= v_lo) & (v <= v_hi))
    if idx.size == 0:
        raise EmptyWindowError(
            f"no samples with voltage in [{v_lo:g}, {v_hi:g}]")
    # a run ends at idx[k] wherever idx[k + 1] skips a sample
    ends = np.flatnonzero(np.diff(idx) > 1)
    starts = idx[np.concatenate(([0], ends + 1))]
    stops = idx[np.append(ends, idx.size - 1)] + 1
    k = int(np.argmax(stops - starts))
    return slice(int(starts[k]), int(stops[k]))


def dvdq_curve(trace, config: SmoothingConfig = None,
               window: tuple = None) -> DvDqCurve:
    """Smooth the resampled pair voltage and differentiate to -dV/dQ.

    Central differences inside, one-sided at the ends. Given a voltage
    window (v_lo, v_hi), the curve is only its run (downselect_window's
    rule), and the run's dV/dQ is the whole curve's, bit for bit: the
    smoother still reads the raw samples around the run, and the run's ends
    take central differences over the sample on either side.
    """
    config = config if config is not None else SmoothingConfig()
    q, v = resample_uniform_q(trace, config.dq_ah)
    if len(q) < config.min_samples:
        raise SpanError(
            f"{len(q)} samples; need at least twice the filter window "
            f"({config.min_samples})")
    run = slice(0, len(q)) if window is None else _window_run(v, *window)
    lo, hi = max(0, run.start - 1), min(len(q), run.stop + 1)
    v_smooth = savgol_smooth(v, config.sg_window, config.sg_order, lo, hi)
    dvdq = -uniform_gradient(v_smooth, config.dq_ah)
    return DvDqCurve(q=q[run], v=v[run], dq=config.dq_ah,
                     dvdq=dvdq[run.start - lo:run.stop - lo])


def downselect_window(curve: DvDqCurve, v_lo: float = VOLTAGE_WINDOW[0],
                      v_hi: float = VOLTAGE_WINDOW[1]) -> DvDqCurve:
    """Contiguous sub-curve where v_lo <= v <= v_hi, grid spacing kept.

    On a monotone discharge curve the in-window samples form one run; if
    smoothing noise fragments the mask, the longest run wins.
    """
    sl = _window_run(curve.v, v_lo, v_hi)
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

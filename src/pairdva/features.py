"""Peak shape features: height plus Fisher skewness of the dV/dQ peak.

The skewness pipeline separates the flat electrode trend from the step
feature: fit v ~ a + b*q + c*q^2 - d*tanh((q - e)/f), subtract the
quadratic part P(q) from the measured voltage to isolate the step signal
N(q) = P(q) - v, smooth and differentiate N, normalize dN/dq to a density
over q, drop low-density samples, and take weighted moments.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, FeatureError, FitWarning, SpanError,
                     require_positive)
from .signal import (SmoothingConfig, VOLTAGE_WINDOW, dvdq_curve,
                     peak_height, savgol_smooth, uniform_gradient)

DENSITY_FLOOR = 0.005      # 1/Ah, below which samples are discarded
MIN_SURVIVORS = 10
FIT_TOL = 0.005            # volts RMS; above this the fit is not converged
FIT_GTOL = 1e-9            # scaled gradient at which the fit stops early
FIT_MAX_ITER = 200

_PARAM_NAMES = ("a", "b", "c", "d", "e", "f")


@dataclass(frozen=True)
class AnalysisConfig:
    """Feature-extraction settings: smoothing, voltage window, density
    floor and fit tolerance."""

    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    v_lo: float = VOLTAGE_WINDOW[0]
    v_hi: float = VOLTAGE_WINDOW[1]
    density_floor: float = DENSITY_FLOOR
    fit_tol: float = FIT_TOL

    def __post_init__(self):
        if not (-math.inf < self.v_lo < self.v_hi < math.inf):
            raise ConfigError("v_lo and v_hi must be finite, with v_lo < v_hi")
        if not (0.0 <= self.density_floor < math.inf):
            raise ConfigError("density_floor must be >= 0 and finite")
        require_positive(fit_tol=self.fit_tol)


@dataclass
class SurrogateFit:
    """Least-squares parameters of a + b*q + c*q^2 - d*tanh((q - e)/f)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    residual_rms: float
    converged: bool
    scaled_gradient: float = 0.0
    n_iter: int = 0


@dataclass
class PeakFeatures:
    height: float
    q_at_peak: float
    v_at_peak: float
    skewness: float
    fit: SurrogateFit
    window: tuple = VOLTAGE_WINDOW


def _residual(theta, q, v, step, work):
    """Write the model at theta minus v into step's row 2, and the q - e
    and tanh((q - e)/f) it takes into rows 0 and 1, from which _jacobian
    writes the Jacobian at theta; work is a scratch row. Each step is an
    operation of a + b*q + c*q*q - d*tanh((q - e)/f) - v, in its order.
    Returns the residual row."""
    a, b, c, d, e, f = theta.tolist()
    qe, t, r = step
    np.subtract(q, e, out=qe)
    np.divide(qe, f, out=t)
    np.tanh(t, out=t)
    np.multiply(q, b, out=r)
    r += a
    np.multiply(q, c, out=work)
    work *= q
    r += work
    np.multiply(t, d, out=work)
    r -= work
    r -= v
    return r


def _jacobian(J, theta, step, work):
    """Write the model's Jacobian at theta into J's columns 3-5, from the
    q - e and tanh((q - e)/f) of _residual's step; columns 0-2 hold 1, q
    and q^2 whatever theta is. work is a scratch row."""
    _, _, _, d, _, f = theta.tolist()
    qe, t, _ = step
    np.multiply(t, t, out=work)
    np.subtract(1.0, work, out=work)
    work *= d                                 # d sech^2
    np.negative(t, out=J[:, 3])
    np.divide(work, f, out=J[:, 4])
    work *= qe
    np.divide(work, f * f, out=J[:, 5])


def _scaled_gradient(J, r, rr, v_scale):
    # Optimality measure: cosine-like |J^T r|_inf / (|J|_F |r|_2), the
    # norms taken as np.linalg.norm takes them, sqrt(x.dot(x)) over the
    # flat array; rr is r @ r, the same dot product. When the residual is
    # at round-off level the direction of r is noise, so the point is
    # stationary by construction and the measure is defined as 0.
    rnorm = math.sqrt(rr)
    if rnorm / math.sqrt(len(r)) < 1e-10 * v_scale:
        return 0.0
    flat = J.reshape(-1)
    jnorm = math.sqrt(flat.dot(flat))
    if jnorm == 0.0:
        return 0.0
    return float(np.abs(J.T @ r).max() / (jnorm * rnorm))


def _default_init(trend, q, v, e0=None):
    """Start values; trend holds the columns 1, q and q^2 of the quadratic
    fit, and e0, when given, is the step centre and the steepest drop is
    not looked for."""
    coef, *_ = np.linalg.lstsq(trend, v, rcond=None)
    if e0 is None:
        slope = np.gradient(v, q)
        e0 = float(q[int(np.argmax(-slope))])   # steepest drop marks the step
    f0 = 0.02 * float(q[-1] - q[0])
    return np.array([coef[0], coef[1], coef[2], 0.01, e0, f0])


def fit_positive_surrogate(q, v, init_hints: dict = None,
                           fit_tol: float = FIT_TOL) -> SurrogateFit:
    """Damped Gauss-Newton fit of the six-parameter surrogate.

    init_hints may override any of a, b, c, d, e, f; the rest come from a
    quadratic least-squares trend, the steepest voltage drop (e), a 10 mV
    step amplitude (d), and 2% of the charge span (f). Deterministic for
    identical inputs and hints. Returns best-so-far with converged=False
    when the damping search stalls.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.shape != v.shape or q.ndim != 1:
        raise ConfigError("q and v must be 1-d arrays of equal length")
    if len(q) < 50:
        raise SpanError("surrogate fit needs at least 50 samples",
                        stage="fit_positive_surrogate")
    init_hints = init_hints or {}
    unknown = set(init_hints) - set(_PARAM_NAMES)
    if unknown:
        raise ConfigError(f"unknown init hints: {sorted(unknown)}")
    # the damped normal equations are solved as the augmented least-squares
    # system [J; sqrt(lam) diag(col)] dx = [-r; 0], written in place: J's
    # constant columns once (the start's quadratic fit reads them too), its
    # other columns and -r once per iteration, the diagonal once per damping
    # try; rcond is the eps * max(n + 6, 6) that lstsq takes for rcond=None
    n = len(q)
    A = np.zeros((n + 6, 6))
    rhs = np.zeros(n + 6)
    J = A[:n]
    J[:, 0] = 1.0
    J[:, 1] = q
    J[:, 2] = q * q
    diag = A[n:].reshape(-1)[::7]       # a view of the lower block's diagonal
    squares = np.empty_like(J)
    rcond = np.finfo(np.float64).eps * (n + 6)

    theta = _default_init(J[:, :3], q, v, init_hints.get("e"))
    for i, name in enumerate(_PARAM_NAMES):
        if name in init_hints:
            theta[i] = float(init_hints[name])
    if theta[5] == 0.0:
        raise ConfigError("initial f must be nonzero")

    v_scale = max(1.0, float(np.max(np.abs(v))))
    # each residual writes its q - e, tanh and residual into a step buffer;
    # the accepted trial's buffer becomes the one the Jacobian is written
    # from, and its residual row is r
    step, spare, work = np.empty((3, n)), np.empty((3, n)), np.empty(n)
    r = _residual(theta, q, v, step, work)
    cost = float(r @ r)
    lam = 1e-3
    n_iter = 0
    for n_iter in range(1, FIT_MAX_ITER + 1):
        _jacobian(J, theta, step, work)
        if _scaled_gradient(J, r, cost, v_scale) < FIT_GTOL:
            break
        col = np.sqrt(np.multiply(J, J, out=squares).sum(axis=0))
        col[col < 1e-30] = 1.0
        np.negative(r, out=rhs[:n])
        improved = False
        for _ in range(25):
            np.multiply(math.sqrt(lam), col, out=diag)
            dx, *_ = np.linalg.lstsq(A, rhs, rcond=rcond)
            trial = theta + dx
            r_t = _residual(trial, q, v, spare, work)
            cost_t = float(r_t @ r_t)
            if math.isfinite(cost_t) and cost_t < cost:
                theta, r, cost = trial, r_t, cost_t
                step, spare = spare, step
                lam = max(lam / 3.0, 1e-14)
                improved = True
                break
            lam *= 3.0
            if lam > 1e14:
                break
        if not improved:
            break

    if theta[5] < 0.0:   # tanh is odd; normalize to positive width
        theta[3] = -theta[3]
        theta[5] = -theta[5]
        np.tanh(step[0] / theta[5], out=step[1])
    _jacobian(J, theta, step, work)
    scaled = _scaled_gradient(J, r, cost, v_scale)
    rms = float(np.sqrt(cost / len(q)))
    converged = bool(scaled < 1e-8 and rms <= fit_tol)
    if abs(theta[3]) < 1e-6:
        warnings.warn(FitWarning(
            "step amplitude below 1e-6 V; e and f are unidentifiable"))
    return SurrogateFit(a=float(theta[0]), b=float(theta[1]),
                        c=float(theta[2]), d=float(theta[3]),
                        e=float(theta[4]), f=float(theta[5]),
                        residual_rms=rms, converged=converged,
                        scaled_gradient=scaled, n_iter=n_iter)


def _weighted_moments(x, w):
    mu = float((w * x).sum())
    dx = x - mu
    sigma = float(np.sqrt((w * dx * dx).sum()))
    if sigma < 1e-9:
        raise FeatureError("degenerate density: sigma below 1e-9 Ah")
    skew = float((w * dx * dx * dx).sum() / sigma**3)
    return mu, sigma, skew


def weighted_skewness(x, w) -> float:
    """Fisher skewness of discrete masses w at locations x."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape or x.ndim != 1:
        raise ConfigError("x and w must be 1-d arrays of equal length")
    if np.any(w < 0.0):
        raise ConfigError("weights must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise ConfigError("weights must have positive total mass")
    return _weighted_moments(x, w / total)[2]


def skewness_pipeline(q, v, fit: SurrogateFit,
                      config: SmoothingConfig = None,
                      density_floor: float = DENSITY_FLOOR) -> float:
    """Step signal to density to weighted Fisher skewness.

    N(q) = P(q) - v with P the fit's quadratic part; dN/dq is smoothed,
    normalized to unit mass over the window, thresholded at density_floor,
    and the surviving masses are renormalized before taking moments.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    config = config if config is not None else SmoothingConfig()
    if len(q) < config.sg_window:
        raise SpanError("window shorter than the smoothing filter",
                        stage="skewness_pipeline")
    dq = float(q[-1] - q[0]) / (len(q) - 1)
    p_of_q = fit.a + fit.b * q + fit.c * q * q
    n_sig = p_of_q - v
    n_smooth = savgol_smooth(n_sig, config.sg_window, config.sg_order)
    dndq = uniform_gradient(n_smooth, dq)
    total = float(dndq.sum() * dq)
    if total <= 0.0:
        raise FeatureError("step-signal density has nonpositive total mass")
    density = dndq / total
    kept = density >= density_floor
    n_kept = int(kept.sum())
    if n_kept < MIN_SURVIVORS:
        raise FeatureError(
            f"only {n_kept} samples above the density floor "
            f"(need {MIN_SURVIVORS})")
    w = density[kept] * dq
    w = w / w.sum()
    return _weighted_moments(q[kept], w)[2]


def extract_features(trace, analysis: AnalysisConfig = None) -> PeakFeatures:
    """Full feature extraction for one discharge trace (pair signals only)."""
    analysis = analysis if analysis is not None else AnalysisConfig()
    win = dvdq_curve(trace, analysis.smoothing,
                     (analysis.v_lo, analysis.v_hi))
    peak = peak_height(win)
    fit = fit_positive_surrogate(win.q, win.v,
                                 init_hints={"e": peak.q_at_peak},
                                 fit_tol=analysis.fit_tol)
    skew = skewness_pipeline(win.q, win.v, fit, analysis.smoothing,
                             density_floor=analysis.density_floor)
    return PeakFeatures(height=peak.height, q_at_peak=peak.q_at_peak,
                        v_at_peak=peak.v_at_peak, skewness=skew,
                        fit=fit, window=(analysis.v_lo, analysis.v_hi))

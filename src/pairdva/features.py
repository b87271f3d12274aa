"""Peak shape features: height plus Fisher skewness of the dV/dQ peak.

The skewness pipeline separates the flat electrode trend from the step
feature: fit v ~ a + b*q + c*q^2 - d*tanh((q - e)/f), subtract the
quadratic part P(q) from the measured voltage to isolate the step signal
N(q) = P(q) - v, smooth and differentiate N, normalize dN/dq to a density
over q, drop low-density samples, and take weighted moments.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import savgol_filter

from .errors import ConfigError, FeatureError, FitWarning, SpanError
from .signal import (SmoothingConfig, VOLTAGE_WINDOW, downselect_window,
                     dvdq_curve, peak_height)

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

    @property
    def theta(self):
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f])


@dataclass
class PeakFeatures:
    height: float
    q_at_peak: float
    v_at_peak: float
    skewness: float
    fit: SurrogateFit
    window: tuple = VOLTAGE_WINDOW


@dataclass
class SkewnessResult:
    skewness: float
    mu: float
    sigma: float
    q: np.ndarray          # surviving grid points
    weights: np.ndarray    # renormalized masses on the survivors
    density: np.ndarray    # normalized dN/dq over the full window
    kept: np.ndarray       # boolean mask of survivors


def _model(theta, q):
    a, b, c, d, e, f = theta
    return a + b * q + c * q * q - d * np.tanh((q - e) / f)


def _residual(theta, q, v):
    return _model(theta, q) - v


def _jacobian(theta, q):
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


def _scaled_gradient(J, r, v_scale):
    # Optimality measure: cosine-like |J^T r|_inf / (|J|_F |r|_2). When the
    # residual is at round-off level the direction of r is noise, so the
    # point is stationary by construction and the measure is defined as 0.
    rnorm = float(np.linalg.norm(r))
    if rnorm / np.sqrt(len(r)) < 1e-10 * v_scale:
        return 0.0
    jnorm = float(np.linalg.norm(J))
    if jnorm == 0.0:
        return 0.0
    return float(np.max(np.abs(J.T @ r)) / (jnorm * rnorm))


def _default_init(q, v):
    A = np.column_stack((np.ones_like(q), q, q * q))
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
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
    theta = _default_init(q, v)
    if init_hints:
        unknown = set(init_hints) - set(_PARAM_NAMES)
        if unknown:
            raise ConfigError(f"unknown init hints: {sorted(unknown)}")
        for i, name in enumerate(_PARAM_NAMES):
            if name in init_hints:
                theta[i] = float(init_hints[name])
    if theta[5] == 0.0:
        raise ConfigError("initial f must be nonzero")

    v_scale = max(1.0, float(np.max(np.abs(v))))
    r = _residual(theta, q, v)
    cost = float(r @ r)
    lam = 1e-3
    n_iter = 0
    for n_iter in range(1, FIT_MAX_ITER + 1):
        J = _jacobian(theta, q)
        if _scaled_gradient(J, r, v_scale) < FIT_GTOL:
            break
        col = np.sqrt((J * J).sum(axis=0))
        col[col < 1e-30] = 1.0
        improved = False
        for _ in range(25):
            # solve the damped normal equations via an augmented lstsq
            A = np.vstack((J, np.sqrt(lam) * np.diag(col)))
            rhs = np.concatenate((-r, np.zeros(6)))
            step, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            trial = theta + step
            r_t = _residual(trial, q, v)
            cost_t = float(r_t @ r_t)
            if np.isfinite(cost_t) and cost_t < cost:
                theta, r, cost = trial, r_t, cost_t
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
    J = _jacobian(theta, q)
    scaled = _scaled_gradient(J, r, v_scale)
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
                      density_floor: float = DENSITY_FLOOR) -> SkewnessResult:
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
    n_smooth = savgol_filter(n_sig, config.sg_window, config.sg_order,
                             mode="interp")
    dndq = np.gradient(n_smooth, dq)
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
    mu, sigma, skew = _weighted_moments(q[kept], w)
    return SkewnessResult(skewness=skew, mu=mu, sigma=sigma, q=q[kept],
                          weights=w, density=density, kept=kept)


def extract_features(trace, analysis: AnalysisConfig = None) -> PeakFeatures:
    """Full feature extraction for one discharge trace (pair signals only)."""
    analysis = analysis if analysis is not None else AnalysisConfig()
    curve = dvdq_curve(trace, analysis.smoothing, source="pair")
    win = downselect_window(curve, analysis.v_lo, analysis.v_hi)
    peak = peak_height(win)
    fit = fit_positive_surrogate(win.q, win.v,
                                 init_hints={"e": peak.q_at_peak},
                                 fit_tol=analysis.fit_tol)
    skew = skewness_pipeline(win.q, win.v, fit, analysis.smoothing,
                             density_floor=analysis.density_floor)
    return PeakFeatures(height=peak.height, q_at_peak=peak.q_at_peak,
                        v_at_peak=peak.v_at_peak, skewness=skew.skewness,
                        fit=fit, window=(analysis.v_lo, analysis.v_hi))

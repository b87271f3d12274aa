"""Grid sweeps over (alpha, beta), product-curve collapse, and inversion.

Peak height and skewness depend on the imbalance ratios mainly through
their product p = alpha * beta, so the sweep collapses onto a curve over p.
Identification walks that curve backward: height gives up to two product
candidates, skewness picks between them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IdentifyError, PairDvaError, SweepError
from .features import AnalysisConfig, PeakFeatures, extract_features
from .pairsim import PairSpec, SimConfig, make_pair, simulate_cc_discharge
from .signal import SmoothingConfig


def _grid(lo, hi, steps):
    return np.round(np.linspace(lo, hi, steps), 12)


@dataclass(frozen=True)
class GridConfig:
    """Sweep settings: the (alpha, beta) grid and the product bin width."""

    alpha_min: float = 0.5
    alpha_max: float = 1.0
    alpha_steps: int = 11
    beta_min: float = 1.0
    beta_max: float = 2.0
    beta_steps: int = 11
    bin_width: float = 0.02

    @property
    def alpha_grid(self) -> np.ndarray:
        return _grid(self.alpha_min, self.alpha_max, self.alpha_steps)

    @property
    def beta_grid(self) -> np.ndarray:
        return _grid(self.beta_min, self.beta_max, self.beta_steps)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell. A failed cell keeps its error's class name as status,
    and the error's pipeline stage and message."""

    alpha: float
    beta: float
    features: PeakFeatures = None
    status: str = "ok"
    stage: str = None
    message: str = None

    @property
    def product(self) -> float:
        return self.alpha * self.beta

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FeatureMap:
    alpha_grid: np.ndarray
    beta_grid: np.ndarray
    cells: list            # row-major over (alpha, beta)
    c_total: float
    r_parallel: float
    sim_config: SimConfig
    smoothing: SmoothingConfig

    def cell(self, alpha: float, beta: float) -> SweepCell:
        for c in self.cells:
            if c.alpha == alpha and c.beta == beta:
                return c
        raise KeyError((alpha, beta))


@dataclass(frozen=True)
class ProductBin:
    product: float
    mean_height: float
    mean_skewness: float
    spread_height: float
    spread_skewness: float
    n: int


@dataclass
class ProductCurve:
    rows: list
    bin_width: float = GridConfig.bin_width


class Candidate(NamedTuple):
    p: float
    skewness: float
    distance: float


@dataclass
class IdentificationResult:
    p_hat: float
    candidates: list
    ambiguous: bool
    note: str = ""


def run_sweep(alpha_grid=None, beta_grid=None, *,
              c_total: float = PairSpec.c_total,
              r_parallel: float = PairSpec.r_parallel,
              sim_config: SimConfig = None,
              analysis: AnalysisConfig = None) -> FeatureMap:
    """Simulate and extract features for every (alpha, beta) grid cell.

    Grids left out are the GridConfig defaults. Cells come out row-major
    over (alpha, beta). Per-cell failures are recorded in the cell status,
    not raised.
    """
    grid = GridConfig()
    alpha_grid = np.asarray(
        grid.alpha_grid if alpha_grid is None else alpha_grid, dtype=float)
    beta_grid = np.asarray(
        grid.beta_grid if beta_grid is None else beta_grid, dtype=float)
    if alpha_grid.ndim != 1 or beta_grid.ndim != 1 or not len(alpha_grid) \
            or not len(beta_grid):
        raise ConfigError("grids must be nonempty 1-d arrays")
    if np.any(alpha_grid <= 0.0) or np.any(alpha_grid > 1.0):
        raise ConfigError("alpha grid values must lie in (0, 1]")
    if np.any(beta_grid < 1.0):
        raise ConfigError("beta grid values must be >= 1")
    sim_config = sim_config if sim_config is not None else SimConfig()
    analysis = analysis if analysis is not None else AnalysisConfig()

    def one(a, b):
        try:
            trace = simulate_cc_discharge(
                make_pair(a, b, c_total, r_parallel), sim_config)
            feats = extract_features(trace, analysis)
            return SweepCell(alpha=a, beta=b, features=feats, status="ok")
        except PairDvaError as err:
            return SweepCell(alpha=a, beta=b, features=None,
                             status=type(err).__name__, stage=err.stage,
                             message=str(err))

    cells = [one(float(a), float(b)) for a in alpha_grid for b in beta_grid]
    return FeatureMap(alpha_grid=alpha_grid, beta_grid=beta_grid,
                      cells=cells, c_total=c_total, r_parallel=r_parallel,
                      sim_config=sim_config, smoothing=analysis.smoothing)


def product_curve(fmap: FeatureMap,
                  bin_width: float = GridConfig.bin_width) -> ProductCurve:
    """Bin successful cells by p = alpha * beta and aggregate features.

    Spread is max - min within the bin (worst case, matching the visual
    collapse claim rather than a variance).
    """
    if not (bin_width > 0.0):
        raise ConfigError("bin_width must be positive")
    groups = {}
    for cell in fmap.cells:
        if not cell.ok:
            continue
        key = int(round(cell.product / bin_width))
        groups.setdefault(key, []).append(cell)
    if not groups:
        raise SweepError("no successful sweep cells to bin")
    rows = []
    for key in sorted(groups):
        cells = groups[key]
        h = np.array([c.features.height for c in cells])
        s = np.array([c.features.skewness for c in cells])
        rows.append(ProductBin(
            product=key * bin_width,
            mean_height=float(h.mean()),
            mean_skewness=float(s.mean()),
            spread_height=float(h.max() - h.min()),
            spread_skewness=float(s.max() - s.min()),
            n=len(cells)))
    return ProductCurve(rows=rows, bin_width=bin_width)


def _near_one_resolution(p, ss):
    near = np.abs(p - 1.0) <= 0.1
    if not near.any():
        near = np.ones_like(p, dtype=bool)
    # candidates closer in skewness than twice the worst within-bin spread
    # of the flat region around p = 1 cannot be told apart
    return 2.0 * float(ss[near].max())


def identify_product(features: PeakFeatures, curve: ProductCurve,
                     height_tol: float = None,
                     skew_resolution: float = None) -> IdentificationResult:
    """Invert measured (height, skewness) to a product estimate.

    Height crossings of the binned mean-height curve give the candidates
    (at most two for the expected single-humped shape); the candidate whose
    interpolated skewness is nearest the measured value wins. The result is
    flagged ambiguous when the top candidates' skewness values differ by
    less than skew_resolution. A non-finite height or skewness raises
    IdentifyError naming the field.
    """
    rows = curve.rows
    if not rows:
        raise SweepError("identification curve has no rows")
    for name in ("height", "skewness"):
        value = getattr(features, name)
        if not np.isfinite(value):
            raise IdentifyError(f"measured {name} is {value}, not finite")
    p = np.array([r.product for r in rows])
    mh = np.array([r.mean_height for r in rows])
    ms = np.array([r.mean_skewness for r in rows])
    sh = np.array([r.spread_height for r in rows])
    ss = np.array([r.spread_skewness for r in rows])
    if skew_resolution is None:
        skew_resolution = _near_one_resolution(p, ss)

    h = features.height
    cands = []
    for i in range(len(p) - 1):
        d0 = mh[i] - h
        d1 = mh[i + 1] - h
        if d0 == 0.0:
            cands.append((float(p[i]), float(ms[i])))
        elif d0 * d1 < 0.0:
            frac = d0 / (d0 - d1)
            cands.append((float(p[i] + frac * (p[i + 1] - p[i])),
                          float(ms[i] + frac * (ms[i + 1] - ms[i]))))
    if len(p) and mh[-1] - h == 0.0:
        cands.append((float(p[-1]), float(ms[-1])))
    # merge near-duplicate crossings
    merged = []
    for cp, cs in cands:
        if not any(abs(cp - mp) < 1e-9 for mp, _ in merged):
            merged.append((cp, cs))
    cands = merged

    forced_ambiguous = False
    note = ""
    if not cands:
        imax = int(np.argmax(mh))
        tol_top = height_tol if height_tol is not None else float(sh[imax])
        if h > mh[imax] and h <= mh[imax] + tol_top:
            cands = [(float(p[imax]), float(ms[imax]))]
            forced_ambiguous = True
            note = ("measured height at or above the curve maximum; "
                    "product pinned to the flat top")
        else:
            for iend in (0, len(p) - 1):
                tol_end = (height_tol if height_tol is not None
                           else float(sh[iend]))
                if abs(h - mh[iend]) <= tol_end:
                    cands.append((float(p[iend]), float(ms[iend])))
            if not cands:
                raise IdentifyError(
                    f"measured height {h:.6g} outside the identification "
                    "curve's range")
            note = "measured height matched only at a curve endpoint"

    s = features.skewness
    scored = sorted((Candidate(p=cp, skewness=cs, distance=abs(cs - s))
                     for cp, cs in cands), key=lambda c: c.distance)
    p_lo, p_hi = float(p.min()), float(p.max())
    p_hat = min(max(scored[0].p, p_lo), p_hi)
    if forced_ambiguous:
        ambiguous = True
    elif len(scored) >= 2:
        ambiguous = abs(scored[0].skewness - scored[1].skewness) \
            < skew_resolution
    else:
        ambiguous = False
    if not note:
        note = (f"{len(scored)} height crossing(s); skewness resolution "
                f"{skew_resolution:.4g}")
    return IdentificationResult(p_hat=float(p_hat), candidates=scored,
                                ambiguous=bool(ambiguous), note=note)

"""Grid sweeps over (alpha, beta), product-curve collapse, and inversion.

Peak height and skewness depend on the imbalance ratios mainly through
their product p = alpha * beta, so the sweep collapses onto a curve over p.
Identification walks that curve backward: height gives up to two product
candidates, skewness picks between them.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IdentifyError, PairDvaError, SweepError
from .features import AnalysisConfig, PeakFeatures, extract_features
from .pairsim import (SECONDS_PER_HOUR, PairSpec, SimConfig,
                      _discharge_current, _require_positive, make_pair,
                      simulate_cc_discharge)
from .signal import _MAX_GRID_POINTS, SmoothingConfig


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

    def __post_init__(self):
        for name in ("alpha_steps", "beta_steps"):
            if not (getattr(self, name) >= 1):
                raise ConfigError(f"{name} must be at least 1")
        for name in ("alpha_min", "alpha_max"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1]")
        for name in ("beta_min", "beta_max"):
            if not (1.0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be >= 1 and finite")
        _require_positive(bin_width=self.bin_width)

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
    not raised; a ratio or nameplate that PairSpec rejects, a discharge
    that simulate_cc_discharge refuses, and a dq_ah whose grid no cell's
    run could hold, raise their ConfigError before any cell runs.
    """
    grid = GridConfig()
    alpha_grid = np.asarray(
        grid.alpha_grid if alpha_grid is None else alpha_grid, dtype=float)
    beta_grid = np.asarray(
        grid.beta_grid if beta_grid is None else beta_grid, dtype=float)
    if alpha_grid.ndim != 1 or beta_grid.ndim != 1 or not len(alpha_grid) \
            or not len(beta_grid):
        raise ConfigError("grids must be nonempty 1-d arrays")
    pairs = [make_pair(float(a), float(b), c_total, r_parallel)
             for a in alpha_grid for b in beta_grid]
    sim_config = sim_config if sim_config is not None else SimConfig()
    i_total = _discharge_current(sim_config, c_total, r_parallel)
    analysis = analysis if analysis is not None else AnalysisConfig()
    sm = analysis.smoothing
    # every cell's run spans at least one step's charge
    points = abs(i_total) * sim_config.dt / SECONDS_PER_HOUR / sm.dq_ah
    if not points < _MAX_GRID_POINTS:
        raise ConfigError(
            f"dq_ah {sm.dq_ah:g} puts {points + 1:.4g} grid points on one "
            f"step's charge, more than {_MAX_GRID_POINTS:,}")

    # each cell's run stops where its features stop reading: the smoother's
    # reach past the window's low edge, and no sooner than min_samples
    past = (analysis.v_lo, sm.reach_ah, sm.min_samples * sm.dq_ah)

    def one(pair):
        try:
            trace = simulate_cc_discharge(pair, sim_config, past=past)
            feats = extract_features(trace, analysis)
            return SweepCell(alpha=pair.alpha, beta=pair.beta,
                             features=feats, status="ok")
        except PairDvaError as err:
            return SweepCell(alpha=pair.alpha, beta=pair.beta, features=None,
                             status=type(err).__name__, stage=err.stage,
                             message=str(err))

    cells = [one(pair) for pair in pairs]
    return FeatureMap(alpha_grid=alpha_grid, beta_grid=beta_grid,
                      cells=cells, c_total=c_total, r_parallel=r_parallel,
                      sim_config=sim_config, smoothing=analysis.smoothing)


def product_curve(fmap: FeatureMap,
                  bin_width: float = GridConfig.bin_width) -> ProductCurve:
    """Bin successful cells by p = alpha * beta and aggregate features.

    Spread is max - min within the bin (worst case, matching the visual
    collapse claim rather than a variance).
    """
    _require_positive(bin_width=bin_width)
    groups = {}
    for cell in fmap.cells:
        if not cell.ok:
            continue
        key = int(round(cell.product / bin_width))
        groups.setdefault(key, []).append(cell)
    if not groups:
        failed = Counter(f"{c.status} at {c.stage}" for c in fmap.cells)
        raise SweepError(
            f"no successful sweep cells to bin: {len(fmap.cells)} failed ("
            + ", ".join(f"{kind}: {n}" for kind, n in failed.items()) + ")")
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
                     skew_resolution: float = None) -> IdentificationResult:
    """Invert measured (height, skewness) to a product estimate.

    One pass over the curve's rows collects the candidates: a row whose
    mean height equals the measured height gives its own product and
    skewness, a strict sign change to the next row gives the interpolated
    crossing (at most two for the expected single-humped shape), and a
    candidate within 1e-9 of one already found is skipped. With none, the
    fallbacks take a row's own height spread as the tolerance: a height
    that far above the curve maximum is pinned to the apex row (always
    ambiguous), else each end row that close is a candidate (a one-row
    curve gives one). The candidate whose skewness is nearest the measured
    value wins; the result is ambiguous when the top two skewness values
    differ by less than skew_resolution. A height matched nowhere, or a
    non-finite height or skewness, raises IdentifyError; a skew_resolution
    that is negative or not finite raises ConfigError.
    """
    if skew_resolution is not None and not 0.0 <= skew_resolution < math.inf:
        raise ConfigError("skew_resolution must be nonnegative and finite")
    rows = curve.rows
    if not rows:
        raise SweepError("identification curve has no rows")
    for name in ("height", "skewness"):
        value = getattr(features, name)
        if not np.isfinite(value):
            raise IdentifyError(f"measured {name} is {value}, not finite")
    p, mh, ms, sh, ss = np.array(
        [(r.product, r.mean_height, r.mean_skewness, r.spread_height,
          r.spread_skewness) for r in rows], dtype=float).T
    if skew_resolution is None:
        skew_resolution = _near_one_resolution(p, ss)

    h = features.height
    cands = []
    for i in range(len(p)):
        d0 = mh[i] - h
        if d0 == 0.0:
            cand = (p[i], ms[i])
        elif i + 1 < len(p) and d0 * (mh[i + 1] - h) < 0.0:
            frac = d0 / (d0 - (mh[i + 1] - h))
            cand = (p[i] + frac * (p[i + 1] - p[i]),
                    ms[i] + frac * (ms[i + 1] - ms[i]))
        else:
            continue
        if not any(abs(cand[0] - cp) < 1e-9 for cp, _ in cands):
            cands.append(cand)

    forced_ambiguous = False
    note = (f"{len(cands)} height crossing(s); skewness resolution "
            f"{skew_resolution:.4g}")
    if not cands:
        imax = int(np.argmax(mh))
        if mh[imax] < h <= mh[imax] + sh[imax]:
            cands = [(p[imax], ms[imax])]
            forced_ambiguous = True
            note = ("measured height at or above the curve maximum; "
                    "product pinned to the flat top")
        else:
            cands = [(p[i], ms[i]) for i in sorted({0, len(p) - 1})
                     if abs(h - mh[i]) <= sh[i]]
            if not cands:
                raise IdentifyError(
                    f"measured height {h:.6g} outside the identification "
                    "curve's range")
            note = "measured height matched only at a curve endpoint"

    s = features.skewness
    scored = sorted((Candidate(p=float(cp), skewness=float(cs),
                               distance=float(abs(cs - s)))
                     for cp, cs in cands), key=lambda c: c.distance)
    p_hat = min(max(scored[0].p, float(p.min())), float(p.max()))
    ambiguous = forced_ambiguous or (
        len(scored) >= 2
        and abs(scored[0].skewness - scored[1].skewness) < skew_resolution)
    return IdentificationResult(p_hat=p_hat, candidates=scored,
                                ambiguous=bool(ambiguous), note=note)

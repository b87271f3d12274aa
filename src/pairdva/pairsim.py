"""Parallel pair construction and constant-current discharge simulation.

A pair is two OCV-R cells sharing a terminal voltage. The strong cell
(index 1) has the larger capacity and smaller resistance; imbalance is
parameterized by alpha = C2/C1 <= 1 and beta = R2/R1 >= 1. Discharge
integrates dz_i/dt = i_i / (3600 * C_i) with the algebraic current split
re-evaluated at every RK4 stage.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, IntegrationError, require_positive

SECONDS_PER_HOUR = 3600.0
# the most steps a run may take: 800 MB of a pair's trace columns
_MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class CellParams:
    """One cell: capacity in amp-hours, ohmic resistance in ohms."""

    capacity_ah: float
    resistance_ohm: float

    def __post_init__(self):
        require_positive(capacity_ah=self.capacity_ah,
                         resistance_ohm=self.resistance_ohm)


@dataclass(frozen=True)
class PairSpec:
    """One pair: its imbalance ratios and the pair-level nameplate (total
    capacity in amp-hours, parallel resistance in ohms) that a sweep holds
    fixed. Its strong cell1 and weak cell2 keep C1 + C2 == c_total and
    R1*R2/(R1+R2) == r_parallel."""

    alpha: float = 1.0
    beta: float = 1.0
    c_total: float = field(default=120.0, metadata={"key": "c_total_ah"})
    r_parallel: float = field(default=0.001,
                              metadata={"key": "r_parallel_ohm"})

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(
                "alpha must lie in (0, 1] (cell2 is the weak cell)")
        if not (1.0 <= self.beta < math.inf):
            raise ConfigError(
                "beta must be >= 1 and finite (cell2 is the weak cell)")
        require_positive(c_total=self.c_total, r_parallel=self.r_parallel)

    @property
    def cell1(self) -> CellParams:
        return CellParams(self.c_total / (1.0 + self.alpha),
                          self.r_parallel * (1.0 + self.beta) / self.beta)

    @property
    def cell2(self) -> CellParams:
        return CellParams(self.c_total * self.alpha / (1.0 + self.alpha),
                          self.r_parallel * (1.0 + self.beta))


@dataclass(frozen=True)
class SimConfig:
    """Constant-current discharge settings.

    t_max defaults to five nominal discharge durations as a runaway guard.
    """

    c_rate: float = 1.0 / 3.0
    dt: float = field(default=1.0, metadata={"key": "dt_s"})
    z0: float = 1.0
    v_cutoff: float = field(default=3.0, metadata={"key": "v_cutoff_v"})
    soc_floor: float = 0.02
    t_max: float = field(default=None, metadata={"key": "t_max_s"})

    def __post_init__(self):
        require_positive(c_rate=self.c_rate, dt=self.dt)
        if not (0.0 < self.z0 <= 1.0):
            raise ConfigError("z0 must lie in (0, 1]")
        if not (0.0 <= self.soc_floor <= 0.1):
            raise ConfigError("soc_floor must lie in [0, 0.1]")
        if self.z0 <= self.soc_floor:
            # the run would end at its first sample
            raise ConfigError(f"z0 {self.z0:g} must lie above soc_floor "
                              f"{self.soc_floor:g}")
        if self.t_max is None:
            object.__setattr__(
                self, "t_max", 5.0 * (1.0 / self.c_rate) * SECONDS_PER_HOUR)
        require_positive(t_max=self.t_max)
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigError("t_max / dt must be finite")
        lo, hi = kernels.ocv(np.array([0.0, 1.0]))
        if not (lo <= self.v_cutoff <= hi):
            raise ConfigError(
                f"v_cutoff {self.v_cutoff:g} outside the OCV range "
                f"[{lo:.4f}, {hi:.4f}]")


@dataclass
class SimTrace:
    """Per-sample discharge record; q columns are discharge amp-hours."""

    t: np.ndarray
    i_total: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    q_pair: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    v_t: np.ndarray
    reason: str = "unknown"
    params: object = None
    config: SimConfig = None
    has_cell2: bool = True
    # diagnostic: set when either cell's current ever reverses sign
    current_reversal: bool = False

    def __len__(self):
        return len(self.t)


def make_pair(alpha: float, beta: float, c_total: float = PairSpec.c_total,
              r_parallel: float = PairSpec.r_parallel) -> PairSpec:
    """The pair with these imbalance ratios and nameplate."""
    return PairSpec(alpha, beta, c_total, r_parallel)


def _n_max(config: SimConfig) -> int:
    return int(np.floor(config.t_max / config.dt)) + 2


def _reason(code) -> str:
    """Name of an end code (kernels.end_codes); an SOC excursion raises."""
    reason = kernels.END_REASONS[code - 1] if code else "n_max"
    if reason == "excursion":
        raise IntegrationError(
            "SOC left [-1e-9, 1+1e-9] during integration; reduce dt")
    return reason


def _discharge_current(config: SimConfig, capacity_ah: float,
                       resistance_ohm: float) -> float:
    """-c_rate * capacity; ConfigError when it is zero or not finite, when
    the run may take more than _MAX_STEPS steps to its SOC floor or time
    limit, or when its first sample, through resistance_ohm, is already at
    the cutoff voltage."""
    i_total = -config.c_rate * capacity_ah
    if i_total == 0.0:
        raise ConfigError("discharge current is zero")
    if not math.isfinite(i_total):
        raise ConfigError(f"discharge current {i_total:g} A is not finite")
    steps = kernels.step_bound(
        config.soc_floor - config.z0,
        -config.c_rate * config.dt / SECONDS_PER_HOUR, _n_max(config))
    if steps > _MAX_STEPS:
        raise ConfigError(
            f"a run at c_rate {config.c_rate:g}, dt_s {config.dt:g} and "
            f"t_max_s {config.t_max:g} may take {steps:,} steps, more than "
            f"{_MAX_STEPS:,}")
    v_0 = kernels.ocv(config.z0) + i_total * resistance_ohm
    if not v_0 > config.v_cutoff:
        raise ConfigError(
            f"the first sample's voltage {v_0:.4f} V, at z0 {config.z0:g}, "
            f"is at or below v_cutoff {config.v_cutoff:g}: the run would "
            "end there")
    return i_total


def _trace(params, config, reason, i_total, v_t, cell1, cell2=None):
    """The SimTrace of a run from each cell's (capacity_ah, z, i) columns;
    without a cell2, the cell-2 columns are zeros."""
    n = len(v_t)
    (c1, z1, i1), (c2, z2, i2) = cell1, cell2 or (0.0, *np.zeros((2, n)))
    # the i_total column last, after every scratch array is freed
    reversal = bool(np.any(i1 > 0.0) or np.any(i2 > 0.0))
    t = np.arange(n) * config.dt
    return SimTrace(
        t=t, i1=i1, i2=i2, z1=z1, z2=z2, v_t=v_t,
        q_pair=np.abs(i_total) * t / SECONDS_PER_HOUR,
        q1=c1 * (config.z0 - z1), q2=c2 * (config.z0 - z2),
        i_total=np.full(n, i_total), reason=reason, params=params,
        config=config, has_cell2=cell2 is not None, current_reversal=reversal)


def simulate_cc_discharge(params: PairSpec, config: SimConfig = None, *,
                          past: tuple = None) -> SimTrace:
    """Integrate a constant-current discharge of the pair.

    The discharge current is -c_rate * (C1 + C2). It ends at the first
    sample an end rule holds on (kernels.END_REASONS), the trace's reason.
    Given past = (v_lo, past_ah, min_ah), it ends, as "past_window", at the
    first sample whose charge passes that of the first sample below v_lo
    by past_ah and the start by min_ah, each plus one step's charge: a
    uniform charge grid then reaches that far, as its samples are
    interpolated between the trace's.
    """
    config = config if config is not None else SimConfig()
    c1, c2 = params.cell1, params.cell2
    i_total = _discharge_current(config, c1.capacity_ah + c2.capacity_ah,
                                 params.r_parallel)
    n_max = _n_max(config)
    if past is not None:
        v_lo, *reach_ah = past
        step_ah = config.dt * abs(i_total) / SECONDS_PER_HOUR
        # no run has more than n_max samples, so a reach past them (one of
        # inf Ah, say) is n_max steps
        past = (v_lo, *(1 + (n_max if ah >= n_max * step_ah
                             else math.ceil(ah / step_ah))
                        for ah in reach_ah))
    z1, z2, i1, i2, vt, _, code = kernels.pair_rk4(
        config.z0, config.z0,
        c1.capacity_ah * SECONDS_PER_HOUR, c2.capacity_ah * SECONDS_PER_HOUR,
        c1.resistance_ohm, c2.resistance_ohm, i_total,
        config.dt, n_max, config.v_cutoff, config.soc_floor, config.t_max,
        past)
    return _trace(params, config, _reason(code), i_total, vt,
                  (c1.capacity_ah, z1, i1), (c2.capacity_ah, z2, i2))


def single_cell_reference(capacity_ah: float, resistance_ohm: float,
                          config: SimConfig = None) -> SimTrace:
    """Discharge one OCV-R cell under the same CC profile.

    The result reuses the SimTrace shape with the cell carried in the
    cell-1 columns; cell-2 columns are zeroed and has_cell2 is False.
    """
    config = config if config is not None else SimConfig()
    cell = CellParams(capacity_ah, resistance_ohm)
    i_total = _discharge_current(config, capacity_ah, resistance_ohm)
    # constant current: all four RK4 stages coincide, so every step adds one
    # increment; accumulated in step order, SOC matches a stepping loop's
    k1 = i_total / (capacity_ah * SECONDS_PER_HOUR)
    inc = (config.dt / 6.0) * (k1 + 2.0 * k1 + 2.0 * k1 + k1)
    # SOC only falls, so the run ends within two samples of the floor
    n = kernels.step_bound(config.soc_floor - config.z0, inc,
                           _n_max(config))
    steps = np.full(n + 1, inc)     # the samples and the step out of them
    steps[0] = config.z0
    z = np.add.accumulate(steps)
    vt = kernels.ocv(z[:n]) + i_total * resistance_ohm
    codes = kernels.end_codes(
        v_cutoff=vt <= config.v_cutoff, soc_floor=z[:n] <= config.soc_floor,
        t_max=np.arange(n) * config.dt >= config.t_max,
        excursion=z[1:] < -kernels.SOC_SLACK)     # z only falls
    n = np.flatnonzero(codes).min(initial=n - 1) + 1
    return _trace(cell, config, _reason(codes[n - 1]), i_total, vt[:n],
                  (capacity_ah, z[:n], np.full(n, i_total)))

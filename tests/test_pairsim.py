"""Pair construction, current split, and the CC discharge integrator."""

import inspect
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairdva import (CellParams, ConfigError, IntegrationError, PairSpec,
                     SimConfig, make_pair, ocv, simulate_cc_discharge,
                     single_cell_reference)
from pairdva import kernels, pairsim


def consistency_residuals(tr):
    kcl = np.abs(tr.i1 + tr.i2 - tr.i_total).max()
    qbal = np.abs(tr.q1 + tr.q2 - tr.q_pair).max()
    v1 = ocv(tr.z1) + tr.params.cell1.resistance_ohm * tr.i1
    v2 = ocv(tr.z2) + tr.params.cell2.resistance_ohm * tr.i2
    vcons = max(np.abs(v1 - tr.v_t).max(), np.abs(v2 - tr.v_t).max())
    return kcl, qbal, vcons


# --- pair construction ------------------------------------------------------

def test_make_pair_balanced():
    p = make_pair(1.0, 1.0)
    assert (p.cell1.capacity_ah, p.cell2.capacity_ah) == (60.0, 60.0)
    assert (p.cell1.resistance_ohm, p.cell2.resistance_ohm) == (0.002, 0.002)


def test_make_pair_capacity_imbalance():
    p = make_pair(0.5, 1.0)
    assert (p.cell1.capacity_ah, p.cell2.capacity_ah) == (80.0, 40.0)
    assert (p.cell1.resistance_ohm, p.cell2.resistance_ohm) == (0.002, 0.002)


def test_make_pair_resistance_imbalance():
    p = make_pair(1.0, 2.0)
    assert (p.cell1.capacity_ah, p.cell2.capacity_ah) == (60.0, 60.0)
    assert (p.cell1.resistance_ohm, p.cell2.resistance_ohm) == (0.0015, 0.003)


def test_make_pair_preserves_totals_and_ratios():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(1.0, 5.0))
        p = make_pair(a, b)
        c1, c2 = p.cell1.capacity_ah, p.cell2.capacity_ah
        r1, r2 = p.cell1.resistance_ohm, p.cell2.resistance_ohm
        assert c1 + c2 == pytest.approx(120.0, rel=1e-12)
        assert 1.0 / (1.0 / r1 + 1.0 / r2) == pytest.approx(0.001, rel=1e-12)
        assert c2 / c1 == pytest.approx(a, rel=1e-12)
        assert r2 / r1 == pytest.approx(b, rel=1e-12)
        assert c2 <= c1 and r2 >= r1
        assert p == PairSpec(a, b)


def test_make_pair_rejects_bad_ratios():
    for a, b in ((0.0, 1.0), (-0.5, 1.0), (1.2, 1.0), (1.0, 0.5), (1.0, 0.0)):
        with pytest.raises(ConfigError):
            make_pair(a, b)
    with pytest.raises(ConfigError):
        make_pair(1.0, 1.0, c_total=0.0)
    with pytest.raises(ConfigError):
        make_pair(1.0, 1.0, r_parallel=-1.0)
    for kw in ({"beta": np.inf}, {"c_total": np.inf}, {"r_parallel": np.inf}):
        name = next(iter(kw))
        with pytest.raises(ConfigError, match=f"^{name} must"):
            make_pair(**{"alpha": 1.0, "beta": 1.0, **kw})
    # the pair type makes the same checks itself
    for kw in ({"alpha": 0.0}, {"beta": 0.5}):
        with pytest.raises(ConfigError, match=f"^{next(iter(kw))} must"):
            PairSpec(**kw)


def test_cell_params_validated():
    with pytest.raises(ConfigError):
        CellParams(capacity_ah=0.0, resistance_ohm=0.001)
    with pytest.raises(ConfigError):
        CellParams(capacity_ah=60.0, resistance_ohm=0.0)
    with pytest.raises(ConfigError, match="^capacity_ah must"):
        CellParams(capacity_ah=np.inf, resistance_ohm=0.001)
    with pytest.raises(ConfigError, match="^resistance_ohm must"):
        CellParams(capacity_ah=60.0, resistance_ohm=np.inf)


def test_sim_config_validated():
    with pytest.raises(ConfigError):
        SimConfig(dt=0.0)
    with pytest.raises(ConfigError):
        SimConfig(z0=0.0)
    with pytest.raises(ConfigError):
        SimConfig(z0=1.1)
    with pytest.raises(ConfigError):
        SimConfig(soc_floor=0.5)
    for z0 in (0.01, 0.02):     # the run would end at its first sample
        with pytest.raises(ConfigError,
                           match=f"^z0 {z0:g} must lie above soc_floor"):
            SimConfig(z0=z0)
    with pytest.raises(ConfigError):
        SimConfig(c_rate=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(v_cutoff=10.0)
    for name in ("c_rate", "dt", "t_max"):
        with pytest.raises(ConfigError, match=f"^{name} must"):
            SimConfig(**{name: np.inf})
    with pytest.raises(ConfigError, match="t_max / dt"):
        SimConfig(t_max=1e300, dt=1e-10)
    # default time limit covers the discharge with margin
    assert SimConfig().t_max == pytest.approx(54000.0)


# --- algebraic split and voltage -------------------------------------------

def test_equal_soc_split_is_resistive_divider():
    # r1 = 1.5 mOhm, r2 = 3 mOhm; the first sample has both cells at z0
    tr = simulate_cc_discharge(make_pair(1.0, 2.0), SimConfig(t_max=10.0))
    assert tr.i_total[0] == -40.0 and tr.z1[0] == tr.z2[0] == 1.0
    assert tr.i1[0] == pytest.approx(-40.0 * 2.0 / 3.0, abs=1e-12)
    assert tr.i2[0] == pytest.approx(-40.0 / 3.0, abs=1e-12)


def test_higher_soc_cell_carries_more_current():
    # equal resistances: the cell at the higher OCV carries more current
    tr = simulate_cc_discharge(make_pair(0.5, 1.0), SimConfig(t_max=3000.0))
    higher = ocv(tr.z1) > ocv(tr.z2)
    assert higher[1:].all()
    assert (np.abs(tr.i1[higher]) > np.abs(tr.i2[higher])).all()


def test_terminal_voltage_consistent_with_both_cells():
    p = make_pair(0.7, 1.6)
    tr = simulate_cc_discharge(p, SimConfig(c_rate=1.0))
    # per sample, the split keeps KCL and gives both cells one voltage
    assert tr.i1 + tr.i2 == pytest.approx(tr.i_total, rel=0.0, abs=1e-12)
    for z, r, i in ((tr.z1, p.cell1.resistance_ohm, tr.i1),
                    (tr.z2, p.cell2.resistance_ohm, tr.i2)):
        assert ocv(z) + r * i == pytest.approx(tr.v_t, rel=0.0, abs=1e-12)


# --- integration ------------------------------------------------------------

def test_balanced_trace_shape(balanced_trace):
    tr = balanced_trace
    assert len(tr) == 10585
    assert tr.reason == "soc_floor"
    assert tr.i_total == pytest.approx(-40.0)
    assert tr.v_t[-1] == pytest.approx(3.284279622032658, abs=1e-9)
    assert not tr.current_reversal


def test_balanced_cells_stay_identical(balanced_trace):
    tr = balanced_trace
    assert np.abs(tr.z1 - tr.z2).max() == 0.0
    assert np.abs(tr.i1 - tr.i2).max() == 0.0


def test_conservation_on_varied_scenarios():
    cases = [(1.0, 1.0, {}), (0.7, 1.6, {}), (0.5, 2.0, {}),
             (0.6, 1.0, dict(c_rate=1.0, dt=0.2)),
             (1.0, 1.9, dict(z0=0.9))]
    for a, b, kw in cases:
        tr = simulate_cc_discharge(make_pair(a, b), config=SimConfig(**kw))
        kcl, qbal, vcons = consistency_residuals(tr)
        assert kcl < 1e-9
        assert qbal < 1e-9
        assert vcons < 1e-9


def test_charge_bookkeeping_linear_in_time():
    tr = simulate_cc_discharge(make_pair(0.8, 1.3))
    expected = np.abs(tr.i_total) * tr.t / 3600.0
    assert np.allclose(tr.q_pair, expected, rtol=0.0, atol=1e-12)
    # per-cell coulombs come from SOC drops
    c1 = tr.params.cell1.capacity_ah
    c2 = tr.params.cell2.capacity_ah
    assert np.allclose(tr.q1, c1 * (1.0 - tr.z1), rtol=0.0, atol=1e-12)
    assert np.allclose(tr.q2, c2 * (1.0 - tr.z2), rtol=0.0, atol=1e-12)


def test_soc_monotone_under_discharge():
    tr = simulate_cc_discharge(make_pair(0.6, 1.8))
    assert np.all(np.diff(tr.z1) < 0.0)
    assert np.all(np.diff(tr.z2) < 0.0)


def test_nullified_pairs_track_balanced(balanced_trace):
    for a, b in ((0.5, 2.0), (0.8, 1.25)):
        tr = simulate_cc_discharge(make_pair(a, b))
        assert np.abs(tr.z1 - tr.z2).max() < 1e-9
        n = min(len(tr), len(balanced_trace))
        assert np.abs(tr.v_t[:n] - balanced_trace.v_t[:n]).max() < 1e-9


def test_termination_reasons():
    tr = simulate_cc_discharge(make_pair(1.0, 1.0), config=SimConfig(t_max=100.0))
    assert tr.reason == "t_max"
    assert len(tr) == 101 and tr.t[-1] == 100.0

    tr = simulate_cc_discharge(make_pair(1.0, 1.0), config=SimConfig(v_cutoff=3.6))
    assert tr.reason == "v_cutoff"
    assert tr.v_t[-1] <= 3.6

    tr = simulate_cc_discharge(make_pair(1.0, 1.0))
    assert tr.reason == "soc_floor"
    assert min(tr.z1[-1], tr.z2[-1]) <= 0.02


def test_oversized_step_raises_integration_error():
    # one 700 s step at 3C jumps straight past the SOC floor
    cfg = SimConfig(c_rate=3.0, dt=700.0, soc_floor=0.0, t_max=7000.0)
    with pytest.raises(IntegrationError):
        simulate_cc_discharge(make_pair(1.0, 1.0), config=cfg)


def test_kernel_flags_soc_excursion_when_charging():
    out = kernels.pair_rk4(0.99, 0.99, 3600.0 * 60.0, 3600.0 * 60.0,
                           0.002, 0.002, 40.0, 60.0, 1000, 3.0, 0.02, 1.0e9)
    assert out[6] == 4


@pytest.mark.parametrize("run", [
    lambda cfg, c: simulate_cc_discharge(make_pair(1.0, 1.0, c), cfg),
    lambda cfg, c: single_cell_reference(c, 0.001, cfg)],
    ids=["pair", "single_cell"])
def test_overflowing_current_rejected(run):
    # c_rate * capacity overflows to an infinite current
    with pytest.raises(ConfigError, match="^discharge current -inf A is not"):
        run(SimConfig(c_rate=1e300, t_max=100.0), 1e300)


@pytest.mark.parametrize("run", [
    lambda cfg, c: simulate_cc_discharge(make_pair(1.0, 1.0, c), cfg),
    lambda cfg, c: single_cell_reference(c, 0.001, cfg)],
    ids=["pair", "single_cell"])
def test_underflowing_current_rejected(run):
    # c_rate * capacity underflows to a zero current
    with pytest.raises(ConfigError,
                       match="^discharge current is zero$") as err:
        run(SimConfig(c_rate=1e-300), 1e-300)
    assert err.value.stage == "config"


@pytest.mark.parametrize("run", [
    lambda cfg: simulate_cc_discharge(make_pair(1.0, 1.0), cfg),
    lambda cfg: single_cell_reference(120.0, 0.001, cfg)],
    ids=["pair", "single_cell"])
def test_run_past_the_step_limit_rejected(monkeypatch, run):
    # the time limit allows about 1e15 steps at a tiny SOC step; each
    # integrator would ask for petabytes of samples
    cfg = SimConfig(c_rate=1e-12, t_max=1e15)
    with pytest.raises(ConfigError, match=(
            r"^a run at c_rate 1e-12, dt_s 1 and t_max_s 1e\+15 may take "
            r"1,000,000,000,000,002 steps, more than 10,000,000$")) as err:
        run(cfg)
    assert err.value.stage == "config"
    # the limit applies to the step bound: here the time limit's 102 steps
    cfg = SimConfig(t_max=100.0)
    monkeypatch.setattr(pairsim, "_MAX_STEPS", 102)
    assert len(run(cfg)) == 101
    monkeypatch.setattr(pairsim, "_MAX_STEPS", 101)
    with pytest.raises(ConfigError, match=" 102 steps, more than 101$"):
        run(cfg)


@pytest.mark.parametrize("t_max", [1e9, 1e300])
@pytest.mark.parametrize("run", [
    lambda cfg: simulate_cc_discharge(make_pair(1.0, 1.0), cfg),
    lambda cfg: single_cell_reference(120.0, 0.001, cfg)],
    ids=["pair", "single_cell"])
def test_far_time_limit_keeps_memory_to_the_run(run, t_max):
    # both runs end on the SOC floor after about 10,580 samples; buffers
    # sized by the time limit would take gigabytes, or more than numpy
    # can index
    want = run(SimConfig())
    tracemalloc.start()
    try:
        got = run(SimConfig(t_max=t_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert (len(got), got.reason) == (len(want), want.reason)
    for name in ("t", "z1", "z2", "i1", "i2", "q_pair", "v_t"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_kernel_sample_count_matches_arrays_at_n_max():
    # no termination within n_max samples: reason 0 and n_max samples
    out = kernels.pair_rk4(1.0, 1.0, 3600.0 * 60.0, 3600.0 * 30.0,
                           0.002, 0.003, -40.0, 1.0, 5, 3.0, 0.02, 1.0e9)
    assert out[5:] == (5, 0)
    assert all(len(col) == 5 for col in out[:5])


def test_simulate_peaks_at_the_trace_it_returns():
    # the kernel writes its samples into one buffer per column and the
    # trace keeps them; the peak over what the trace holds was ~306 KiB at
    # dt = 0.1 while per-pass copies were joined at the end, ~1 KiB after
    tracemalloc.start()
    try:
        tr = simulate_cc_discharge(make_pair(0.7, 1.6), SimConfig(dt=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [v for v in vars(tr).values() if isinstance(v, np.ndarray)]
    owners = {id(a): a for a in (c if c.base is None else c.base
                                 for c in columns)}
    held = sum(a.nbytes for a in owners.values())
    assert len(tr) == 105_790
    assert peak - held < 64 * 1024


@pytest.mark.parametrize("step", [2.0 ** -52, 2.0 ** -53, -2.0 ** -60, 0.0])
def test_step_bound_of_a_step_below_rounding_is_n_max(step):
    # a step no larger than 2**-52 may not move the sum at all
    assert kernels.step_bound(1.0, step, 77) == 77
    assert kernels.step_bound(1.0, 0.25, 77) == 7      # ceil(4 + ...) + 2


def _pair_rk4_loop(z1_0, z2_0, c1_as, c2_as, r1, r2, i_total,
                   dt, n_max, v_cutoff, soc_floor, t_max, past=None):
    """The step-by-step RK4 loop: the reference for the windowed Newton
    solve in kernels.pair_rk4."""

    def pair_state(z1, z2, r1, r2, i_total):
        # KCL-consistent split: i1 + i2 == i_total and both cells see the
        # same terminal voltage v_t == ocv(z) + i*r
        u1, u2 = kernels.ocv(z1), kernels.ocv(z2)
        r_tot = r1 + r2
        delta = u2 - u1
        i1 = (delta + r2 * i_total) / r_tot
        i2 = (-delta + r1 * i_total) / r_tot
        v_t = (r1 * u2 + r2 * u1) / r_tot + r1 * r2 * i_total / r_tot
        return i1, i2, v_t

    # plain floats keep every step on float arithmetic; a numpy scalar
    # argument would carry numpy-scalar arithmetic through the loop
    c1_as, c2_as = float(c1_as), float(c2_as)
    r1, r2, i_total, dt = float(r1), float(r2), float(i_total), float(dt)
    v_cutoff, soc_floor = float(v_cutoff), float(soc_floor)
    t_max = float(t_max)
    z1 = np.empty(n_max)
    z2 = np.empty(n_max)
    i1 = np.empty(n_max)
    i2 = np.empty(n_max)
    vt = np.empty(n_max)
    a = float(z1_0)
    b = float(z2_0)
    reason = 0
    k = 0
    # the sample that ends a discharge past the window (reason 5), set at
    # the first sample below v_lo
    stop_at = n_max
    watch = past is not None and i_total < 0.0
    while k < n_max:
        c1, c2, v = pair_state(a, b, r1, r2, i_total)
        z1[k] = a
        z2[k] = b
        i1[k] = c1
        i2[k] = c2
        vt[k] = v
        if watch and v < past[0]:
            watch = False
            stop_at = max(k + past[1], past[2])
        if v <= v_cutoff:
            reason = 1
            break
        if min(a, b) <= soc_floor:
            reason = 2
            break
        if k * dt >= t_max:
            reason = 3
            break
        k1a, k1b = c1 / c1_as, c2 / c2_as
        c1, c2, _ = pair_state(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b,
                               r1, r2, i_total)
        k2a, k2b = c1 / c1_as, c2 / c2_as
        c1, c2, _ = pair_state(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b,
                               r1, r2, i_total)
        k3a, k3b = c1 / c1_as, c2 / c2_as
        c1, c2, _ = pair_state(a + dt * k3a, b + dt * k3b, r1, r2, i_total)
        k4a, k4b = c1 / c1_as, c2 / c2_as
        a = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        k += 1
        if not (-1e-9 <= a <= 1.0 + 1e-9) or not (-1e-9 <= b <= 1.0 + 1e-9):
            reason = 4
            k -= 1
            break
        if k - 1 == stop_at:
            reason = 5
            k -= 1
            break
    n = k + 1
    return z1[:n], z2[:n], i1[:n], i2[:n], vt[:n], n, reason


_PAIR_RK4 = kernels.pair_rk4


def _rk4_in_buffers(*args, **kwargs):
    """kernels.pair_rk4, checking that the run fits the buffers it
    allocates before it starts: C1 z1 + C2 z2 moves linearly, so the run
    ends within the steps its mean SOC takes to the floor (to 1 + 1e-9
    when charging), and the buffers hold that bound plus two, at most
    n_max."""
    out = _PAIR_RK4(*args, **kwargs)
    call = inspect.signature(_PAIR_RK4).bind(*args, **kwargs).arguments
    c = call["c1_as"] + call["c2_as"]
    mean_0 = (call["c1_as"] * call["z1_0"] + call["c2_as"] * call["z2_0"]) / c
    bound = call["soc_floor"] if call["i_total"] < 0.0 else 1.0 + 1e-9
    last = kernels.step_bound(bound - mean_0, call["dt"] * call["i_total"] / c,
                              call["n_max"])
    assert out[5] <= last
    assert all(col.base.shape[-1] == min(last + 2, call["n_max"])
               for col in out[:5])
    return out


def assert_solve_matches_loop(monkeypatch, alpha, beta, cfg):
    pair = make_pair(alpha, beta)
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "pair_rk4", _pair_rk4_loop)
        want = simulate_cc_discharge(pair, cfg)
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "pair_rk4", _rk4_in_buffers)
        got = simulate_cc_discharge(pair, cfg)
    # the same trajectory bit for bit, not within a tolerance
    assert (len(got), got.reason) == (len(want), want.reason)
    for name in ("z1", "z2", "i1", "i2", "v_t"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    return got


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 2.0), (0.7, 1.6),
                                         (0.5, 1.0), (1.0, 2.0), (0.9, 1.95),
                                         (0.975, 1.05)])
def test_windowed_solve_matches_stepping_loop(monkeypatch, alpha, beta):
    assert_solve_matches_loop(monkeypatch, alpha, beta, SimConfig())


@pytest.mark.parametrize("kw", [{"dt": 0.5}, {"dt": 2.0}, {"c_rate": 1.5},
                                {"v_cutoff": 3.5}, {"t_max": 3000.0}])
def test_windowed_solve_matches_stepping_loop_configs(monkeypatch, kw):
    assert_solve_matches_loop(monkeypatch, 0.7, 1.6, SimConfig(**kw))


@pytest.mark.parametrize("alpha, beta, c_rate, cut", [(0.1, 1.0, 2.0, True),
                                                      (0.30, 1.70, 1.47, False)])
def test_imbalanced_pairs_match_loop(monkeypatch, alpha, beta, c_rate, cut):
    guesses, nonfinite = [], []

    class CountingNumpy:
        """numpy for the kernels, counting np.repeat: the fresh guess, and
        only that, repeats its first state."""

        def __getattr__(self, name):
            return getattr(np, name)

        def repeat(self, *args, **kwargs):
            guesses.append(1)
            return np.repeat(*args, **kwargs)

    evaluate = kernels.ocv

    def checked(z):
        u = evaluate(z)
        nonfinite.append(not np.isfinite(u).all())
        return u

    monkeypatch.setattr(kernels, "np", CountingNumpy())
    monkeypatch.setattr(kernels, "ocv", checked)
    assert_solve_matches_loop(monkeypatch, alpha, beta,
                              SimConfig(c_rate=c_rate))
    # trial states of (0.1, 1) at 2C run far outside the OCV's domain, to
    # non-finite OCVs, so its window is cut before them; the window slides
    # past each cut, and a run, cut or not, makes one fresh guess
    assert any(nonfinite) == cut
    assert len(guesses) == 1


@pytest.mark.parametrize("window", [1, 2, 3])
def test_short_windows_match_loop(monkeypatch, window):
    monkeypatch.setattr(kernels, "WINDOW", window)
    assert_solve_matches_loop(monkeypatch, 0.7, 1.6, SimConfig(t_max=200.0))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(alpha=st.floats(0.05, 1.0), beta=st.floats(1.0, 4.0),
       c_rate=st.floats(0.2, 3.0), dt=st.floats(0.5, 5.0),
       z0=st.floats(0.03, 1.0), t_max=st.floats(100.0, 400.0),
       window=st.integers(2, 64))
def test_sliding_window_matches_loop(alpha, beta, c_rate, dt, z0, t_max,
                                     window):
    pair = make_pair(alpha, beta)
    c1, c2 = pair.cell1, pair.cell2
    args = (z0, z0, c1.capacity_ah * 3600.0, c2.capacity_ah * 3600.0,
            c1.resistance_ohm, c2.resistance_ohm,
            -c_rate * (c1.capacity_ah + c2.capacity_ah), dt,
            int(t_max / dt) + 2, 3.0, 0.02, t_max)
    with mock.patch.object(kernels, "WINDOW", window):
        got = _rk4_in_buffers(*args)
    want = _pair_rk4_loop(*args)
    # states, currents and voltage bit for bit, then n and the reason
    assert all(np.array_equal(a, b) for a, b in zip(got[:5], want[:5]))
    assert got[5:] == want[5:]


def _tie_args(**kw):
    """pair_rk4's arguments for (0.7, 1.6) at C/3, with overrides."""
    pair = make_pair(0.7, 1.6)
    c1, c2 = pair.cell1, pair.cell2
    args = dict(z1_0=1.0, z2_0=1.0, c1_as=c1.capacity_ah * 3600.0,
                c2_as=c2.capacity_ah * 3600.0, r1=c1.resistance_ohm,
                r2=c2.resistance_ohm, i_total=-40.0, dt=1.0, n_max=100_000,
                v_cutoff=3.0, soc_floor=0.02, t_max=1e9)
    return {**args, **kw}


@pytest.mark.parametrize("first, tie, reasons", [
    ({"t_max": 300.0}, lambda out: {"v_cutoff": out[4][-1]}, (1, 3)),
    ({"t_max": 300.0},
     lambda out: {"soc_floor": min(out[0][-1], out[1][-1])}, (2, 3)),
    ({"soc_floor": 0.9}, lambda out: {"v_cutoff": out[4][-1]}, (1, 2)),
    # charging past full: the last sample's step leaves the SOC range
    ({"z1_0": 0.99, "z2_0": 0.99, "i_total": 40.0, "dt": 60.0},
     lambda out: {"t_max": (out[5] - 1) * 60.0}, (3, 4)),
], ids=["v_cutoff+t_max", "soc_floor+t_max", "v_cutoff+soc_floor",
        "t_max+excursion"])
def test_tied_stops_take_the_loops_order(first, tie, reasons):
    # a first run ends on one condition; a second run sets another one
    # from its last sample, so both end the run on that same sample
    args = _tie_args(**first)
    out = _pair_rk4_loop(**args)
    assert out[6] == reasons[1]
    args.update(tie(out))
    want = _pair_rk4_loop(**args)
    assert want[5:] == (out[5], reasons[0])
    got = _rk4_in_buffers(**args)
    assert got[5:] == want[5:]
    assert all(np.array_equal(a, b) for a, b in zip(got[:5], want[:5]))


def _charge_past_full(monkeypatch):
    # charging from 0.99 in 60 s steps: the step out of the last sample
    # takes an SOC past 1 + 1e-9
    args = _tie_args(z1_0=0.99, z2_0=0.99, i_total=40.0, dt=60.0)
    got, want = _rk4_in_buffers(**args), _pair_rk4_loop(**args)
    assert got[5:] == want[5:] and want[6] == 4
    assert all(np.array_equal(a, b) for a, b in zip(got[:5], want[:5]))


@pytest.mark.parametrize("run, window, on_last_kept", [
    (lambda mp: assert_solve_matches_loop(mp, 0.7, 1.6, SimConfig()),
     None, False),
    (lambda mp: assert_solve_matches_loop(mp, 1.0, 1.0, SimConfig()),
     None, False),
    (lambda mp: assert_solve_matches_loop(mp, 0.1, 1.0,
                                          SimConfig(c_rate=2.0)),
     None, False),
    # four steps a window: the run's end is the last sample its pass keeps
    (lambda mp: assert_solve_matches_loop(mp, 0.7, 1.6,
                                          SimConfig(t_max=300.0)),
     4, True),
    (_charge_past_full, None, False),
], ids=["imbalanced", "balanced", "cut_windows", "end_on_last_kept",
        "excursion"])
def test_end_codes_are_built_on_one_pass(monkeypatch, run, window,
                                         on_last_kept):
    # a pass builds the end-code rows of its kept samples only when a
    # window-wide test says an end may fall there, so a run builds them
    # once, on its last pass
    built = []
    end_codes = kernels.end_codes

    def counting(**ends):
        built.append(end_codes(**ends))
        return built[-1]

    monkeypatch.setattr(kernels, "end_codes", counting)
    if window is not None:
        monkeypatch.setattr(kernels, "WINDOW", window)
    run(monkeypatch)
    assert len(built) == 1
    if on_last_kept:
        ends = np.flatnonzero(built[0])
        assert len(built[0]) > 1 and ends[0] == len(built[0]) - 1


@pytest.mark.parametrize("past, cutoff_tie", [
    ((3.7, 59, 0), False), ((3.7, 59, 0), True),
    ((3.7, 0, 0), False), ((3.7, 59, 7500), False)],
    ids=["past_v_lo", "tied_with_v_cutoff", "at_v_lo", "past_q_min"])
def test_past_window_stop_cuts_the_full_run(past, cutoff_tie):
    # the run ends steps_past samples past the first one below v_lo, and no
    # earlier than sample steps_min; the samples are the full run's own, as
    # the loop gives them, and v_cutoff on the same sample comes first
    args = _tie_args()
    full = kernels.pair_rk4(**args)
    v_lo, steps_past, steps_min = past
    below = int(np.argmax(full[4] < v_lo))
    last = max(below + steps_past, steps_min)
    reason = 5
    if cutoff_tie:
        args["v_cutoff"] = full[4][last]
        reason = 1
    got = _rk4_in_buffers(**args, past=past)
    want = _pair_rk4_loop(**args, past=past)
    assert got[5:] == want[5:] == (last + 1, reason)
    assert all(np.array_equal(a, b) for a, b in zip(got[:5], want[:5]))
    assert all(np.array_equal(a, b[:last + 1])
               for a, b in zip(got[:5], full[:5]))


def test_charging_run_ignores_the_past_window_stop():
    # every sample of this charge lies below 4.5 V
    args = (0.5, 0.5, 3600.0 * 60.0, 3600.0 * 60.0, 0.002, 0.002, 40.0,
            60.0, 1000, 3.0, 0.02, 1.0e9)
    want = kernels.pair_rk4(*args)
    got = kernels.pair_rk4(*args, past=(4.5, 0, 0))
    assert got[5:] == want[5:] and want[6] != 5
    assert all(np.array_equal(a, b) for a, b in zip(got[:5], want[:5]))


@pytest.mark.parametrize("alpha, beta, cfg, most", [
    (0.7, 1.6, {}, 340), (0.1, 1.0, {"c_rate": 1.0}, 400),
    (0.1, 1.0, {"c_rate": 2.0}, 150), (1.0, 1.0, {}, 90),
    (0.5, 2.0, {}, 90)])
def test_solve_needs_few_ocv_evaluations(monkeypatch, alpha, beta, cfg, most):
    # a fixed-point iteration, with no Newton correction, and a window not
    # cut before its non-finite trial states both reach the loop's
    # trajectory, so only the number of OCV evaluations tells them apart:
    # 330, 194 and 70 here (two of them outside the integrator), 866, 610
    # and 218 with no correction, 2610 for (0.1, 1) at 2C with no cut (at
    # 1C its window is never cut); 382, 214 and 90 with the step Jacobian
    # taken from stage 1 alone and a window filled out with copies of its
    # last increment. A unit product's first guess is exact: 90, 22 passes
    calls = []
    for name in ("ocv", "ocv_and_slope"):
        evaluate = getattr(kernels, name)

        def counting(z, evaluate=evaluate):
            calls.append(1)
            return evaluate(z)

        monkeypatch.setattr(kernels, name, counting)
    simulate_cc_discharge(make_pair(alpha, beta), SimConfig(**cfg))
    assert len(calls) <= most if alpha * beta != 1.0 else len(calls) == most


def test_simulation_emits_no_warning():
    # trial states outside the OCV's domain overflow; the solve keeps that
    # to itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta, c_rate in ((0.1, 1.0, 1.0), (0.30, 1.70, 1.47),
                                    (0.7, 1.6, 1.0 / 3.0)):
            simulate_cc_discharge(make_pair(alpha, beta),
                                  config=SimConfig(c_rate=c_rate))


def test_numpy_scalar_ratios_give_identical_trace():
    plain = simulate_cc_discharge(make_pair(0.7, 1.6))
    boxed = simulate_cc_discharge(make_pair(np.float64(0.7), np.float64(1.6)))
    assert boxed.reason == plain.reason
    for name in ("t", "i_total", "i1", "i2", "z1", "z2", "q_pair", "q1",
                 "q2", "v_t"):
        assert np.array_equal(getattr(boxed, name), getattr(plain, name))


def test_step_halving_converged():
    p = make_pair(0.7, 1.6)
    tr1 = simulate_cc_discharge(p, config=SimConfig(dt=1.0))
    tr2 = simulate_cc_discharge(p, config=SimConfig(dt=0.5))
    n = min(len(tr1), (len(tr2) + 1) // 2)
    assert np.abs(tr1.v_t[:n] - tr2.v_t[::2][:n]).max() < 1e-6


def test_random_scenarios_stay_consistent():
    rng = np.random.default_rng(2024)
    for _ in range(15):
        a = float(rng.uniform(0.3, 1.0))
        b = float(rng.uniform(1.0, 2.5))
        c_rate = float(rng.uniform(0.2, 1.5))
        dt = float(rng.choice([0.5, 1.0, 2.0]))
        tr = simulate_cc_discharge(make_pair(a, b),
                                   config=SimConfig(c_rate=c_rate, dt=dt))
        assert tr.reason in ("v_cutoff", "soc_floor", "t_max")
        kcl, qbal, vcons = consistency_residuals(tr)
        assert kcl < 1e-9 and qbal < 1e-9 and vcons < 1e-9
        assert np.all(np.diff(tr.z1) < 0.0)


def test_single_cell_reference_matches_ohmic_model():
    tr = single_cell_reference(120.0, 0.001)
    assert not tr.has_cell2
    assert np.all(tr.i2 == 0.0) and np.all(tr.z2 == 0.0)
    v = ocv(tr.z1) + 0.001 * tr.i1
    assert np.abs(v - tr.v_t).max() < 1e-12


def _single_cell_loop(capacity_ah, resistance_ohm, cfg):
    """Step-by-step RK4 of one CC cell: the reference for the accumulated
    form in single_cell_reference."""
    i_total = -cfg.c_rate * capacity_ah
    k1 = i_total / (capacity_ah * 3600.0)
    z, vt, a, k = [], [], cfg.z0, 0
    while True:
        v = float(ocv(a)) + i_total * resistance_ohm
        z.append(a)
        vt.append(v)
        if v <= cfg.v_cutoff:
            return z, vt, "v_cutoff"
        if a <= cfg.soc_floor:
            return z, vt, "soc_floor"
        if k * cfg.dt >= cfg.t_max:
            return z, vt, "t_max"
        a = a + (cfg.dt / 6.0) * (k1 + 2.0 * k1 + 2.0 * k1 + k1)
        k += 1


@pytest.mark.parametrize("kw", [{}, {"dt": 0.5}, {"c_rate": 1.0},
                                {"v_cutoff": 3.5}, {"t_max": 3000.0}])
def test_single_cell_reference_matches_stepping_loop(kw):
    cfg = SimConfig(**kw)
    z, vt, reason = _single_cell_loop(120.0, 0.001, cfg)
    tr = single_cell_reference(120.0, 0.001, cfg)
    assert (len(tr), tr.reason) == (len(z), reason)
    assert np.array_equal(tr.z1, z)
    # array OCV may differ from the scalar one in the last bits
    assert np.abs(tr.v_t - vt).max() < 1e-14


def test_single_cell_termination_reasons():
    tr = single_cell_reference(120.0, 0.001, SimConfig(t_max=3000.0))
    assert (len(tr), tr.reason) == (3001, "t_max")
    tr = single_cell_reference(120.0, 0.001, SimConfig(v_cutoff=3.5))
    assert (len(tr), tr.reason) == (8611, "v_cutoff")
    assert tr.v_t[-1] <= 3.5 < tr.v_t[-2]


@pytest.mark.parametrize("first, tie, reason", [
    ({"v_cutoff": 3.5}, lambda tr: {"t_max": tr.t[-1]}, "v_cutoff"),
    ({}, lambda tr: {"t_max": tr.t[-1]}, "soc_floor"),
    ({}, lambda tr: {"v_cutoff": tr.v_t[-1]}, "v_cutoff"),
    # the step out of the last sample leaves the SOC range
    ({"c_rate": 3.0, "dt": 700.0, "soc_floor": 0.0, "t_max": 350.0},
     lambda tr: {"t_max": tr.t[-1]}, "t_max"),
], ids=["v_cutoff+t_max", "soc_floor+t_max", "v_cutoff+soc_floor",
        "t_max+excursion"])
def test_single_cell_tied_stops_take_the_loops_order(first, tie, reason):
    # a first run ends on one condition; a second run sets another one
    # from its last sample, so both end the run on that same sample
    tr = single_cell_reference(120.0, 0.001, SimConfig(**first))
    cfg = SimConfig(**{**first, **tie(tr)})
    z, vt, want = _single_cell_loop(120.0, 0.001, cfg)
    got = single_cell_reference(120.0, 0.001, cfg)
    assert (len(got), got.reason) == (len(z), want) == (len(tr), reason)
    assert np.array_equal(got.z1, z)


def test_single_cell_oversized_step_raises_integration_error():
    cfg = SimConfig(c_rate=3.0, dt=700.0, soc_floor=0.0, t_max=7000.0)
    with pytest.raises(IntegrationError):
        single_cell_reference(120.0, 0.001, cfg)


def test_parallel_pair_equals_lumped_single_cell(balanced_trace):
    single = single_cell_reference(120.0, 0.001)
    n = min(len(balanced_trace), len(single))
    assert np.abs(balanced_trace.v_t[:n] - single.v_t[:n]).max() < 1e-9


def test_current_reversal_flag_set_when_weak_cell_recharges():
    # strong resistance imbalance with a small weak cell forces a sign flip
    tr = simulate_cc_discharge(make_pair(0.1, 1.0), config=SimConfig(c_rate=1.0))
    assert tr.current_reversal == bool((tr.i1 > 0).any() or (tr.i2 > 0).any())

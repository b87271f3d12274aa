"""Electrode potential curves: anchors, derivatives, monotonicity, bits."""

import dataclasses
import math

import numpy as np
import pytest

from pairdva import (SimConfig, extract_features, kernels, make_pair,
                     simulate_cc_discharge)
from pairdva.kernels import docv_dz, ocv, u_neg, u_pos
from test_pairsim import assert_solve_matches_loop


def u_pos_reference(z):
    # independent transcription: Horner form + math module
    poly = 3.6674 + z * (-0.0225 + z * (0.5619 + z * (0.6329
           + z * (-0.1957 + z * 0.1016))))
    return poly - 0.5623 * math.exp(95.102 * (1.0 - z) - 97.036)


def u_neg_reference(z):
    steps = ((0.012, 0.15, 0.019), (0.012, 0.19, 0.019),
             (0.004, 0.27, 0.024), (0.009, 0.23, 0.016),
             (0.0145, 0.59, 0.024), (0.080, 1.24, 0.066))
    val = 0.063 + 0.8 * math.exp(-75.0 * (0.83 * z + 0.007))
    for amp, center, width in steps:
        val -= amp * math.tanh((z - center) / width)
    return val


def test_endpoint_anchors():
    assert u_pos(1.0) == pytest.approx(4.7456000000000005, abs=1e-12)
    assert u_pos(0.0) == pytest.approx(3.5861089832557416, abs=1e-12)
    assert u_neg(0.0) == pytest.approx(0.6677442881088992, abs=1e-12)
    assert u_neg(1.0) == pytest.approx(0.09138900248138397, abs=1e-12)
    assert ocv(0.59) == pytest.approx(3.857256714947333, abs=1e-12)


def test_matches_independent_transcription():
    z = np.linspace(0.0, 1.0, 257)
    got_p = u_pos(z)
    got_n = u_neg(z)
    for i, zi in enumerate(z):
        assert got_p[i] == pytest.approx(u_pos_reference(float(zi)), abs=1e-12)
        assert got_n[i] == pytest.approx(u_neg_reference(float(zi)), abs=1e-12)


def test_ocv_is_electrode_difference():
    z = np.linspace(0.0, 1.0, 1001)
    assert np.allclose(ocv(z), u_pos(z) - u_neg(z), rtol=0.0, atol=1e-15)


def test_ocv_strictly_increasing():
    z = np.linspace(0.0, 1.0, 10001)
    assert np.all(np.diff(ocv(z)) > 0.0)


def test_ocv_slope_bounded():
    # steepest feature is the staging transition near z = 0.59
    z = np.linspace(0.0, 1.0, 20001)
    v = ocv(z)
    dz = z[1] - z[0]
    assert np.abs(np.diff(v)).max() <= 40.0 * dz


def test_derivative_matches_finite_differences():
    z = np.linspace(0.01, 0.99, 197)
    h = 1e-6
    fd = (ocv(z + h) - ocv(z - h)) / (2.0 * h)
    assert np.allclose(docv_dz(z), fd, rtol=1e-6, atol=1e-9)


def test_derivative_positive_everywhere():
    z = np.linspace(0.0, 1.0, 10001)
    assert docv_dz(z).min() > 0.0


def test_scalar_and_array_paths_agree():
    # bit for bit: the RK4 solve on arrays reproduces a loop on floats
    z = np.linspace(0.0, 1.0, 2001)
    for f in (ocv, docv_dz, u_pos, u_neg):
        arr = f(z)
        assert all(f(float(zi)) == arr[i] for i, zi in enumerate(z))


def test_ocv_and_slope_equals_ocv_and_docv_dz():
    # the integrator's shared-term evaluation must be the same arithmetic,
    # also on its (2, m) state arrays and on trial iterates outside [0, 1]
    centres = [centre for _, centre, _ in kernels.OCV.neg_steps]
    z = np.unique(np.concatenate([np.linspace(-0.5, 1.5, 20001), centres]))
    for zz in (z, np.stack((z, z[::-1]))):
        u, du = kernels.ocv_and_slope(zz)
        assert np.array_equal(u, kernels.ocv(zz))
        assert np.array_equal(du, kernels.docv_dz(zz))


def test_float_and_array_shapes_give_the_same_bits():
    # the electrode terms are stacked over the flattened z; each element of
    # a 1-D or (2, m) array, or of a strided (2, m) view like the
    # integrator's x[:, :-1], must come out as it does on its own float,
    # which gives an np.float64
    z = np.linspace(-0.5, 1.5, 1001)
    grid = np.stack((z, z[::-1]))
    view = np.stack((np.append(z, 2.0), np.append(z[::-1], 2.0)))[:, :-1]
    assert not view.flags.c_contiguous
    for f in (kernels.ocv, kernels.docv_dz, kernels.u_pos, kernels.u_neg,
              lambda zz: kernels.ocv_and_slope(zz)[0],
              lambda zz: kernels.ocv_and_slope(zz)[1]):
        flat = f(z)
        assert np.array_equal(f(grid), np.stack((flat, flat[::-1])))
        assert np.array_equal(f(view), np.stack((flat, flat[::-1])))
        assert type(f(0.59)) is np.float64
        assert all(f(float(zi)) == flat[i] for i, zi in enumerate(z))


def test_deterministic():
    z = np.linspace(0.0, 1.0, 501)
    assert np.array_equal(ocv(z), ocv(z))
    assert np.array_equal(docv_dz(z), docv_dz(z))


def test_the_curve_is_one_frozen_value():
    # the written constants are the fields of one value; the rows the
    # formulas read are derived from them and cannot be written
    assert kernels.OCV == kernels.Ocv()
    assert dataclasses.astuple(kernels.OCV) == (
        (3.6674, -0.0225, 0.5619, 0.6329, -0.1957, 0.1016),
        (0.5623, 95.102, 97.036), 0.063, (0.8, 75.0, 0.83, 0.007),
        ((0.012, 0.15, 0.019), (0.012, 0.19, 0.019), (0.004, 0.27, 0.024),
         (0.009, 0.23, 0.016), (0.0145, 0.59, 0.024), (0.080, 1.24, 0.066)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernels.OCV.neg_base = 0.07
    rows = ("powers", "slope", "coef", "centres", "widths", "hw", "pk",
            "pb", "ns", "nb", "minus_nk", "pa_pk", "minus_na_nk_ns")
    for name in rows:
        with pytest.raises(ValueError, match="read-only"):
            getattr(kernels.OCV, name)[...] = 1.0
    # a replaced curve derives rows of its own, and leaves OCV's as they were
    coef = kernels.OCV.coef.copy()
    moved = dataclasses.replace(kernels.OCV, neg_exp=(0.9, 75.0, 0.83, 0.007))
    for name in rows:
        assert not np.shares_memory(getattr(moved, name),
                                    getattr(kernels.OCV, name))
    assert moved.coef[6, 0] == -0.9
    assert np.array_equal(kernels.OCV.coef, coef)


def test_a_three_dimensional_z_gives_the_same_bits():
    # every z is evaluated flat and laid back out in its shape, a 3-d one
    # too
    z = np.linspace(-0.5, 1.5, 24)
    for f in (ocv, docv_dz, u_pos, u_neg,
              lambda zz: kernels.ocv_and_slope(zz)[1]):
        assert np.array_equal(f(z.reshape(2, 3, 4)), f(z).reshape(2, 3, 4))


def test_a_replaced_curve_keeps_its_slope(monkeypatch):
    # the OCV and its slope read one curve: a new exponential amplitude
    # moves both, and the slope still matches the OCV's central difference
    default = ocv(0.05)
    monkeypatch.setattr(kernels, "OCV", dataclasses.replace(
        kernels.OCV, pos_exp=(0.6, 95.102, 97.036)))
    assert ocv(0.05) != default
    z = np.linspace(0.01, 0.99, 197)
    h = 1e-6
    fd = (ocv(z + h) - ocv(z - h)) / (2.0 * h)
    assert np.allclose(docv_dz(z), fd, rtol=1e-6, atol=1e-9)


def test_a_moved_stage_moves_the_discharge_and_its_peak(monkeypatch):
    # the graphite stage the features read, moved from z = 0.59 to 0.60:
    # the OCV, the integrator and the features all see the moved stage
    cfg = SimConfig()
    default = ocv(0.59)
    peak = extract_features(
        simulate_cc_discharge(make_pair(0.8, 1.0), cfg)).q_at_peak
    steps = list(kernels.OCV.neg_steps)
    height, _, width = steps[4]
    steps[4] = (height, 0.60, width)
    monkeypatch.setattr(kernels, "OCV", dataclasses.replace(
        kernels.OCV, neg_steps=tuple(steps)))
    assert ocv(0.59) != default
    trace = assert_solve_matches_loop(monkeypatch, 0.8, 1.0, cfg)
    assert extract_features(trace).q_at_peak != peak

"""Numerical kernels: electrode potentials, pair state, the RK4 discharge loop.

The electrode potentials are written once and take their exp and tanh as
parameters. They are bound twice: to numpy's ufuncs for arrays, and to the
math module for the Python floats of the integration loop, where ufunc
dispatch would cost more than the arithmetic.
"""

import math

import numpy as np


def backend():
    return "numpy"


# --- electrode potentials -------------------------------------------------
# NMC positive and graphite negative equilibrium potentials as closed-form
# fits over cell SOC z. The exponential in u_pos is ~e^-97 at z=1 and decays
# the full-cell curve near z=0; the six tanh steps in u_neg are the graphite
# staging transitions that produce the dV/dQ peaks.

POS_POLY = (3.6674, -0.0225, 0.5619, 0.6329, -0.1957, 0.1016)  # z^0..z^5
POS_EXP = (0.5623, 95.102, 97.036)          # amplitude, rate, offset
NEG_BASE = 0.063
NEG_EXP = (0.8, 75.0, 0.83, 0.007)          # amplitude, rate, slope, offset
# (height, centre, width) of each tanh step
NEG_STEPS = ((0.012, 0.15, 0.019), (0.012, 0.19, 0.019),
             (0.004, 0.27, 0.024), (0.009, 0.23, 0.016),
             (0.0145, 0.59, 0.024), (0.080, 1.24, 0.066))


def _electrodes(exp, tanh):
    """u_pos, u_neg and their z-derivatives over one (exp, tanh) pair:
    numpy's ufuncs for arrays, the math module's functions for floats."""
    p0, p1, p2, p3, p4, p5 = POS_POLY
    pa, pk, pb = POS_EXP
    n0 = NEG_BASE
    na, nk, ns, nb = NEG_EXP
    ((h1, m1, w1), (h2, m2, w2), (h3, m3, w3),
     (h4, m4, w4), (h5, m5, w5), (h6, m6, w6)) = NEG_STEPS

    def u_pos(z):
        return (p0 + p1 * z + p2 * z**2 + p3 * z**3 + p4 * z**4 + p5 * z**5
                - pa * exp(pk * (1.0 - z) - pb))

    def u_neg(z):
        return (n0 + na * exp(-nk * (ns * z + nb))
                - h1 * tanh((z - m1) / w1)
                - h2 * tanh((z - m2) / w2)
                - h3 * tanh((z - m3) / w3)
                - h4 * tanh((z - m4) / w4)
                - h5 * tanh((z - m5) / w5)
                - h6 * tanh((z - m6) / w6))

    def du_pos_dz(z):
        return (p1 + 2.0 * p2 * z + 3.0 * p3 * z**2 + 4.0 * p4 * z**3
                + 5.0 * p5 * z**4
                + pa * pk * exp(pk * (1.0 - z) - pb))

    def du_neg_dz(z):
        # sech^2 written as 1 - tanh^2 so large arguments cannot overflow
        t1 = tanh((z - m1) / w1)
        t2 = tanh((z - m2) / w2)
        t3 = tanh((z - m3) / w3)
        t4 = tanh((z - m4) / w4)
        t5 = tanh((z - m5) / w5)
        t6 = tanh((z - m6) / w6)
        return (-na * nk * ns * exp(-nk * (ns * z + nb))
                - (h1 / w1) * (1.0 - t1 * t1)
                - (h2 / w2) * (1.0 - t2 * t2)
                - (h3 / w3) * (1.0 - t3 * t3)
                - (h4 / w4) * (1.0 - t4 * t4)
                - (h5 / w5) * (1.0 - t5 * t5)
                - (h6 / w6) * (1.0 - t6 * t6))

    return u_pos, u_neg, du_pos_dz, du_neg_dz


u_pos, u_neg, du_pos_dz, du_neg_dz = _electrodes(np.exp, np.tanh)
_u_pos_float, _u_neg_float, _, _ = _electrodes(math.exp, math.tanh)


def ocv_array(z):
    """Full-cell OCV over the numpy binding: for arrays, and for a scalar
    that must match an array evaluation bit for bit."""
    return u_pos(z) - u_neg(z)


def ocv(z):
    # a float goes through math: on one value numpy's ufunc dispatch costs
    # more than the arithmetic, and its float64 result would carry
    # numpy-scalar arithmetic into the caller
    if isinstance(z, float):
        return _u_pos_float(z) - _u_neg_float(z)
    return ocv_array(z)


def docv_dz(z):
    return du_pos_dz(z) - du_neg_dz(z)


# --- pair algebra ---------------------------------------------------------

def pair_state(z1, z2, r1, r2, i_total):
    # KCL-consistent split: i1 + i2 == i_total and both cells see the same
    # terminal voltage v_t == ocv(z) + i*r; each OCV is evaluated once
    u1, u2 = ocv(z1), ocv(z2)
    r_tot = r1 + r2
    delta = u2 - u1
    i1 = (delta + r2 * i_total) / r_tot
    i2 = (-delta + r1 * i_total) / r_tot
    v_t = (r1 * u2 + r2 * u1) / r_tot + r1 * r2 * i_total / r_tot
    return i1, i2, v_t


# --- discharge integration loop --------------------------------------------
# Fixed-step RK4 with the algebraic current split evaluated at every stage;
# the recorded pre-step sample doubles as stage k1. Termination is checked
# on the recorded sample in the order: cutoff voltage, SOC floor, time
# limit (reasons 1/2/3). Reason 4 flags an SOC excursion beyond
# [-1e-9, 1 + 1e-9] after a step and is turned into an error by the caller.

def pair_rk4(z1_0, z2_0, c1_as, c2_as, r1, r2, i_total,
             dt, n_max, v_cutoff, soc_floor, t_max):
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
    while k < n_max:
        c1, c2, v = pair_state(a, b, r1, r2, i_total)
        z1[k] = a
        z2[k] = b
        i1[k] = c1
        i2[k] = c2
        vt[k] = v
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
    n = k + 1
    return z1[:n], z2[:n], i1[:n], i2[:n], vt[:n], n, reason


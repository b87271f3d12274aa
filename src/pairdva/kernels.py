"""Numerical kernels: electrode potentials, pair state, the RK4 discharge loop.

Everything here is written once in plain numpy-compatible form. At import
time the whole set is rebound to numba-compiled versions unless the
environment variable PAIRDVA_NUMBA is set to 0/false/no/off (or numba is
missing), in which case the pure-python definitions run as-is. The compiled
dispatchers accept scalars and arrays alike, so callers never need to know
which backend is active.
"""

import os

import numpy as np


def _env_flag(name, default=True):
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


NUMBA_ENABLED = _env_flag("PAIRDVA_NUMBA")

if NUMBA_ENABLED:
    try:
        from numba import njit as _njit
    except ImportError:
        NUMBA_ENABLED = False


def backend():
    return "numba" if NUMBA_ENABLED else "numpy"


# --- electrode potentials -------------------------------------------------
# NMC positive and graphite negative equilibrium potentials as closed-form
# fits over cell SOC z. The exponential in u_pos is ~e^-97 at z=1 and decays
# the full-cell curve near z=0; the six tanh steps in u_neg are the graphite
# staging transitions that produce the dV/dQ peaks.

def u_pos(z):
    return (3.6674 - 0.0225 * z + 0.5619 * z**2 + 0.6329 * z**3
            - 0.1957 * z**4 + 0.1016 * z**5
            - 0.5623 * np.exp(95.102 * (1.0 - z) - 97.036))


def u_neg(z):
    return (0.063 + 0.8 * np.exp(-75.0 * (0.83 * z + 0.007))
            - 0.012 * np.tanh((z - 0.15) / 0.019)
            - 0.012 * np.tanh((z - 0.19) / 0.019)
            - 0.004 * np.tanh((z - 0.27) / 0.024)
            - 0.009 * np.tanh((z - 0.23) / 0.016)
            - 0.0145 * np.tanh((z - 0.59) / 0.024)
            - 0.080 * np.tanh((z - 1.24) / 0.066))


def ocv(z):
    return u_pos(z) - u_neg(z)


def du_pos_dz(z):
    return (-0.0225 + 1.1238 * z + 1.8987 * z**2 - 0.7828 * z**3
            + 0.508 * z**4
            + 0.5623 * 95.102 * np.exp(95.102 * (1.0 - z) - 97.036))


def du_neg_dz(z):
    # sech^2 written as 1 - tanh^2 so large arguments cannot overflow
    t1 = np.tanh((z - 0.15) / 0.019)
    t2 = np.tanh((z - 0.19) / 0.019)
    t3 = np.tanh((z - 0.27) / 0.024)
    t4 = np.tanh((z - 0.23) / 0.016)
    t5 = np.tanh((z - 0.59) / 0.024)
    t6 = np.tanh((z - 1.24) / 0.066)
    return (-0.8 * 75.0 * 0.83 * np.exp(-75.0 * (0.83 * z + 0.007))
            - (0.012 / 0.019) * (1.0 - t1 * t1)
            - (0.012 / 0.019) * (1.0 - t2 * t2)
            - (0.004 / 0.024) * (1.0 - t3 * t3)
            - (0.009 / 0.016) * (1.0 - t4 * t4)
            - (0.0145 / 0.024) * (1.0 - t5 * t5)
            - (0.080 / 0.066) * (1.0 - t6 * t6))


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
    z1 = np.empty(n_max)
    z2 = np.empty(n_max)
    i1 = np.empty(n_max)
    i2 = np.empty(n_max)
    vt = np.empty(n_max)
    a = z1_0
    b = z2_0
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


if NUMBA_ENABLED:
    _jit = _njit(cache=True, nogil=True)
    u_pos = _jit(u_pos)
    u_neg = _jit(u_neg)
    ocv = _jit(ocv)
    du_pos_dz = _jit(du_pos_dz)
    du_neg_dz = _jit(du_neg_dz)
    docv_dz = _jit(docv_dz)
    pair_state = _jit(pair_state)
    pair_rk4 = _jit(pair_rk4)

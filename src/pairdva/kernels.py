"""Numerical kernels: electrode potentials, pair state, the RK4 discharge.

The electrode potentials are written once, over numpy's ufuncs, and give
the same bits on a float and on an array. The discharge is fixed-step RK4,
solved a window of steps at a time by Newton's method on the whole window
instead of one Python step at a time, to the bits of the step-by-step loop.
"""

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


def _electrodes():
    """u_pos, u_neg, their z-derivatives, and ocv_and_slope, which shares
    the exponential, power and tanh terms between the OCV and its slope."""
    p0, p1, p2, p3, p4, p5 = POS_POLY
    pa, pk, pb = POS_EXP
    n0 = NEG_BASE
    na, nk, ns, nb = NEG_EXP

    def pos_terms(z):
        # np.float_power is the C library's pow, which z**k on a float or a
        # numpy scalar also calls, so the formulas give the same bits on
        # floats and on arrays; numpy's array ** rounds differently in
        # about 5% of cases
        return (np.exp(pk * (1.0 - z) - pb),
                [np.float_power(z, k) for k in (2.0, 3.0, 4.0)])

    def neg_terms(z):
        return (np.exp(-nk * (ns * z + nb)),
                [np.tanh((z - m) / w) for _, m, w in NEG_STEPS])

    def pos(z, terms):
        e, (z2, z3, z4) = terms
        return (p0 + p1 * z + p2 * z2 + p3 * z3 + p4 * z4
                + p5 * np.float_power(z, 5.0) - pa * e)

    def neg(terms):
        e, tanhs = terms
        u = n0 + na * e
        for (h, _, _), t in zip(NEG_STEPS, tanhs):
            u = u - h * t
        return u

    def dpos(z, terms):
        e, (z2, z3, z4) = terms
        return (p1 + 2.0 * p2 * z + 3.0 * p3 * z2 + 4.0 * p4 * z3
                + 5.0 * p5 * z4
                + pa * pk * e)

    def dneg(terms):
        # sech^2 written as 1 - tanh^2 so large arguments cannot overflow
        e, tanhs = terms
        d = -na * nk * ns * e
        for (h, _, w), t in zip(NEG_STEPS, tanhs):
            d = d - (h / w) * (1.0 - t * t)
        return d

    def u_pos(z):
        return pos(z, pos_terms(z))

    def u_neg(z):
        return neg(neg_terms(z))

    def du_pos_dz(z):
        return dpos(z, pos_terms(z))

    def du_neg_dz(z):
        return dneg(neg_terms(z))

    def ocv_and_slope(z):
        tp, tn = pos_terms(z), neg_terms(z)
        return pos(z, tp) - neg(tn), dpos(z, tp) - dneg(tn)

    return u_pos, u_neg, du_pos_dz, du_neg_dz, ocv_and_slope


u_pos, u_neg, du_pos_dz, du_neg_dz, ocv_and_slope = _electrodes()


def ocv(z):
    return u_pos(z) - u_neg(z)


def docv_dz(z):
    return du_pos_dz(z) - du_neg_dz(z)


# --- pair algebra ---------------------------------------------------------

def _split(u1, u2, r1, r2, i_total):
    # KCL-consistent split: i1 + i2 == i_total and both cells see the same
    # terminal voltage v_t == ocv(z) + i*r
    r_tot = r1 + r2
    delta = u2 - u1
    i1 = (delta + r2 * i_total) / r_tot
    i2 = (-delta + r1 * i_total) / r_tot
    v_t = (r1 * u2 + r2 * u1) / r_tot + r1 * r2 * i_total / r_tot
    return i1, i2, v_t


def pair_state(z1, z2, r1, r2, i_total):
    return _split(ocv(z1), ocv(z2), r1, r2, i_total)


# --- discharge integration -------------------------------------------------
# Fixed-step RK4 with the algebraic current split evaluated at every stage;
# the recorded pre-step sample doubles as stage k1. Termination is checked
# on the recorded sample in the order: cutoff voltage, SOC floor, time
# limit (reasons 1/2/3). Reason 4 flags an SOC excursion beyond
# [-1e-9, 1 + 1e-9] after a step and is turned into an error by the caller.
#
# The recursion x_{k+1} = Phi(x_k) is solved a window at a time by Newton's
# method on the whole window. From a guess x, the defect
# Phi(x_k) - x_{k+1} drives the correction delta_{k+1} = J_k delta_k +
# defect_k (delta_0 = 0, J_k = dPhi/dx at x_k), a linear recurrence solved
# by a log-depth doubling scan of its affine maps. The corrected states are
# then summed step by step from corrected increments, so each one is
# rounded as the RK4 step itself rounds it. States up to the first nonzero
# defect are the stepping loop's own, bit for bit, and are kept; Newton goes
# on over the rest of the window. The result is the loop's trajectory
# exactly, not to a tolerance: the features downstream react to a
# last-digit change of one trace sample.

WINDOW = 1024        # most steps solved at once; ~0.6 kB of work per step
MAX_NEWTON = 12      # iterations before a window is retried at half length


def _affine_scan(jac, defect):
    """delta_1..delta_m of delta_{k+1} = jac[:, :, k] @ delta_k + defect[:, k]
    with delta_0 = 0, by recursive doubling of the affine maps; jac
    (2, 2, m) is overwritten."""
    a, b = jac, defect.copy()
    m = b.shape[1]
    d = 1
    while d < m:
        # compose each map with the one d steps before it
        b[:, d:] = a[:, 0, d:] * b[0, :-d] + a[:, 1, d:] * b[1, :-d] + b[:, d:]
        if 2 * d < m:
            a[:, :, d:] = (a[:, 0:1, d:] * a[None, 0, :, :-d]
                           + a[:, 1:2, d:] * a[None, 1, :, :-d])
        d *= 2
    return b


def pair_rk4(z1_0, z2_0, c1_as, c2_as, r1, r2, i_total,
             dt, n_max, v_cutoff, soc_floor, t_max):
    caps = np.array([[c1_as], [c2_as]], dtype=float)
    # the rates are (i1 / c1, (i_total - i1) / c2), so each stage's rate
    # Jacobian is the rank-one dk_di1 w^T with w = di1/dz
    dk_di1 = np.array([[1.0], [-1.0]]) / caps
    r_tot = r1 + r2

    def rates(s):
        u, du = ocv_and_slope(s)
        i1, i2, vt = _split(u[0], u[1], r1, r2, i_total)
        w = np.stack((-du[0], du[1])) / r_tot
        return np.stack((i1, i2)) / caps, w, i1, i2, vt

    def step(x):
        """One RK4 step from each column of x: the increments, rho with
        dPhi/dx = I + dk_di1 rho^T, and the stage-1 currents and terminal
        voltage."""
        # stage j's rates have the x-Jacobian dk_di1 rho_j^T (chain rule
        # through the stage input x + h k_{j-1})
        k1, rho1, i1, i2, vt = rates(x)
        k2, w, _, _, _ = rates(x + 0.5 * dt * k1)
        rho2 = w + 0.5 * dt * (dk_di1 * w).sum(0) * rho1
        k3, w, _, _, _ = rates(x + 0.5 * dt * k2)
        rho3 = w + 0.5 * dt * (dk_di1 * w).sum(0) * rho2
        k4, w, _, _, _ = rates(x + dt * k3)
        rho4 = w + dt * (dk_di1 * w).sum(0) * rho3
        inc = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (dt / 6.0) * (rho1 + 2.0 * rho2 + 2.0 * rho3 + rho4)
        return inc, rho, i1, i2, vt

    def replay(x0, inc):
        """x0 followed by the step-by-step sums of the increments."""
        steps = np.empty((2, inc.shape[1] + 1))
        steps[:, 0] = x0
        steps[:, 1:] = inc
        return np.add.accumulate(steps, axis=1)

    def newton(x, inc, rho, defect):
        """x after one Newton step, its states summed from corrected
        increments so that each is rounded as an RK4 step rounds it."""
        delta = np.zeros_like(inc)
        jac = np.eye(2)[:, :, None] + dk_di1[:, :, None] * rho[None, :, :-1]
        delta[:, 1:] = _affine_scan(jac, defect[:, :-1])
        return replay(x[:, 0], inc + dk_di1 * (rho * delta).sum(0))

    def record(start, x, c1, c2, v):
        """Store samples start.. of states x[:, :-1]; the index of the first
        one that ends the run, and its reason, or None."""
        span = slice(start, start + len(v))
        z1[span], z2[span] = x[:, :-1]
        i1[span], i2[span], vt[span] = c1, c2, v
        nxt = x[:, 1:]
        codes = np.select(
            [v <= v_cutoff, x[:, :-1].min(0) <= soc_floor,
             np.arange(span.start, span.stop) * dt >= t_max,
             ~((nxt >= -1e-9) & (nxt <= 1.0 + 1e-9)).all(0)], [1, 2, 3, 4])
        hits = np.flatnonzero(codes)
        if hits.size:
            return start + int(hits[0]), int(codes[hits[0]])
        return None

    # RK4 keeps C1 z1 + C2 z2 linear in time, and the pair stops by the
    # step where this mean crosses the SOC floor (or 1 + 1e-9 when
    # charging); windows end at most two steps past it
    mean_0 = (c1_as * z1_0 + c2_as * z2_0) / (c1_as + c2_as)
    mean_step = dt * i_total / (c1_as + c2_as)
    bound = soc_floor if i_total < 0.0 else 1.0 + 1e-9
    last = int(np.ceil((bound - mean_0) / mean_step)) + 2

    z1, z2, i1, i2, vt = (np.empty(n_max) for _ in range(5))
    x = np.array([[z1_0], [z2_0]], dtype=float)
    start, length = 0, WINDOW
    # trial iterates of a window may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if x.shape[1] == 1:
                # a new window from its first RK4 increment, repeated
                end = min(start + length, n_max, max(last, start + 1))
                x = replay(x[:, 0], np.repeat(step(x)[0], end - start, 1))
                tries = 0
            inc, rho, c1, c2, v = step(x[:, :-1])
            defect = (x[:, :-1] + inc) - x[:, 1:]
            m = defect.shape[1]
            # the leading steps with no defect are the loop's own; one step
            # from an exact state is exact, finite or not
            exact = 1 if m == 1 else int(np.flatnonzero(
                np.any(defect != 0.0, axis=0)).min(initial=m))
            stop = record(start, x[:, :exact + 1], c1[:exact], c2[:exact],
                          v[:exact])
            start += exact
            if stop or start == n_max:
                n, reason = (stop[0] + 1, stop[1]) if stop else (n_max, 0)
                return z1[:n], z2[:n], i1[:n], i2[:n], vt[:n], n, reason
            if exact == m:
                x = x[:, m:]
                length = min(2 * length, WINDOW)
                continue
            tries += 1
            if tries > MAX_NEWTON or not np.isfinite(defect[:, exact:]).all():
                x = x[:, exact:exact + 1]
                length = max(1, (m - exact) // 2)
                continue
            x = newton(x[:, exact:], inc[:, exact:], rho[:, exact:],
                       defect[:, exact:])

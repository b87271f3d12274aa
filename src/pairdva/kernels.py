"""Numerical kernels: electrode potentials and a pair's RK4 discharge.

The electrode potentials are written once, over numpy's ufuncs, and give
the same bits on a float and on an array. The discharge is fixed-step RK4,
solved by Newton's method on a window of steps that slides along the run
instead of one Python step at a time, to the bits of the step-by-step loop.
"""

import math
from dataclasses import dataclass

import numpy as np


def backend():
    return "numpy"


# --- electrode potentials -------------------------------------------------
# NMC positive and graphite negative equilibrium potentials as closed-form
# fits over cell SOC z. The exponential in u_pos is ~e^-97 at z=1 and decays
# the full-cell curve near z=0; the six tanh steps in u_neg are the graphite
# staging transitions that produce the dV/dQ peaks.
@dataclass(frozen=True)
class Ocv:
    """The potentials' written constants and the read-only rows derived
    from them. The potentials read OCV at each call: replace it whole."""

    pos_poly: tuple = (3.6674, -0.0225, 0.5619, 0.6329, -0.1957, 0.1016)
    pos_exp: tuple = (0.5623, 95.102, 97.036)       # amplitude, rate, offset
    neg_base: float = 0.063
    neg_exp: tuple = (0.8, 75.0, 0.83, 0.007)  # amplitude, rate, slope, offset
    # (height, centre, width) of each tanh step
    neg_steps: tuple = ((0.012, 0.15, 0.019), (0.012, 0.19, 0.019),
                        (0.004, 0.27, 0.024), (0.009, 0.23, 0.016),
                        (0.0145, 0.59, 0.024), (0.080, 1.24, 0.066))

    def __post_init__(self):
        # Each potential folds its weighted rows by np.subtract.reduce from
        # a scalar start, in their written order (numpy adds with pairwise
        # sums; a - (-b) is a + b to the bit): u_pos = p0 - pos_coef . (z,
        # z^2..z^n, e) for pos_poly over z^0..z^n, du_pos/dz = p1 -
        # pos_slope . (z..z^(n-1)) + pa pk e, u_neg = neg_base - neg_coef .
        # (e, tanh_1..tanh_k).
        powers = np.arange(2.0, len(self.pos_poly))
        heights, centres, widths = np.array(self.neg_steps).T
        for name, row in dict(
                pos_powers=powers, pos_slope=-powers * self.pos_poly[2:],
                pos_coef=-np.append(self.pos_poly[1:], -self.pos_exp[0]),
                neg_coef=np.append(-self.neg_exp[0], heights),
                neg_m=centres, neg_w=widths, neg_hw=heights / widths).items():
            row.flags.writeable = False
            object.__setattr__(self, name, row)


OCV = Ocv()    # a study sets kernels.OCV = dataclasses.replace(OCV, ...)


def _rows(values, z):
    """values as an array with one row per value over z's shape."""
    return values.reshape((-1,) + (1,) * getattr(z, "ndim", 0))


def _pos_terms(z):
    """The rows z, z^2..z^n and the exponential of u_pos over z's shape."""
    # np.float_power is the C library's pow, which z**k on a float or a
    # numpy scalar also calls, so the formulas give the same bits on floats
    # and on arrays; numpy's array ** rounds differently in about 5% of cases
    _, pk, pb = OCV.pos_exp
    t = np.empty((len(OCV.pos_coef),) + getattr(z, "shape", ()))
    t[0] = z
    np.float_power(z, _rows(OCV.pos_powers, z), out=t[1:-1])
    np.exp(pk * (1.0 - z) - pb, out=t[-1, ...])
    return t


def _neg_terms(z):
    """The rows e and tanh_1..tanh_k of u_neg over z's shape."""
    _, nk, ns, nb = OCV.neg_exp
    t = np.empty((len(OCV.neg_coef),) + getattr(z, "shape", ()))
    np.exp(-nk * (ns * z + nb), out=t[0, ...])
    np.tanh((z - _rows(OCV.neg_m, z)) / _rows(OCV.neg_w, z), out=t[1:])
    return t


def _pos(terms):
    return np.subtract.reduce(_rows(OCV.pos_coef, terms[0]) * terms, axis=0,
                              initial=OCV.pos_poly[0])


def _neg(terms):
    return np.subtract.reduce(_rows(OCV.neg_coef, terms[0]) * terms, axis=0,
                              initial=OCV.neg_base)


def _slope(z, pos_terms, neg_terms):
    """d(u_pos - u_neg)/dz from the terms the potentials share."""
    pa, pk, _ = OCV.pos_exp
    na, nk, ns, _ = OCV.neg_exp
    dpos = (np.subtract.reduce(_rows(OCV.pos_slope, z) * pos_terms[:-2],
                               axis=0, initial=OCV.pos_poly[1])
            + pa * pk * pos_terms[-1])
    # sech^2 written as 1 - tanh^2 so large arguments cannot overflow
    e, tanhs = neg_terms[0], neg_terms[1:]
    dneg = np.subtract.reduce(np.concatenate((
        [-na * nk * ns * e], _rows(OCV.neg_hw, z) * (1.0 - tanhs * tanhs))))
    return dpos - dneg


def u_pos(z):
    return _pos(_pos_terms(z))


def u_neg(z):
    return _neg(_neg_terms(z))


def ocv(z):
    return u_pos(z) - u_neg(z)


def docv_dz(z):
    return _slope(z, _pos_terms(z), _neg_terms(z))


def ocv_and_slope(z):
    """ocv(z) and docv_dz(z), bit for bit, from one set of terms."""
    tp, tn = _pos_terms(z), _neg_terms(z)
    return _pos(tp) - _neg(tn), _slope(z, tp, tn)


# --- discharge integration -------------------------------------------------
# Fixed-step RK4 with the algebraic current split evaluated at every stage:
# i1 = (delta + r2 i) / (r1 + r2) and i2 = (-delta + r1 i) / (r1 + r2),
# delta = ocv(z2) - ocv(z1), so i1 + i2 == i and both cells see one
# terminal voltage v_t = ocv(z_k) + r_k i_k. The recorded pre-step sample
# doubles as stage k1. A run ends at its first sample with an end code
# (end_codes). Given past = (v_lo, steps_past, steps_min), a discharge's
# past-window stop is steps_past samples after the first with v_t < v_lo,
# or sample steps_min if later, for a caller that reads no further.
#
# The recursion x_{k+1} = Phi(x_k) is solved by Newton's method on a window
# of steps that slides along the run. Each iteration takes the RK4 step
# from every state of the window at once; the defect d_k = Phi(x_k) -
# x_{k+1} drives the correction delta_{k+1} = (I + u rho_k^T) delta_k + d_k,
# delta_0 = 0, where the step Jacobian dPhi/dx ~ I + u rho_k^T has a fixed
# u. So delta_k = D_k + u S_k, with D the running sum of the defects and
# the scalar S_{k+1} = (1 + a_k) S_k + b_k, a_k = u.rho_k, b_k = rho_k.D_k,
# S_0 = 0: one cumprod and one cumsum. rho_k chains the rate Jacobians of
# the four stages from slopes the pass already has: stage 1's at x_k,
# stage 4's at x_{k+1} and their mean for stages 2 and 3, so stages 2-4
# need the OCV but not its slope; an inexact Jacobian costs iterations,
# never bits. The corrected states are summed step by step from corrected
# increments, so each one is rounded as the RK4 step itself rounds it. The
# states up to the first nonzero defect are the stepping loop's own, bit
# for bit, and so is the step from the last of them: each iteration keeps
# those states, at least one, and goes on from that step, with the
# corrected rest of the window and, to keep its width, the last corrected
# increment carried along its step's Jacobian: the window slides along
# the run instead of restarting. A trial state outside the OCV's domain
# gives a non-finite defect; the window is cut before it. The first window
# holds the first state for one step, so its pass keeps that state and
# repeats its increment: the run's one fresh guess. The result is the
# loop's trajectory exactly, not to a tolerance: the features downstream
# react to a last-digit change of one trace sample.

WINDOW = 512         # width of the window; ~0.6 kB of work per step
SOC_SLACK = 1e-9     # how far past [0, 1] a step may take an SOC
# what ends a run, in the order a sample is checked; an excursion is the
# step out of it taking an SOC past SOC_SLACK, an error for the caller
END_REASONS = ("v_cutoff", "soc_floor", "t_max", "excursion", "past_window")


def end_codes(**ends):
    """Each column's end code: 1 plus the END_REASONS index of the first of
    the boolean rows ends, named by reason, that holds there, else 0."""
    codes = 0
    for code, reason in reversed(tuple(enumerate(END_REASONS, 1))):
        codes = np.where(ends.get(reason, False), code, codes)
    return codes


def step_bound(distance, step, n_max):
    """Steps a sum moving by step each step takes to move by distance (of
    the same sign), plus two, at most n_max. Each step rounds the sum by
    less than 2**-52, so a step no larger than that gives n_max."""
    margin = abs(step) - 2.0 ** -52
    if not margin > 0.0:
        return n_max
    return min(n_max,
               max(0, math.ceil(distance / math.copysign(margin, step))) + 2)


def _first(mask, default):
    """Index of the first True of a nonempty boolean row, or default."""
    k = int(mask.argmax())
    return k if mask[k] else default


def pair_rk4(z1_0, z2_0, c1_as, c2_as, r1, r2, i_total,
             dt, n_max, v_cutoff, soc_floor, t_max, past=None):
    caps = np.array([[c1_as], [c2_as]], dtype=float)
    # the rates are (i1 / c1, (i_total - i1) / c2), so the rate Jacobian
    # is the rank-one u w^T with u = dk_di1 and w = di1/dz
    dk_di1 = np.array([[1.0], [-1.0]]) / caps
    r_tot = r1 + r2

    # the split's two currents from the stacked OCVs u in one array:
    # (delta + r2 i_total) / r_tot, (-delta + r1 i_total) / r_tot
    signs = np.array([[1.0], [-1.0]])
    offsets = np.array([[r2 * i_total], [r1 * i_total]])
    v_offset = r1 * r2 * i_total / r_tot
    di1_du = np.array([[-1.0], [1.0]]) / r_tot

    def currents(u):
        return (signs * (u[1] - u[0]) + offsets) / r_tot

    def step(x):
        """One RK4 step from each column of x: the increments, the OCV
        slopes, and the stage-1 currents and terminal voltage."""
        u, du = ocv_and_slope(x)
        i = currents(u)
        k1 = i / caps
        k2 = currents(ocv(x + 0.5 * dt * k1)) / caps
        k3 = currents(ocv(x + 0.5 * dt * k2)) / caps
        k4 = currents(ocv(x + dt * k3)) / caps
        inc = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # v_t = (r1 u2 + r2 u1) / r_tot + r1 r2 i_total / r_tot
        return inc, du, i, (r1 * u[1] + r2 * u[0]) / r_tot + v_offset

    def window(x0, inc, a=0.0, b=0.0):
        """x0 followed by the step-by-step sums of the increments, the last
        of them carried on up to the window's width along its step's
        Jacobian I + dk_di1 rho^T: j steps on, it gains dk_di1 b ((1 +
        a)^j - 1) / a, a = dk_di1.rho and b = rho.inc[:, -1] (b = 0 repeats
        it)."""
        steps = np.empty(
            (2, 1 + min(WINDOW, n_max - start, max(last - start, 1))))
        inc = inc[:, :steps.shape[1] - 1]    # last may have come closer
        n = inc.shape[1]
        steps[:, 0] = x0
        steps[:, 1:n + 1] = inc
        steps[:, n + 1:] = inc[:, -1:]
        if b:
            j = np.arange(1.0, steps.shape[1] - n)
            steps[:, n + 1:] += dk_di1 * (
                b * ((1.0 + a) ** j - 1.0) / a if a else b * j)
        return np.add.accumulate(steps, axis=1)

    def newton(inc, du, defect):
        """The increments inc after one Newton step, and a = dk_di1.rho and
        b = rho.inc of the last. du[:, k] is the OCV slope at the state
        inc[:, k] steps from, and defect[:, k] the defect of the step into
        it, so that state's correction is delta_k = D_k + dk_di1 S_k, D the
        running sum of the defects, and inc[:, k] gains dk_di1
        rho_k.delta_k."""
        # RK4 on rates with the stage Jacobians dk_di1 w_s^T steps by
        # I + dk_di1 rho^T, rho = dt/6 (g1 + 2 g2 + 2 g3 + g4): g1 = w_1,
        # g2 = w_m + h_m/2 g1, g3 = w_m + h_m/2 g2, g4 = w_4 + h_4 g3, with
        # h = dt dk_di1.w; w_1 from the step's state, w_4 from the next
        # state's (the last state's own) and w_m from their mean
        w1 = di1_du * du
        w4 = np.concatenate((w1[:, 1:], w1[:, -1:]), axis=1)
        wm = 0.5 * (w1 + w4)
        hm, h4 = dt * (dk_di1 * wm).sum(0), dt * (dk_di1 * w4).sum(0)
        g2 = wm + 0.5 * hm * w1
        g3 = wm + 0.5 * hm * g2
        rho = (dt / 6.0) * (w1 + 2.0 * g2 + 2.0 * g3 + w4 + h4 * g3)
        d = defect.cumsum(1)
        a = (dk_di1 * rho).sum(0)
        g = (1.0 + a).cumprod()
        s = g * ((rho * d).sum(0) / g).cumsum()     # S_1..S_m
        # rho_k.delta_k = b_k + a_k S_k = S_{k+1} - S_k
        ds = diffs[:len(s)]
        ds[:1] = s[:1]
        np.subtract(s[1:], s[:-1], out=ds[1:])
        fix = inc + dk_di1 * ds
        return fix, a[-1], rho[:, -1] @ fix[:, -1]

    def record(x, nxt, i, v):
        """Write samples start.. of states x, stepping to nxt, into the
        buffers; the samples through the first end, and its code or 0."""
        nonlocal watch, stop_at, last
        end = start + len(v)
        zs[:, start:end] = x
        cs[:, start:end] = i
        vs[start:end] = v
        if watch:
            k = _first(v < v_lo, None)
            if k is not None:   # samples past stop_at are not solved for
                watch = False
                stop_at = max(start + k + steps_past, steps_min)
                last = min(last, stop_at + 1)
        index = np.arange(start, end)
        codes = end_codes(
            v_cutoff=v <= v_cutoff, soc_floor=x.min(0) <= soc_floor,
            t_max=index * dt >= t_max, past_window=index >= stop_at,
            excursion=~((nxt >= -SOC_SLACK)
                        & (nxt <= 1.0 + SOC_SLACK)).all(0))
        k = _first(codes > 0, len(v) - 1)
        return start + k + 1, int(codes[k])

    # RK4 keeps C1 z1 + C2 z2 linear in time, and the pair stops by the
    # step where this mean crosses the SOC floor (or 1 + SOC_SLACK when
    # charging); windows end at most two steps past it
    mean_0 = (c1_as * z1_0 + c2_as * z2_0) / (c1_as + c2_as)
    mean_step = dt * i_total / (c1_as + c2_as)
    bound = soc_floor if i_total < 0.0 else 1.0 + SOC_SLACK
    last = step_bound(bound - mean_0, mean_step, n_max)
    # the sample of reason 5, set once the first sample below v_lo is
    # recorded; no sample reaches n_max
    stop_at = n_max
    watch = past is not None and i_total < 0.0
    if watch:
        v_lo, steps_past, steps_min = past

    # the samples go into one buffer per column, sized by the step bound
    # with a margin of two, not by n_max: the run ends by sample last, and
    # until then a window reaches no further
    cap = min(last + 2, n_max)
    zs, cs, vs = np.empty((2, cap)), np.empty((2, cap)), np.empty(cap)
    start = 0
    diffs = np.empty(WINDOW)        # newton's S_{k+1} - S_k
    # trial states of a window may overflow, and the running product g
    # of a long window underflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the first window: the first state, held for one step
        x = np.repeat(np.array([[z1_0], [z2_0]], dtype=float), 2, axis=1)
        while True:
            inc, du, i, v = step(x[:, :-1])
            nxt = x[:, :-1] + inc
            defect = nxt - x[:, 1:]
            m = defect.shape[1]
            cut = _first(~np.isfinite(defect).all(0), m)
            keep = min(m, 1 + _first((defect != 0.0).any(0), m))
            n, code = record(x[:, :keep], nxt[:, :keep], i[:, :keep],
                             v[:keep])
            start += keep
            if code or start == n_max:
                return (zs[0, :n], zs[1, :n], cs[0, :n], cs[1, :n], vs[:n],
                        n, code)
            if cut > keep:
                x = window(nxt[:, keep - 1], *newton(
                    inc[:, keep:cut], du[:, keep:cut],
                    defect[:, keep - 1:cut - 1]))
            else:   # nothing corrected: copies of the last increment
                x = window(nxt[:, keep - 1], inc[:, keep - 1:keep])

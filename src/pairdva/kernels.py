"""Numerical kernels: electrode potentials and a pair's RK4 discharge.

The electrode potentials are written once, over numpy's ufuncs, and give
the same bits on a float and on an array. The discharge is fixed-step RK4,
solved by Newton's method on a window of steps that slides along the run
instead of one Python step at a time, to the bits of the step-by-step loop.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def backend():
    return "numpy"


def _constant(value):
    """value as a read-only 0-d array: numpy takes one faster than a float,
    to the same bits."""
    constant = np.array(float(value))
    constant.flags.writeable = False
    return constant


_QUARTER, _HALF, _ONE, _TWO = map(_constant, (0.25, 0.5, 1.0, 2.0))


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
        # The potentials share one stack of terms over z's shape: z,
        # z^2..z^n and e_pos, the rows of u_pos, then e_neg and
        # tanh_1..tanh_k, those of u_neg. Each potential folds its weighted
        # rows by np.subtract.reduce from a scalar start, in their written
        # order (numpy adds with pairwise sums; a - (-b) is a + b to the
        # bit): u_pos = p0 - pos_coef . (z, z^2..z^n, e_pos), du_pos/dz =
        # p1 - pos_slope . (z..z^(n-1)) + pa pk e_pos, u_neg = neg_base -
        # neg_coef . (e_neg, tanh_1..tanh_k).
        powers = np.arange(2.0, len(self.pos_poly))
        heights, centres, widths = np.array(self.neg_steps).T
        for name, row in dict(
                pos_powers=powers, pos_slope=-powers * self.pos_poly[2:],
                pos_coef=-np.append(self.pos_poly[1:], -self.pos_exp[0]),
                neg_coef=np.append(-self.neg_exp[0], heights),
                neg_m=centres, neg_w=widths, neg_hw=heights / widths).items():
            row.flags.writeable = False
            object.__setattr__(self, name, row)
        # shaped once for each z.ndim the package evaluates: 0, 1 and 2
        object.__setattr__(self, "shaped", tuple(map(self.rows, range(3))))

    def rows(self, ndim):
        """The _Rows of a z with ndim dimensions."""
        def shaped(*values):
            row = np.concatenate(values).reshape((-1,) + (1,) * ndim)
            row.flags.writeable = False
            return row

        pa, pk, pb = self.pos_exp
        na, nk, ns, nb = self.neg_exp
        coef = shaped(self.pos_coef, self.neg_coef)
        return _Rows(
            (len(coef),), len(self.pos_coef), shaped(self.pos_powers),
            shaped(self.neg_m), shaped(self.neg_w), coef,
            shaped(self.pos_slope), shaped(self.neg_hw), self.pos_poly[0],
            self.pos_poly[1], self.neg_base,
            *map(_constant, (pk, pb, ns, nb, -nk, pa * pk, -na * nk * ns)))


class _Rows(NamedTuple):
    """What one evaluation over a z of one ndim reads: an Ocv's rows, each
    value on its own row over z's shape, and its scalars."""

    n_terms: tuple          # (rows of the terms,)
    n_pos: int              # rows of u_pos's terms, first
    powers: np.ndarray      # of z^2..z^n
    centres: np.ndarray
    widths: np.ndarray
    coef: np.ndarray        # pos_coef, then neg_coef
    slope: np.ndarray       # pos_slope
    hw: np.ndarray          # neg_hw
    p0: float
    p1: float
    neg_base: float
    pk: np.ndarray          # the rest 0-d
    pb: np.ndarray
    ns: np.ndarray
    nb: np.ndarray
    minus_nk: np.ndarray
    pa_pk: np.ndarray
    minus_na_nk_ns: np.ndarray


OCV = Ocv()    # a study sets kernels.OCV = dataclasses.replace(OCV, ...)


def _terms(z):
    """The stack of terms over z's shape, and the _Rows it was built from."""
    z = np.asarray(z)
    shaped = OCV.shaped
    rows = shaped[z.ndim] if z.ndim < len(shaped) else OCV.rows(z.ndim)
    k = rows.n_pos
    t = np.empty(rows.n_terms + z.shape)
    t[0] = z
    z = t[0, ...]       # contiguous, as a slice of the integrator's is not
    # np.float_power is the C library's pow, which z**k on a float or a
    # numpy scalar also calls, so the formulas give the same bits on floats
    # and on arrays; numpy's array ** rounds differently in about 5% of cases
    np.float_power(z, rows.powers, out=t[1:k - 1])
    # e_pos = exp(pk (1 - z) - pb) and e_neg = exp(-nk (ns z + nb)), side by
    # side
    exps, pos, neg = t[k - 1:k + 1], t[k - 1, ...], t[k, ...]
    np.subtract(_ONE, z, out=pos)
    pos *= rows.pk
    pos -= rows.pb
    np.multiply(rows.ns, z, out=neg)
    neg += rows.nb
    neg *= rows.minus_nk
    np.exp(exps, out=exps)
    tanhs = t[k + 1:]
    np.subtract(z, rows.centres, out=tanhs)
    tanhs /= rows.widths
    np.tanh(tanhs, out=tanhs)
    return t, rows


def _potentials(t, rows):
    """u_pos and u_neg from the terms."""
    weighted = rows.coef * t
    k = rows.n_pos
    return (np.subtract.reduce(weighted[:k], axis=0, initial=rows.p0),
            np.subtract.reduce(weighted[k:], axis=0, initial=rows.neg_base))


def _slope(t, rows):
    """d(u_pos - u_neg)/dz from the terms, which it overwrites with its own
    rows: pos_slope z..z^(n-1) and pa pk e_pos of du_pos/dz, then -na nk ns
    e_neg and neg_hw (1 - tanh^2) of du_neg/dz."""
    k = rows.n_pos
    pos, e_pos, neg = t[:k - 2], t[k - 1, ...], t[k:]
    e_neg, tanhs = t[k, ...], t[k + 1:]
    pos *= rows.slope
    e_pos *= rows.pa_pk
    e_neg *= rows.minus_na_nk_ns
    # sech^2 written as 1 - tanh^2 so large arguments cannot overflow
    tanhs *= tanhs
    np.subtract(_ONE, tanhs, out=tanhs)
    tanhs *= rows.hw
    return ((np.subtract.reduce(pos, axis=0, initial=rows.p1) + e_pos)
            - np.subtract.reduce(neg, axis=0))


def u_pos(z):
    return _potentials(*_terms(z))[0]


def u_neg(z):
    return _potentials(*_terms(z))[1]


def ocv(z):
    pos, neg = _potentials(*_terms(z))
    return pos - neg


def docv_dz(z):
    return _slope(*_terms(z))


def ocv_and_slope(z):
    """ocv(z) and docv_dz(z), bit for bit, from one set of terms."""
    t, rows = _terms(z)
    pos, neg = _potentials(t, rows)
    return pos - neg, _slope(t, rows)


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
#
# A pass also has a fixed cost, whatever its width, in numpy call
# overhead: about 130 us on (0.7, 1.6) at WINDOW = 8 (the run's time over
# its 2,525 passes, 2 cores), against 200 us in the same minutes before
# the OCV's rows were shaped once per curve, the scalars became 0-d
# arrays, the capacities stopped broadcasting and a pass stopped building
# end codes where window-wide tests rule every end out.

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
    di1_du = np.array([[-1.0], [1.0]]) / r_tot
    # the scalars of the array arithmetic as 0-d arrays
    (dt_, half_dt, sixth_dt, dk_1, dk_2, r_1, r_2, sum_r, offset_1,
     offset_2, v_offset) = map(_constant, (
         dt, 0.5 * dt, dt / 6.0, *dk_di1[:, 0], r1, r2, r_tot, r2 * i_total,
         r1 * i_total, r1 * r2 * i_total / r_tot))
    dt_dk_di1 = (_constant(dt * dk_1), _constant(dt * dk_2))

    def currents(u):
        """The split's currents from the stacked OCVs u: (delta + r2
        i_total) / r_tot and (r1 i_total - delta) / r_tot."""
        delta = u[1] - u[0]
        i = np.empty_like(u)
        np.add(delta, offset_1, out=i[0])
        # the bits of -delta + r1 i_total
        np.subtract(offset_2, delta, out=i[1])
        i /= sum_r
        return i

    def step(x):
        """One RK4 step from each column of x: the increments, the OCVs
        and OCV slopes there, and the stage-1 currents."""
        caps_x = np.empty(x.shape)      # caps over x, not broadcast
        caps_x[...] = caps
        u, du = ocv_and_slope(x)
        i = currents(u)
        k1 = i / caps_x
        k2 = currents(ocv(x + half_dt * k1)) / caps_x
        k3 = currents(ocv(x + half_dt * k2)) / caps_x
        k4 = currents(ocv(x + dt_ * k3)) / caps_x
        return sixth_dt * (k1 + _TWO * k2 + _TWO * k3 + k4), u, du, i

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
        if b:
            j = np.arange(1.0, steps.shape[1] - n)
            tail = (b / a) * ((1.0 + a) ** j - 1.0) if a else b * j
            np.add(inc[:, -1:], dk_di1 * tail, out=steps[:, n + 1:])
        else:
            steps[:, n + 1:] = inc[:, -1:]
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
        m = inc.shape[1]
        w = np.empty((2, m + 1))
        np.multiply(di1_du, du, out=w[:, :m])
        w[:, m] = w[:, m - 1]
        h = w[0] * dt_dk_di1[0]      # dt dk_di1.w
        h += w[1] * dt_dk_di1[1]
        w1, w4, h4 = w[:, :-1], w[:, 1:], h[1:]
        w14 = w1 + w4
        wm = _HALF * w14
        half_hm = _QUARTER * (h[:-1] + h4)
        g2 = half_hm * w1
        g2 += wm
        g3 = half_hm * g2
        g3 += wm
        rho = h4 * g3           # w1 + 2 g2 + 2 g3 + w4 + h4 g3
        rho += _TWO * (g2 + g3)
        rho += w14
        rho *= sixth_dt
        a = rho[0] * dk_1
        a += rho[1] * dk_2
        b = rho * np.add.accumulate(defect, axis=1)
        b = b[0] + b[1]
        g = np.multiply.accumulate(_ONE + a)
        # S_0..S_m; rho_k.delta_k = b_k + a_k S_k = S_{k+1} - S_k
        s = np.empty(m + 1)
        s[0] = 0.0
        np.multiply(g, np.add.accumulate(b / g), out=s[1:])
        fix = dk_di1 * (s[1:] - s[:-1])
        fix += inc
        return fix, a[-1], rho[0, -1] * fix[0, -1] + rho[1, -1] * fix[1, -1]

    def record(x, nxt, i, u):
        """Write samples start.. of states x, stepping to nxt, with
        currents i and OCVs u into the buffers; the samples through the
        first end, and its code or 0."""
        nonlocal watch, stop_at, last
        end = start + x.shape[1]
        # v_t = (r1 u2 + r2 u1) / r_tot + r1 r2 i_total / r_tot
        v = (r_1 * u[1] + r_2 * u[0]) / sum_r + v_offset
        zs[:, start:end] = x
        cs[:, start:end] = i
        vs[start:end] = v
        if watch:
            k = _first(v < v_lo, None)
            if k is not None:   # samples past stop_at are not solved for
                watch = False
                stop_at = max(start + k + steps_past, steps_min)
                last = min(last, stop_at + 1)
        # no end can fall here: each test fails on a NaN, which takes the
        # full check
        if ((end - 1) * dt < t_max and end - 1 < stop_at
                and not np.count_nonzero(v <= v_cutoff)
                and x.min() > soc_floor
                and nxt.min() >= -SOC_SLACK and nxt.max() <= 1.0 + SOC_SLACK):
            return end, 0
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
    # trial states of a window may overflow, and the running product g
    # of a long window underflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the first window: the first state, held for one step
        x = np.repeat(np.array([[z1_0], [z2_0]], dtype=float), 2, axis=1)
        while True:
            states = x[:, :-1]
            inc, u, du, i = step(states)
            nxt = states + inc
            defect = nxt - x[:, 1:]
            m = defect.shape[1]
            # each step's largest defect, NaN where one is NaN
            err = np.abs(defect)
            err = np.maximum(err[0], err[1])
            finite = np.isfinite(err)
            cut = int(finite.argmin())
            cut = m if finite[cut] else cut
            keep = min(m, 1 + _first(err != 0.0, m))
            n, code = record(x[:, :keep], nxt[:, :keep], i[:, :keep],
                             u[:, :keep])
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

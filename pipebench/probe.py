"""A fixed reference loop that measures the machine's speed during a run.

The benchmark runs on cores shared with other machines' work, and their
speed moves by up to a factor of two over stretches of seconds to minutes.
A run's raw latencies move with it. So the measured loop times a probe
between calls, and `op_latency_p50_probes` divides every call's latency by
the mean of the probe times just before and just after it.

The loop mixes pure-Python float arithmetic (like the scalar integrator)
with small numpy array operations (like the signal and feature code). It
does not touch pairdva, so a change to pairdva leaves it unchanged.
"""

import math
import statistics
import time

import numpy as np

PASSES = 3   # a probe is the median of this many passes of the loop
_ARRAY = np.linspace(0.0, 1.0, 5000)


def _python_part(n=20000):
    x, s = 0.3, 0.0
    for k in range(n):
        x = 0.5 * x + 0.25 * math.tanh(x - 0.1) + 1e-6 * k
        s += math.exp(-x) * x
    return s


def _numpy_part(n=200):
    s = 0.0
    for k in range(n):
        y = np.diff(_ARRAY * (k + 1)) / 0.1
        s += float(np.median(y[::7]))
    return s


def one_pass():
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


def probe():
    """Seconds of one pass of the reference loop, median of PASSES."""
    return statistics.median(one_pass() for _ in range(PASSES))


def normalise(latency, probes):
    """Each call's latency over the mean probe around it.

    `probes` holds (i, seconds) pairs in time order: a probe taken just
    before call i (i == len(latency) for the probe after the last call).
    The first probe must come before call 0 and the last after the last
    call.
    """
    out = []
    k = 0
    for i, lat in enumerate(latency):
        while k + 1 < len(probes) and probes[k + 1][0] <= i:
            k += 1
        out.append(lat / ((probes[k][1] + probes[k + 1][1]) / 2))
    return out

"""Small statistics helpers shared by the benchmark and its spread check."""

import math
import statistics

TAIL_CANDIDATES = (0.99, 0.95, 0.90)
MIN_BEYOND = 10


def samples_beyond(n, q):
    """How many of n samples lie above the q-quantile."""
    return n - math.ceil(q * n)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND samples above
    it, or None when even p90 has fewer (then only p50 is defined)."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summary(values):
    """p50 plus the highest percentile that the sample count supports."""
    out = {"n": len(values), "p50": statistics.median(values)}
    q = tail_percentile(len(values))
    if q is not None:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        out[f"p{round(q * 100)}"] = cuts[round(q * 100) - 1]
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

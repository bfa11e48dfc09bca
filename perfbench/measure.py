"""Timing of one run: the host-speed correction, the median and the tail
percentile."""

from __future__ import annotations

import bisect
import itertools
import math
import time
from fractions import Fraction

# Each CPU of the reference host switches, within seconds, between a fast
# and a slow state whose speeds differ by up to 1.8x, and all pure-Python
# code on it slows alike.  So timed intervals alternate with runs of a
# fixed reference kernel on the same CPU (run.pin_to_one_cpu), and each
# interval is rescaled (``corrected``) to the speed at which that kernel
# takes REFERENCE_S, its typical time on the reference host (2-vCPU Xeon
# at 2.0 GHz, Python 3.11.7).
REFERENCE_S = 1.0e-3
REFERENCE_ITERS = 6000

TAIL_CANDIDATES = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
# Midpoint-rule steps per order statistic in harrell_davis's Beta CDF.
HD_STEPS = 32


def reference() -> float:
    """Wall time of the fixed reference kernel: integer arithmetic and list
    indexing in a Python loop, like the library's inner loops."""
    t0 = time.perf_counter()
    acc, xs = 0, list(range(64))
    for k in range(REFERENCE_ITERS):
        acc = (acc * 31 + xs[k & 63] * k) % 1000003
    return time.perf_counter() - t0


def corrected(durations, refs) -> list:
    """Back-to-back intervals rescaled to the reference speed.  ``refs[i]``
    is the reference kernel's time just before interval i, and the last
    one follows the last interval.  Each interval is scaled by the mean
    of the kernel's times within one interval length of it: for a short
    interval the two that bracket it; for a long one, whose host state
    two samples cannot catch, also those of the intervals around it."""
    bounds = list(itertools.accumulate(durations, initial=0.0))
    sums = list(itertools.accumulate(refs, initial=0.0))
    out = []
    for i, d in enumerate(durations):
        lo = bisect.bisect_left(bounds, bounds[i] - d)
        hi = bisect.bisect_right(bounds, bounds[i + 1] + d)
        out.append(d * REFERENCE_S * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def rank(pct, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among n samples, exact
    (99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def tail_percentile(n: int):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND of n
    samples above its nearest rank; the median when n is too small for
    any."""
    best = TAIL_CANDIDATES[0]
    for pct in TAIL_CANDIDATES:
        if n - rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def harrell_davis(sorted_vals, pct) -> float:
    """Harrell-Davis estimate of percentile ``pct`` of an ascending list:
    the mean of all order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
    law.  A single order statistic jumps when the percentile falls in a
    gap between latency clusters; this estimate moves smoothly."""
    n = len(sorted_vals)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = n * HD_STEPS
    log_pdf = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
               for x in ((k + 0.5) / steps for k in range(steps))]
    top = max(log_pdf)
    weights = [sum(math.exp(v - top) for v in log_pdf[i * HD_STEPS:(i + 1) * HD_STEPS])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, sorted_vals)) / sum(weights)


def latency_summary(latencies):
    """(median, tail percentile, value at it) of a list of latencies, both
    values Harrell-Davis estimates."""
    vals = sorted(latencies)
    pct = tail_percentile(len(vals))
    return harrell_davis(vals, 50), pct, harrell_davis(vals, pct)

"""How fast the host core runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host. Their speed drifts by up
to half, in phases of a second to several minutes, which no statistic over
one run removes. The drift slows any CPU-bound code on the core alike: a
bayes_grid monte_carlo call timed back to back with `kernel()` moved by ±13%
(median over 8 s windows) while its ratio to `kernel()` moved by ±2.5%.

So the untraced runs sample `kernel()` every SAMPLE_PERIOD_S while the
program runs and rescale each stretch of its time by NOMINAL_S over the
kernel's time around it: the time the stretch would have taken on a core
running at nominal speed.
The kernel is the benchmark's own code, so it is the same on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# kernel() seconds on an unslowed core of the 2-vCPU Intel Xeon VM the
# bounds were set on (the lower decile of its samples there)
NOMINAL_S = 4.0e-4
SAMPLE_PERIOD_S = 0.1
TIMED_CALLS = 3     # per sample
RADIUS = 3          # samples on either side that set the speed between two

_rng = np.random.default_rng(20241018)
_CDF = np.cumsum(_rng.random(41))
_CDF /= _CDF[-1]
_U = _rng.random((256, 24))
_COST = _rng.random(41)


def kernel() -> float:
    """A small slice of the work an inventory simulation step does: a demand
    draw by `searchsorted`, clipping, a cost lookup and discounting over a
    256-run chunk, stepped in a Python loop."""
    level = np.zeros(256)
    total = np.zeros(256)
    discount = 1.0
    for j in range(_U.shape[1]):
        demand = np.searchsorted(_CDF, _U[:, j])
        level = np.minimum(np.maximum(level + 3 - demand, -10.0), 30.0)
        total += discount * _COST[np.abs(level).astype(np.intp)]
        discount *= 0.99
    return float(total.sum())


def sample() -> float:
    """Seconds for one kernel() call: the fastest of TIMED_CALLS timed calls
    after one untimed call that brings its data back into cache."""
    kernel()
    times = []
    for _ in range(TIMED_CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def nominal_segments(cuts: list[float], samples: list[list[float]]) -> list[float]:
    """Durations of the stretches between consecutive `cuts`, rescaled to
    nominal speed. `samples` are (time, kernel seconds) pairs in time order,
    on the same clock as the cuts. The speed between sample i and sample
    i + 1, and before the first or after the last, comes from the median of
    the samples i - RADIUS + 1 .. i + RADIUS."""
    times = [t for t, _ in samples]
    kernel = [k for _, k in samples]
    bounds = times[1:-1]    # slice j runs from bounds[j - 1] to bounds[j]
    speed = [NOMINAL_S / statistics.median(kernel[max(0, j - RADIUS + 1):j + RADIUS + 1])
             for j in range(len(bounds) + 1)]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        j = bisect.bisect_right(bounds, a)
        total, lo = 0.0, a
        while j < len(bounds) and bounds[j] < b:
            total += (bounds[j] - lo) * speed[j]
            lo = bounds[j]
            j += 1
        out.append(total + (b - lo) * speed[j])
    return out

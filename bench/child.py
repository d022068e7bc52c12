"""One repetition of one workload in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED OUT_DIR MODE

MODE is `plain` (untraced), `traced` (record spans) or `baseline` (plain,
then time each policy's monte_carlo at the paper's 1000 x 1000 size;
bayes_grid only).

Started by bench/run.py with `src` on PYTHONPATH, so that every repetition
begins from the state a user's new process has: no warm randomness cache, no
reused allocator arenas, no functions already imported on first call.
Prints one JSON line: wall time of the repetition (imports and host-speed
sampling excluded), its cut times and host-speed samples (see `host_timed`),
operation counts, output digest, peak resident memory and, when traced, the
per-layer summary of the span trace.
"""

from __future__ import annotations

import functools
import json
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import hostspeed
import workloads

# monte_carlo seconds at 1000 runs x 1000 steps, N=20 p=100, from ROADMAP.md
ROADMAP_MC_BASELINE = {"oracle": 0.21, "random": 0.26, "loc": 0.25, "tt": 0.32,
                       "momdp": 0.31}


def policy_timings(rep, repeats: int = 3) -> dict:
    """Untraced monte_carlo seconds per policy at 1000 runs x 1000 steps on
    the bayes_grid instance, with the thresholds its grid search chose."""
    from nsmdp import harness, inventory
    env, policies = rep.detail["env"], rep.detail["policies"]
    change = inventory.ChangeSpec("geometric", rho=workloads.RHO)
    out = {}
    for kind, baseline in ROADMAP_MC_BASELINE.items():
        chosen = rep.detail["reports"][kind]
        setup = harness.make_setup(env, policies, kind, change, 1000, workloads.BETA,
                                   detector_kind="shiryaev", detector_rho=workloads.RHO,
                                   threshold_a=chosen["A"], threshold_b=chosen["B"])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            harness.monte_carlo(setup, 1000, 0)
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        out[kind] = {"median_s": median, "roadmap_s": baseline,
                     "gap": median / baseline - 1.0}
    return out


@contextmanager
def host_timed(cuts: list, samples: list):
    """Sample the host's speed every hostspeed.SAMPLE_PERIOD_S from a timer
    signal, and cut the repetition at the start and end of every
    `harness.monte_carlo` call (which the grid functions and the CLI look up
    on the module).

    Times are on a program clock that stops while a sample is taken. On exit
    `cuts` holds the start, every cut and the end, so segment k is: before
    the first call, the first call, between the first and second call, and
    so on; a repetition at one seed makes the same calls in the same order.
    `samples` holds (time, kernel seconds) pairs, the first taken at the
    start and the last at the end. No sample is taken while other threads
    run (the CLI's worker pool), since the kernel would then compete with
    them for the cores and the interpreter lock."""
    from nsmdp import harness
    inner = harness.monte_carlo
    paused = 0.0

    def clock() -> float:
        return time.perf_counter() - paused

    def take_sample() -> None:
        nonlocal paused
        t0 = time.perf_counter()
        samples.append((t0 - paused, hostspeed.sample()))
        paused += time.perf_counter() - t0

    def on_timer(signum, frame) -> None:
        if threading.active_count() == 1:
            take_sample()

    @functools.wraps(inner)
    def monte_carlo(*args, **kwargs):
        cuts.append(clock())
        try:
            return inner(*args, **kwargs)
        finally:
            cuts.append(clock())

    take_sample()
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, hostspeed.SAMPLE_PERIOD_S,
                     hostspeed.SAMPLE_PERIOD_S)
    harness.monte_carlo = monte_carlo
    cuts.append(clock())
    try:
        yield
    finally:
        cuts.append(clock())
        harness.monte_carlo = inner
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        take_sample()


def main(argv) -> dict:
    name, seed, out_dir, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    fn = workloads.WORKLOADS[name][0]
    result = {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    if mode == "traced":
        import spans
        rec = spans.SpanRecorder()
        with spans.traced(rec):
            t0 = time.perf_counter()
            rep = fn(seed, out_dir)
            wall = time.perf_counter() - t0
        result["layers"] = rec.summary()
        result["counters"] = rec.counters
        result["spans"] = len(rec.start)
        result["span_cost_s"] = rec.span_cost_s()
        rec.write(str(out_dir / "spans.npz"))
    else:
        cuts, samples = [], []
        with host_timed(cuts, samples):
            rep = fn(seed, out_dir)
        wall = cuts[-1] - cuts[0]
        result.update(cuts=cuts, kernel_samples=samples)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime - cpu0,
                  attempted=rep.attempted, failed=rep.failed,
                  run_steps=rep.run_steps, digest=rep.digest, problems=rep.problems,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if mode == "baseline" and rep.failed == 0:
        result["mc_1000x1000"] = policy_timings(rep)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

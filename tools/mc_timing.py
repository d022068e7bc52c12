"""Time one scalar Monte Carlo estimate per policy kind at protocol size.

On the protocol instance (N=20, p=100, beta=0.99, geometric change with
rho=0.01, 1000 runs x 1000 steps, seed 0) it solves the policies with the
201-point belief grid, makes one untimed oracle `harness.monte_carlo` call
that draws the runs' randomness, and then prints, for oracle, random, loc,
tt and momdp at fixed thresholds (Shiryaev detector, A=1000, B=10), the
minimum wall time of `monte_carlo` over --repeat calls, and then the
minimum wall time of one `monte_carlo` call over all five kinds at once (a
kind tuple), with a SHA-256 of every kind's per-run `discounted_cost` and
`tau`, which equals the per-kind digest of the last line. The last line gives
the untimed call's wall time, the process's peak resident memory
(`ru_maxrss`) and a SHA-256 of every kind's per-run `discounted_cost` and
`tau`, so two versions of the package can be compared for speed and for
identical results. The line before it times the randomness draw alone: the
minimum wall time over --repeat cold `engine.episode_paths` builds (path
cache emptied first) of the same 1000 x 1000 draw, with a SHA-256 of the
change points and the regime, demand and action paths.

    PYTHONPATH=src python tools/mc_timing.py --repeat 3
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import time

import numpy as np

from nsmdp import engine, harness, inventory

KINDS = ("oracle", "random", "loc", "tt", "momdp")
CAPACITY, PENALTY, BETA, RHO = 20, 100.0, 0.99, 0.01
RUNS, HORIZON, GRID, SEED = 1000, 1000, 201, 0
THRESHOLD_A, THRESHOLD_B = 1000.0, 10.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    env = inventory.build_env(inventory.InventoryParams(
        capacity=CAPACITY, order_cost=1.0, holding_cost=5.0, penalty=PENALTY,
        demand_rate=2.0))
    policies = harness.solve_policies(env, BETA, momdp_grid=GRID, momdp_rho=RHO)
    change = inventory.ChangeSpec(kind="geometric", rho=RHO)
    setups = {kind: harness.make_setup(env, policies, kind, change, HORIZON, BETA,
                                       detector_kind="shiryaev", detector_rho=RHO,
                                       threshold_a=THRESHOLD_A, threshold_b=THRESHOLD_B)
              for kind in KINDS}
    start = time.perf_counter()
    harness.monte_carlo(setups["oracle"], RUNS, SEED)
    first = time.perf_counter() - start

    digest = hashlib.sha256()
    for kind, setup in setups.items():
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = harness.monte_carlo(setup, RUNS, SEED)
            best = min(best, time.perf_counter() - start)
        digest.update(report.discounted_cost.tobytes())
        digest.update(report.tau.tobytes())
        print(f"kind={kind} monte_carlo_s={best:.3f}")
    joint = harness.make_setup(env, policies, KINDS, change, HORIZON, BETA,
                               detector_kind="shiryaev", detector_rho=RHO,
                               threshold_a=THRESHOLD_A, threshold_b=THRESHOLD_B)
    best = float("inf")
    for _ in range(args.repeat):
        start = time.perf_counter()
        reports = harness.monte_carlo(joint, RUNS, SEED)
        best = min(best, time.perf_counter() - start)
    joint_digest = hashlib.sha256()
    for report in reports:
        joint_digest.update(report.discounted_cost.tobytes())
        joint_digest.update(report.tau.tobytes())
    print(f"kinds={','.join(KINDS)} monte_carlo_s={best:.3f} sha256={joint_digest.hexdigest()}")
    best = float("inf")
    for _ in range(args.repeat):
        engine._PATH_CACHE.clear()
        start = time.perf_counter()
        paths = engine.episode_paths(env, change, HORIZON, SEED, np.arange(RUNS))
        best = min(best, time.perf_counter() - start)
    paths_digest = hashlib.sha256(b"".join(path.tobytes() for path in paths)).hexdigest()
    print(f"episode_paths_s={best:.3f} sha256={paths_digest}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"first_call_s={first:.3f} ru_maxrss_mb={peak_mb:.1f} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()

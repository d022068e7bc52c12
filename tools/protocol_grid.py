"""Time one protocol-size threshold grid.

On the protocol instance (N=20, beta=0.99, geometric change with rho=0.01,
1000 runs x 1000 steps, the default 30-point A grid and 16-point B grid) it
runs the grid of one policy kind (loc, kl or tt), or of a comma list of them,
under one detector:

- cusum: criterion 7's non-Bayesian grid at p=200,
  `harness.estimate_nonbayes_grid` (change-at-1 and change-never cost per
  cell) with the windowed CUSUM, m=200;
- sr: that grid with the Shiryaev-Roberts statistic, as criterion 7 and
  the `sweep` and `calibrate` commands run it;
- shiryaev: criterion 5's Bayesian grid at p=100,
  `harness.optimize_thresholds` with the Shiryaev statistic at the prior's
  rho.

It prints the wall time of the grid, the process's peak resident memory
(`ru_maxrss`) and a SHA-256 of every cell's estimates, so two versions of
the package can be compared for speed and for identical results. A comma
list of kinds is one grid call, as `evaluate`, `sweep` and `calibrate` make
it: one line per kind, each with that kind's SHA-256, which equals the
kind's own run's, and the call's wall time and peak memory.

`--runs` and `--horizon` shrink the grid's batch, for instance to the
benchmark's `frontier_cusum` size (256 runs x 400 steps), where the step
loop's per-step cost weighs most. `--repeat N` runs the grid N times, each
drawing its paths afresh, checks that every repetition gives the same
SHA-256, and prints the minimum (`wall_s`) and median (`wall_s_median`)
wall time.

    PYTHONPATH=src python tools/protocol_grid.py --detector cusum --kind tt --seed 0
    PYTHONPATH=src python tools/protocol_grid.py --detector sr --kind loc,kl,tt
    PYTHONPATH=src python tools/protocol_grid.py --runs 256 --horizon 400 --repeat 9
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import statistics
import time

from nsmdp import engine, harness, inventory

CAPACITY, BETA, RHO = 20, 0.99, 0.01
PENALTY = {"cusum": 200.0, "sr": 200.0, "shiryaev": 100.0}
RUNS, HORIZON, WINDOW = 1000, 1000, 200


def kinds(raw: str) -> tuple[str, ...]:
    """A comma list of distinct kinds from loc, kl and tt."""
    names = tuple(raw.split(","))
    if any(k not in ("loc", "kl", "tt") for k in names) or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"need distinct kinds from loc, kl, tt, got {raw!r}")
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--detector", choices=("cusum", "sr", "shiryaev"), default="cusum")
    parser.add_argument("--kind", type=kinds, default=("tt",),
                        help="loc, kl or tt, or a comma list of them (default: tt)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--horizon", type=int, default=HORIZON)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if min(args.runs, args.horizon, args.repeat) < 1:
        parser.error("--runs, --horizon and --repeat must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    env = inventory.build_env(inventory.InventoryParams(
        capacity=CAPACITY, order_cost=1.0, holding_cost=5.0,
        penalty=PENALTY[args.detector], demand_rate=2.0))
    policies = harness.solve_policies(env, BETA)
    change = inventory.ChangeSpec(kind="geometric", rho=RHO)
    # one kind alone is the setup's kind, as the benchmark and the golden digests run it
    several = len(args.kind) > 1
    kind = args.kind if several else args.kind[0]
    b_grid = harness.default_b_grid() if "tt" in args.kind else None
    walls, digests = [], set()
    for _ in range(args.repeat):
        engine._PATH_CACHE.clear()
        start = time.perf_counter()
        if args.detector in ("cusum", "sr"):
            setup = harness.make_setup(env, policies, kind, change, args.horizon, BETA,
                                       detector_kind=args.detector, window=WINDOW)
            grids = harness.estimate_nonbayes_grid(setup, harness.default_a_grid(), b_grid,
                                                   n_runs=args.runs, master_seed=args.seed)
            rows = [[(c.threshold_a, c.threshold_b, c.e1_cost, c.e1_stderr, c.einf_cost,
                      c.einf_stderr) for c in cells]
                    for cells in (grids if several else [grids])]
        else:
            setup = harness.make_setup(env, policies, kind, change, args.horizon, BETA,
                                       detector_kind="shiryaev", detector_rho=RHO)
            choices = harness.optimize_thresholds(setup, harness.default_a_grid(), b_grid,
                                                  n_runs=args.runs, master_seed=args.seed)
            rows = [[(c.threshold_a, c.threshold_b, c.mean_cost, c.stderr)
                     for c in choice.cells]
                    for choice in (choices if several else [choices])]
        walls.append(time.perf_counter() - start)
        digests.add(tuple(hashlib.sha256(repr([tuple(float(v).hex() for v in row)
                                               for row in cells]).encode()).hexdigest()
                          for cells in rows))
    if len(digests) > 1:
        raise SystemExit(f"the repetitions disagree: sha256 {sorted(digests)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    size = "" if (args.runs, args.horizon) == (RUNS, HORIZON) else (
        f"runs={args.runs} horizon={args.horizon} ")
    wall = (f"wall_s={min(walls):.2f}" if args.repeat == 1 else
            f"wall_s={min(walls):.4f} wall_s_median={statistics.median(walls):.4f}")
    for name, cells, digest in zip(args.kind, rows, digests.pop()):
        print(f"detector={args.detector} kind={name} seed={args.seed} {size}"
              f"cells={len(cells)} {wall} ru_maxrss_mb={peak_mb:.1f} sha256={digest}")


if __name__ == "__main__":
    main()

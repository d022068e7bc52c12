"""Time one protocol-size threshold grid.

On the protocol instance (N=20, beta=0.99, geometric change with rho=0.01,
1000 runs x 1000 steps, the default 30-point A grid and 16-point B grid) it
runs one policy kind's grid under one detector:

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
the package can be compared for speed and for identical results.

    PYTHONPATH=src python tools/protocol_grid.py --detector cusum --kind tt --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import time

from nsmdp import harness, inventory

CAPACITY, BETA, RHO = 20, 0.99, 0.01
PENALTY = {"cusum": 200.0, "sr": 200.0, "shiryaev": 100.0}
RUNS, HORIZON, WINDOW = 1000, 1000, 200


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--detector", choices=("cusum", "sr", "shiryaev"), default="cusum")
    parser.add_argument("--kind", choices=("loc", "tt"), default="tt")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    env = inventory.build_env(inventory.InventoryParams(
        capacity=CAPACITY, order_cost=1.0, holding_cost=5.0,
        penalty=PENALTY[args.detector], demand_rate=2.0))
    policies = harness.solve_policies(env, BETA)
    change = inventory.ChangeSpec(kind="geometric", rho=RHO)
    b_grid = harness.default_b_grid() if args.kind == "tt" else None
    start = time.perf_counter()
    if args.detector in ("cusum", "sr"):
        setup = harness.make_setup(env, policies, args.kind, change, HORIZON, BETA,
                                   detector_kind=args.detector, window=WINDOW)
        cells = harness.estimate_nonbayes_grid(setup, harness.default_a_grid(), b_grid,
                                               n_runs=RUNS, master_seed=args.seed)
        rows = [(c.threshold_a, c.threshold_b, c.e1_cost, c.e1_stderr, c.einf_cost,
                 c.einf_stderr) for c in cells]
    else:
        setup = harness.make_setup(env, policies, args.kind, change, HORIZON, BETA,
                                   detector_kind="shiryaev", detector_rho=RHO)
        cells = harness.optimize_thresholds(setup, harness.default_a_grid(), b_grid,
                                            n_runs=RUNS, master_seed=args.seed).cells
        rows = [(c.threshold_a, c.threshold_b, c.mean_cost, c.stderr) for c in cells]
    wall = time.perf_counter() - start
    digest = hashlib.sha256(repr([tuple(float(v).hex() for v in row)
                                  for row in rows]).encode()).hexdigest()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"detector={args.detector} kind={args.kind} seed={args.seed} cells={len(cells)} "
          f"wall_s={wall:.2f} ru_maxrss_mb={peak_mb:.1f} sha256={digest}")


if __name__ == "__main__":
    main()

"""Time one protocol-size non-Bayesian threshold grid.

Runs `harness.estimate_nonbayes_grid` (change-at-1 and change-never cost per
cell) for one policy kind on the protocol instance: N=20, p=200, beta=0.99,
1000 runs x 1000 steps, the default 30-point A grid and 16-point B grid, and
the windowed CUSUM with m=200. It prints the wall time of the grid, the
process's peak resident memory (`ru_maxrss`) and a SHA-256 of every cell's
estimates, so two versions of the package can be compared for speed and for
identical results.

    PYTHONPATH=src python tools/protocol_grid.py --kind tt --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import time

from nsmdp import harness, inventory

CAPACITY, PENALTY, BETA, RHO = 20, 200.0, 0.99, 0.01
RUNS, HORIZON, WINDOW = 1000, 1000, 200


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", choices=("loc", "tt"), default="tt")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    env = inventory.build_env(inventory.InventoryParams(
        capacity=CAPACITY, order_cost=1.0, holding_cost=5.0, penalty=PENALTY,
        demand_rate=2.0))
    policies = harness.solve_policies(env, BETA)
    setup = harness.make_setup(env, policies, args.kind,
                               inventory.ChangeSpec(kind="geometric", rho=RHO), HORIZON,
                               BETA, detector_kind="cusum", window=WINDOW)
    b_grid = harness.default_b_grid() if args.kind == "tt" else None
    start = time.perf_counter()
    cells = harness.estimate_nonbayes_grid(setup, harness.default_a_grid(), b_grid,
                                           n_runs=RUNS, master_seed=args.seed)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(repr([tuple(float(v).hex() for v in (
        c.threshold_a, c.threshold_b, c.e1_cost, c.e1_stderr, c.einf_cost, c.einf_stderr))
        for c in cells]).encode()).hexdigest()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"kind={args.kind} seed={args.seed} cells={len(cells)} "
          f"wall_s={wall:.2f} ru_maxrss_mb={peak_mb:.1f} sha256={digest}")


if __name__ == "__main__":
    main()

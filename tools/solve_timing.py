"""Time the policy solvers on the six criterion-5 table instances.

For each instance (N in {10, 20} x p in {100, 200, 300}, beta=0.99) it
prints the wall time of one `mdp.value_iteration` call per regime, of
`harness.solve_policies` without the belief grid, and of `solve_policies`
with the 201-point belief grid, each the minimum over --repeat calls, and
a SHA-256 of every policy array that solve returns (pi_pre, pi_post,
pi_probe and the belief-grid policy), so two versions of the package can
be compared for speed and for identical policies.

    PYTHONPATH=src python tools/solve_timing.py --repeat 3
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

from nsmdp import harness, inventory
from nsmdp.mdp import value_iteration

INSTANCES = tuple((n, p) for n in (10, 20) for p in (100.0, 200.0, 300.0))
BETA, GRID = 0.99, 201


def best_of(repeat: int, fn):
    """(minimum wall time in seconds, last result) over `repeat` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    for capacity, penalty in INSTANCES:
        env = inventory.build_env(inventory.InventoryParams(
            capacity=capacity, order_cost=1.0, holding_cost=5.0, penalty=penalty,
            demand_rate=2.0))
        vi_pre, _ = best_of(args.repeat, lambda: value_iteration(env.mdp_pre, BETA))
        vi_post, _ = best_of(args.repeat, lambda: value_iteration(env.mdp_post, BETA))
        plain, _ = best_of(args.repeat, lambda: harness.solve_policies(env, BETA))
        grid, pol = best_of(args.repeat,
                            lambda: harness.solve_policies(env, BETA, momdp_grid=GRID))
        digest = hashlib.sha256()
        for table in (pol.pi_pre, pol.pi_post, pol.pi_probe, pol.momdp.policy):
            digest.update(np.ascontiguousarray(table, dtype=np.int64).tobytes())
        print(f"N={capacity} p={penalty:g} vi_pre_ms={vi_pre * 1e3:.2f} "
              f"vi_post_ms={vi_post * 1e3:.2f} solve_s={plain:.4f} "
              f"solve_grid_s={grid:.3f} policies_sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()

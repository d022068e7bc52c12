"""
Discounted-cost comparison under a geometric change prior
=========================================================

A reduced-size rendition of the main experiment: every policy is evaluated
on the same 300 demand paths (common random numbers), and the thresholded
policies first search their threshold grids on those same paths.

Expected ordering: oracle < two-threshold < single-threshold < random, with
the belief-grid baseline close to the two-threshold policy.
"""

import numpy as np

from nsmdp import ChangeSpec, InventoryParams, build_env
from nsmdp.harness import (default_a_grid, default_b_grid, make_setup,
                           monte_carlo, optimize_thresholds, solve_policies)

params = InventoryParams(capacity=20, order_cost=1.0, holding_cost=5.0,
                         penalty=100.0, demand_rate=2.0)
env = build_env(params)
print("solving regimes and the belief-grid baseline...")
policies = solve_policies(env, beta=0.99, momdp_grid=201, momdp_rho=0.01)

change = ChangeSpec(kind="geometric", rho=0.01)
n_runs, seed = 300, 0


def setup(kind, a=np.inf, b=0.0):
    return make_setup(env, policies, kind, change, horizon=1000, beta=0.99,
                      detector_kind="shiryaev", detector_rho=0.01,
                      threshold_a=a, threshold_b=b)


a_grid = default_a_grid(12)
b_grid = default_b_grid(6)
results = {}
results["oracle"] = monte_carlo(setup("oracle"), n_runs, seed)
results["random"] = monte_carlo(setup("random"), n_runs, seed)
results["momdp"] = monte_carlo(setup("momdp"), n_runs, seed)
loc = optimize_thresholds(setup("loc"), a_grid, n_runs=n_runs, master_seed=seed)
results["loc"] = loc.report
tt = optimize_thresholds(setup("tt"), a_grid, b_grid, n_runs=n_runs,
                         master_seed=seed)
results["tt"] = tt.report

print(f"\n{'policy':8s} {'mean cost':>10s} {'stderr':>8s} {'A':>10s} {'B':>8s}")
for kind in ("oracle", "tt", "momdp", "loc", "random"):
    r = results[kind]
    print(f"{kind:8s} {r.mean_cost:10.0f} {r.stderr:8.0f} "
          f"{r.threshold_a:10.3g} {r.threshold_b:8.3g}")

saving = results["loc"].mean_cost - results["tt"].mean_cost
print(f"\nprobing saves {saving:.0f} per episode over switch-on-detection "
      "while using the same detector")

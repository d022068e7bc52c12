"""
Belief-grid baseline
====================

The latent-regime model (observable stock level, hidden demand regime) has a
one-dimensional belief, so it can be solved almost exactly on a belief grid.
This demo solves it, shows how the policy interpolates between the two
regime-optimal policies as the belief grows, and rolls out one episode.
"""

import numpy as np

from nsmdp import (ChangeSpec, EpisodeSetup, InventoryParams, belief_grid_solve,
                   build_env, build_pomdp, simulate_batch, value_iteration)

params = InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                         penalty=100.0, demand_rate=2.0)
env = build_env(params)
rho = 0.01
pomdp = build_pomdp(env.mdp_pre, env.mdp_post, rho)
solution = belief_grid_solve(pomdp, grid_size=201, beta=0.99, tol=1e-6)

pi0 = value_iteration(env.mdp_pre, 0.99).policy
pi1 = value_iteration(env.mdp_post, 0.99).policy
print("orders at empty stock as the change belief grows:")
for b in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
    print(f"  belief {b:.1f}: order {solution.action(0, b):2d}   "
          f"(regime-optimal orders: {pi0[0]} pre, {pi1[0]} post)")

# roll out one episode with the belief-tracking controller
change_at = 40
setup = EpisodeSetup(env=env, policy_kind="momdp",
                     change=ChangeSpec(kind="fixed", gamma=change_at),
                     horizon=81, beta=0.99, momdp=solution)
tr = simulate_batch(setup, master_seed=2, run_ids=np.array([0]), trace=True).trace
print("\nstep  stock  belief  action")
for k in range(1, 81):
    if k % 5 == 0 or abs(k - change_at) <= 2:
        print(f"{k:4d}  {int(tr['state'][0, k]):5d}  {tr['statistic'][0, k]:6.3f}"
              f"  {int(tr['action'][0, k]):6d}")

print(f"\nthe belief snaps toward 1 shortly after the change at step {change_at}")

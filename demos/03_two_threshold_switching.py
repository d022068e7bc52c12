"""
Two-threshold switching in action
=================================

Runs one episode of the two-threshold controller and prints the phase band
it occupies at each step: exploit (statistic at or below B), probe (between
B and A), and the absorbing switch to the post-change policy (above A),
labelled pre, probe and post.
"""

import numpy as np

from nsmdp import PHASES, ChangeSpec, InventoryParams, build_env
from nsmdp.engine import simulate_batch
from nsmdp.harness import make_setup, solve_policies

params = InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                         penalty=100.0, demand_rate=2.0)
env = build_env(params)
policies = solve_policies(env, beta=0.99)

setup = make_setup(env, policies, "tt", ChangeSpec(kind="fixed", gamma=50),
                   horizon=100, beta=0.99, detector_kind="shiryaev",
                   detector_rho=0.01, threshold_a=500.0, threshold_b=5.0)
batch = simulate_batch(setup, master_seed=1, run_ids=np.array([0]), trace=True)
tr = batch.trace

print("step  stock  action  demand  log-statistic  phase")
last_phase = None
for k in range(setup.horizon):
    phase = PHASES[int(tr["phase"][0, k])]
    if phase != last_phase or k % 10 == 0:
        print(f"{k:4d}  {int(tr['state'][0, k]):5d}  {int(tr['action'][0, k]):6d}"
              f"  {int(tr['demand'][0, k]):6d}  {tr['statistic'][0, k]:13.2f}"
              f"  {phase}")
    last_phase = phase

tau = int(batch.tau[0])
print(f"\nchange at transition {int(batch.gamma[0])}, switch at transition {tau}, "
      f"detection delay {tau - int(batch.gamma[0])}")
print(f"discounted cost: {batch.discounted_cost[0]:.1f}")
print("\nthe probe band buys detection speed only when the evidence is "
      "ambiguous; below B the controller keeps harvesting the exploit policy")

"""
Solving both demand regimes of the inventory problem
====================================================

Builds the pre-change (Poisson demand) and post-change (Uniform demand)
inventory MDPs, solves each by policy iteration, and compares the policies
that matter for switching control: the exploit policy, the post-change
policy, and the information-maximizing probe policy.
"""

import numpy as np

from nsmdp import (InventoryParams, build_env, info_number, kl_policy,
                   max_info_number, value_iteration)

params = InventoryParams(capacity=20, order_cost=1.0, holding_cost=5.0,
                         penalty=100.0, demand_rate=2.0)
env = build_env(params)

# optimal stationary policies under each regime
pre = value_iteration(env.mdp_pre, beta=0.99)
post = value_iteration(env.mdp_post, beta=0.99)
print("exploit policy (Poisson regime), order-up-to structure:")
print("  ", pre.policy)
print("post-change policy (Uniform regime), far more aggressive:")
print("  ", post.policy)

# the probing policy maximizes the per-step KL divergence between regimes
probe = kl_policy(env.mdp_pre.kernel, env.mdp_post.kernel, env.mdp_pre.feasible)
print("probe policy (maximizes distinguishability):")
print("  ", probe)

# information rates: how fast a detector learns under each behavior
k0, k1 = env.mdp_pre.kernel, env.mdp_post.kernel
i_exploit = info_number(k0, k1, pre.policy)
i_probe = info_number(k0, k1, probe)
i_best, _ = max_info_number(k0, k1, env.mdp_pre.feasible)
print(f"\ninformation rates: exploit {i_exploit:.3f}  probe {i_probe:.3f}  "
      f"best achievable {i_best:.3f}")
print("the gap between exploit and best is what two-threshold switching exploits")

# keeping little stock censors demand observations, hence the small rate
states = np.arange(len(pre.policy))
order_up_to = int((states + pre.policy)[pre.policy > 0].max())
print(f"\nexploit order-up-to level: {order_up_to} of {params.capacity} "
      "(demand above the stock level is observed only as a stock-out)")

"""
Sequential change statistics on one trajectory
==============================================

Simulates a single inventory episode whose demand regime switches at a known
time, then replays the same state-action stream through the four detectors:
Shiryaev (Bayesian prior), Shiryaev-Roberts, windowed CUSUM, and a GLR over
two candidate post-change models.
"""

import numpy as np

from nsmdp import (ChangeSpec, Detector, DetectorConfig, EpisodeSetup,
                   InventoryParams, build_env, build_inventory_mdp,
                   simulate_batch, value_iteration)

params = InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                         penalty=100.0, demand_rate=2.0)
env = build_env(params)
policy = value_iteration(env.mdp_pre, beta=0.99).policy

# one episode under the pre-change policy: Poisson demand for 60 steps,
# Uniform afterward (transition 61 is the first post-change one)
change_at = 60
setup = EpisodeSetup(env=env, policy_kind="oracle",
                     change=ChangeSpec(kind="fixed", gamma=change_at + 1),
                     horizon=121, beta=0.99, pi_pre=policy, pi_post=policy)
trace = simulate_batch(setup, master_seed=4, run_ids=np.array([0]), trace=True).trace
states = trace["state"][0].astype(int)
actions = trace["action"][0].astype(int)
transitions = list(zip(states[:-1], actions[:-1], states[1:]))

# a second candidate model for the GLR: a different Uniform support
wide = build_inventory_mdp(
    InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                    penalty=100.0, demand_rate=2.0, uniform_max=6), "uniform")

detectors = {
    "shiryaev": Detector(DetectorConfig(kind="shiryaev", threshold=1e6, rho=0.01),
                         env.mdp_pre.kernel, env.mdp_post.kernel),
    "sr": Detector(DetectorConfig(kind="sr", threshold=1e6),
                   env.mdp_pre.kernel, env.mdp_post.kernel),
    "cusum": Detector(DetectorConfig(kind="cusum", threshold=14.0, window=200),
                      env.mdp_pre.kernel, env.mdp_post.kernel),
    "glr": Detector(DetectorConfig(kind="glr", threshold=14.0, window=200,
                                   theta_grid=(env.mdp_post.kernel, wide.kernel)),
                    env.mdp_pre.kernel),
}

print("step  " + "".join(f"{name:>12s}" for name in detectors))
for n, tr in enumerate(transitions, start=1):
    row = []
    for det in detectors.values():
        if not det.stopped:
            det.update(*tr)
        row.append(det.state.log_stat)
    if n % 10 == 0 or n == change_at + 1:
        marker = "  <- change" if n == change_at + 1 else ""
        print(f"{n:4d}  " + "".join(f"{v:12.2f}" for v in row) + marker)

print("\nstopping times (transition index of first threshold crossing):")
for name, det in detectors.items():
    extra = ""
    if name == "glr" and det.state.theta_hat is not None:
        label = "known Uniform" if det.state.theta_hat == 0 else "wide Uniform"
        extra = f"  (most likely model: {label})"
    print(f"  {name:9s} tau = {det.stopped_at}{extra}")
print(f"true change point: transition {change_at + 1}")

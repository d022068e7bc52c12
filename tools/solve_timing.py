"""Time the policy solvers on the six criterion-5 table instances.

For each instance (N in {10, 20} x p in {100, 200, 300}, beta=0.99) it
prints the wall time of `inventory.build_env`, of one
`mdp.value_iteration` call per regime, of `harness.solve_policies` without
the belief grid, and of `solve_policies` with the 201-point belief grid,
each the minimum over --repeat calls. It also prints a SHA-256 of both
regimes' kernel and cost bytes and one of every policy array that solve
returns (pi_pre, pi_post, pi_probe and the belief-grid policy), so two
versions of the package can be compared for speed, for identical models
and for identical policies. For the belief-grid
solve it also prints how many policy evaluations it made, a SHA-256 of its
value and deltas bytes, and the Bellman residual of its value, recomputed
here on full (S, A, G, S') tables rather than the solver's own. Last, it
prints the time to encode what `nsmdp solve` writes to models.json and
solution.json for the instance (`cli.solve_documents`, `cli._json_text`).

    PYTHONPATH=src python tools/solve_timing.py --repeat 3
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

from nsmdp import cli, harness, inventory
from nsmdp.mdp import log_ratio_table, value_iteration
from nsmdp.momdp import MomdpSolution, belief_step

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


def grid_residual(sol: MomdpSolution, beta: float) -> float:
    """Sup-norm Bellman residual of a belief-grid value function, one action
    at a time: next values are interpolated linearly in the belief."""
    pomdp, grid, v = sol.pomdp, sol.grid, sol.value
    pred = grid + (1.0 - grid) * pomdp.rho
    lr = np.exp(log_ratio_table(pomdp.mdp1.kernel, pomdp.mdp0.kernel))
    s_next = np.arange(v.shape[0])
    q = np.full((v.shape[0], pomdp.mdp0.n_actions, len(grid)), np.inf)
    for s, acts in enumerate(pomdp.mdp0.feasible):
        for a in acts:
            k0, k1 = pomdp.mdp0.kernel[s, a], pomdp.mdp1.kernel[s, a]
            b_next = belief_step(grid[:, None], lr[s, a], pomdp.rho)        # (G, S')
            pos = np.clip(b_next, 0.0, 1.0) * (len(grid) - 1)
            lo = np.minimum(pos.astype(int), len(grid) - 2)
            w = pos - lo
            probs = (1.0 - pred[:, None]) * k0 + pred[:, None] * k1
            cont = np.sum(probs * ((1.0 - w) * v[s_next, lo] + w * v[s_next, lo + 1]), axis=1)
            cost = (1.0 - pred) * pomdp.mdp0.cost[s, a] + pred * pomdp.mdp1.cost[s, a]
            q[s, a] = cost + beta * cont
    return float(np.max(np.abs(v - q.min(axis=1))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    for capacity, penalty in INSTANCES:
        params = inventory.InventoryParams(capacity=capacity, order_cost=1.0, holding_cost=5.0,
                                           penalty=penalty, demand_rate=2.0)
        build, env = best_of(args.repeat, lambda: inventory.build_env(params))
        models = hashlib.sha256()
        for table in (env.mdp_pre.kernel, env.mdp_pre.cost, env.mdp_post.kernel,
                      env.mdp_post.cost):
            models.update(table.tobytes())
        vi_pre, _ = best_of(args.repeat, lambda: value_iteration(env.mdp_pre, BETA))
        vi_post, _ = best_of(args.repeat, lambda: value_iteration(env.mdp_post, BETA))
        plain, _ = best_of(args.repeat, lambda: harness.solve_policies(env, BETA))
        grid, pol = best_of(args.repeat,
                            lambda: harness.solve_policies(env, BETA, momdp_grid=GRID))
        digest = hashlib.sha256()
        for table in (pol.pi_pre, pol.pi_post, pol.pi_probe, pol.momdp.policy):
            digest.update(np.ascontiguousarray(table, dtype=np.int64).tobytes())
        value = hashlib.sha256(pol.momdp.value.tobytes() + np.array(pol.momdp.deltas).tobytes())
        cfg = cli.load_config(None, {"inventory.capacity": str(capacity),
                                     "inventory.shortage_penalty": repr(penalty),
                                     "run.beta": repr(BETA), "policies.momdp_grid": str(GRID),
                                     "policies.kinds": "oracle,loc,kl,tt,random,momdp"})
        documents = cli.solve_documents(cfg, env, pol)
        encode = {name: best_of(args.repeat, lambda: cli._json_text(document))[0]
                  for name, document in documents.items()}
        print(f"N={capacity} p={penalty:g} build_env_ms={build * 1e3:.2f} "
              f"models_sha256={models.hexdigest()} vi_pre_ms={vi_pre * 1e3:.2f} "
              f"vi_post_ms={vi_post * 1e3:.2f} solve_s={plain:.4f} "
              f"solve_grid_s={grid:.3f} grid_evaluations={len(pol.momdp.deltas)} "
              f"grid_residual={grid_residual(pol.momdp, BETA):.2e} "
              f"policies_sha256={digest.hexdigest()} value_sha256={value.hexdigest()} "
              f"models_json_ms={encode['models.json'] * 1e3:.2f} "
              f"solution_json_ms={encode['solution.json'] * 1e3:.2f}")


if __name__ == "__main__":
    main()

"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the package's numerics: plain-Python brute
force (hypothesis enumeration, suffix scans, policy enumeration) so they can
arbitrate the vectorized implementations. The one exception is
`belief_grid_oracle`, a frozen copy of the full-table belief-grid solver
that pins the grouped solver's output bit for bit.
"""

import itertools
import math

import numpy as np

from nsmdp.detectors import log_ratio_table
from nsmdp.errors import NumericalError
from nsmdp.mdp import TabularMdp
from nsmdp.momdp import MomdpSolution, belief_step

EPS = 1e-12


def random_kernel(n_states, n_actions, rng, min_prob=0.05):
    """Random stochastic kernel with strictly positive entries, so every
    policy induces an irreducible chain."""
    raw = rng.random((n_states, n_actions, n_states)) + min_prob
    return raw / raw.sum(axis=2, keepdims=True)


def random_mdp(n_states, n_actions, rng, min_prob=0.05):
    return TabularMdp(kernel=random_kernel(n_states, n_actions, rng, min_prob),
                      cost=rng.random((n_states, n_actions)))


def enumerate_policies(feasible):
    """All deterministic stationary policies as integer arrays."""
    for combo in itertools.product(*feasible):
        yield np.array(combo, dtype=int)


def kl_oracle(p, q, eps=EPS):
    """Scalar-loop KL with the same flooring rule, for cross-checking."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * (math.log(max(pi, eps)) - math.log(max(qi, eps)))
    return max(total, 0.0)


def info_number_oracle(kernel0, kernel1, policy):
    """Stationary-average KL by brute-force power iteration."""
    n = kernel1.shape[0]
    p = np.array([kernel1[s, policy[s]] for s in range(n)])
    mu = np.full(n, 1.0 / n)
    for _ in range(200_000):
        nxt = mu @ p
        if np.max(np.abs(nxt - mu)) < 1e-14:
            break
        mu = nxt
    return sum(mu[s] * kl_oracle(kernel1[s, policy[s]], kernel0[s, policy[s]])
               for s in range(n))


def suffix_max_oracle(log_lrs, window):
    """Brute-force windowed suffix maximization for CUSUM-style statistics:
    max over k in [n - window, n] of sum(log_lrs[k-1:n])."""
    n = len(log_lrs)
    best = -math.inf
    for k in range(max(1, n - window), n + 1):
        best = max(best, sum(log_lrs[k - 1:n]))
    return best


def bayes_posterior_oracle(log_lrs, rho):
    """Exhaustive change-point-hypothesis posterior.

    Hypotheses: change at transition g in {1..n} with geometric prior
    rho (1-rho)^(g-1), or no change by n with mass (1-rho)^n; per-hypothesis
    likelihood relative to the all-pre path is the product of the post-change
    ratios.
    """
    n = len(log_lrs)
    num = 0.0
    for g in range(1, n + 1):
        weight = rho * (1.0 - rho) ** (g - 1)
        num += weight * math.exp(sum(log_lrs[g - 1:]))
    den = num + (1.0 - rho) ** n
    return num / den


def finite_horizon_policy_value(mdp, policy, beta, horizon, s0):
    """Backward-induction value of a stationary policy over a finite horizon."""
    v = np.zeros(mdp.n_states)
    idx = np.arange(mdp.n_states)
    p = mdp.kernel[idx, policy]
    c = mdp.cost[idx, policy]
    for _ in range(horizon):
        v = c + beta * p @ v
    return float(v[s0])


def is_order_up_to(policy):
    """True when the policy orders up to a fixed level: s + a(s) constant
    while orders are positive, zero orders beyond."""
    levels = [s + a for s, a in enumerate(policy) if a > 0]
    if not levels:
        return True
    target = levels[0]
    for s, a in enumerate(policy):
        expected = max(0, target - s)
        if a != expected:
            return False
    return True


def belief_grid_oracle(pomdp, grid_size=201, beta=0.99, tol=1e-6,
                       max_iter=100_000, inner_sweeps=30):
    """The belief-grid solver as it was before it grouped (s, a) pairs by
    transition rows: every table is (S, A, G, S'). Kept verbatim so that
    `belief_grid_solve` can be checked against it bit for bit."""
    mdp0, mdp1, rho = pomdp.mdp0, pomdp.mdp1, pomdp.rho
    n_s, n_a = mdp0.n_states, mdp0.n_actions
    g = grid_size
    grid = np.linspace(0.0, 1.0, g)

    mask = mdp0.feasible_mask()                      # shared with mdp1
    pred = grid + (1.0 - grid) * rho                 # (G,)
    t0 = mdp0.kernel[:, :, None, :]                  # (S, A, 1, S')
    t1 = mdp1.kernel[:, :, None, :]
    pw = pred[None, None, :, None]
    p_next = (1.0 - pw) * t0 + pw * t1               # (S, A, G, S')

    lr = np.exp(log_ratio_table(mdp1.kernel, mdp0.kernel))
    b_next = belief_step(grid[None, None, :, None], lr[:, :, None, :], rho)
    pos = np.clip(b_next, 0.0, 1.0) * (g - 1)
    lo = np.minimum(pos.astype(np.int64), g - 2)     # (S, A, G, S')
    w_hi = pos - lo
    s_idx = np.arange(n_s)[None, None, None, :]
    flat_lo = (s_idx * g + lo).astype(np.int64)

    step_cost = ((1.0 - pred[None, None, :]) * mdp0.cost[:, :, None]
                 + pred[None, None, :] * mdp1.cost[:, :, None])   # (S, A, G)
    inf_cost = np.where(mask, 0.0, np.inf)[:, :, None]

    c_max = max(float(mdp0.cost[mask].max()), float(mdp1.cost[mask].max()))
    v = np.full((n_s, g), c_max / (1.0 - beta) if beta > 0 else c_max)

    s_rows = np.arange(n_s)[:, None]
    g_cols = np.arange(g)[None, :]
    for _ in range(max_iter):
        vf = v.ravel()
        interp = (1.0 - w_hi) * vf[flat_lo] + w_hi * vf[flat_lo + 1]
        q = step_cost + inf_cost + beta * np.einsum("sagn,sagn->sag", p_next, interp)
        v_new = q.min(axis=1)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if beta * delta <= tol:
            policy = q.argmin(axis=1).astype(int)
            return MomdpSolution(pomdp=pomdp, grid=grid, value=v, policy=policy)
        # fixed-policy sweeps toward the greedy policy's value
        pi = q.argmin(axis=1)
        p_pi = p_next[s_rows, pi, g_cols]            # (S, G, S')
        c_pi = step_cost[s_rows, pi, g_cols]
        flat_pi = flat_lo[s_rows, pi, g_cols]
        w_pi = w_hi[s_rows, pi, g_cols]
        for _ in range(inner_sweeps):
            vf = v.ravel()
            interp_pi = (1.0 - w_pi) * vf[flat_pi] + w_pi * vf[flat_pi + 1]
            v = c_pi + beta * np.einsum("sgn,sgn->sg", p_pi, interp_pi)
    raise NumericalError(f"belief-grid value iteration did not converge in {max_iter} sweeps")

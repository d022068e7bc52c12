"""Latent-regime POMDP construction and a belief-grid solver.

The observable MDP state is augmented with a hidden model index in {0, 1}
(pre/post change); the change arrives with per-step probability rho and is
absorbing. Because the observation reveals the MDP state exactly, the belief
is one-dimensional and a uniform grid over [0, 1] with linear value
interpolation solves the problem accurately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalError
from .mdp import EPS_PROB, TabularMdp, log_ratio_table


@dataclass(frozen=True)
class RegimePomdp:
    """Joint model over (mdp state, latent regime) pairs.

    `t_joint[s, th, a, s2, th2]` is the probability of landing in (s2, th2)
    from (s, th) under action a: the regime moves first (absorbing change
    with probability rho), then the state moves under the new regime's
    kernel. Costs depend on the current regime only.
    """

    mdp0: TabularMdp
    mdp1: TabularMdp
    rho: float
    t_joint: np.ndarray        # (S, 2, A, S, 2)
    regime_matrix: np.ndarray  # (2, 2): regime_matrix[th, th2]
    cost: np.ndarray           # (S, 2, A)

    @property
    def n_states(self) -> int:
        return self.mdp0.n_states


def build_pomdp(mdp0: TabularMdp, mdp1: TabularMdp, rho: float) -> RegimePomdp:
    """Assemble the joint kernel for the two-regime model.

    Observations are the MDP state itself, so no observation matrix is
    materialized. The latent regime 1 is absorbing.
    """
    if mdp0.kernel.shape != mdp1.kernel.shape:
        raise ModelError("regime MDPs must share state and action spaces")
    if mdp0.feasible != mdp1.feasible:
        raise ModelError("regime MDPs must share feasible action sets")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    n_s, n_a, _ = mdp0.kernel.shape
    f = np.array([[1.0 - rho, rho], [0.0, 1.0]])
    kernels = (mdp0.kernel, mdp1.kernel)
    t_joint = np.zeros((n_s, 2, n_a, n_s, 2))
    for th in range(2):
        for th2 in range(2):
            # regime moves first, then the state moves under the new regime
            t_joint[:, th, :, :, th2] = f[th, th2] * kernels[th2]
    cost = np.stack([mdp0.cost, mdp1.cost], axis=1)
    return RegimePomdp(mdp0=mdp0, mdp1=mdp1, rho=rho, t_joint=t_joint,
                       regime_matrix=f, cost=cost)


def belief_step(b, lr, rho):
    """Posterior change probability after one transition with likelihood
    ratio lr: predict with the prior drift, then apply Bayes.

    Works elementwise on arrays; shared by the scalar and batch engines.
    """
    pred = b + (1.0 - b) * rho
    num = pred * lr
    return num / (num + (1.0 - pred))


def belief_update(b: float, s: int, a: int, s_next: int,
                  kernel0: np.ndarray, kernel1: np.ndarray, rho: float,
                  eps_prob: float = EPS_PROB) -> float:
    """Bayes update of the change belief from one observed transition.

    Kernel probabilities inside the ratio are floored at `eps_prob`, so a
    transition impossible under both models leaves the belief at its
    prior-drifted value; one impossible only under the pre-change model
    drives the belief to 1.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"belief must be in [0, 1], got {b}")
    p1 = max(float(np.asarray(kernel1)[s, a, s_next]), eps_prob)
    p0 = max(float(np.asarray(kernel0)[s, a, s_next]), eps_prob)
    pred = b + (1.0 - b) * rho
    if p0 > 0.0:
        lr = float(np.exp(log_ratio_table(p1, p0, eps_prob))) if p1 > 0.0 else 0.0
        if pred * lr + (1.0 - pred) > 0.0:
            return min(max(float(belief_step(b, lr, rho)), 0.0), 1.0)
    elif p1 > 0.0 and pred > 0.0:
        return 1.0  # transition impossible under the pre-change model
    raise NumericalError(f"zero belief normalizer at (s={s}, a={a}, s'={s_next})")


@dataclass(frozen=True)
class MomdpSolution:
    """Greedy policy and value function on the (state, belief-grid) lattice."""

    pomdp: RegimePomdp
    grid: np.ndarray       # (G,) belief grid points
    value: np.ndarray      # (S, G)
    policy: np.ndarray     # (S, G) action indices

    @property
    def grid_size(self) -> int:
        return len(self.grid)

    def action(self, s, b):
        """Nearest-neighbor action lookup on the belief grid; works
        elementwise on arrays of states and beliefs."""
        return self.policy[s, np.rint(np.asarray(b) * (self.grid_size - 1)).astype(int)]


def belief_grid_solve(pomdp: RegimePomdp, grid_size: int = 201,
                      beta: float = 0.99, tol: float = 1e-6,
                      max_iter: int = 100_000, inner_sweeps: int = 30,
                      eps_prob: float = EPS_PROB) -> MomdpSolution:
    """Value iteration over (state, belief-grid) cells.

    Next-step values are read off the grid by linear interpolation in the
    belief coordinate. Sweeps start from a constant upper bound on the cost
    to go, so Bellman updates decrease monotonically; between full sweeps a
    block of fixed-policy sweeps accelerates convergence without affecting
    the fixed point. Returns once the Bellman residual is at most `tol`.

    The continuation term depends on (s, a) only through the pair of
    transition rows (kernel0[s, a], kernel1[s, a]), so the interpolation
    tables are built once per distinct pair (rows equal bit for bit) and
    have shape (U, G, S'), with U <= S * A.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mdp0, mdp1, rho = pomdp.mdp0, pomdp.mdp1, pomdp.rho
    n_s, n_a = mdp0.n_states, mdp0.n_actions
    g = grid_size
    grid = np.linspace(0.0, 1.0, g)

    # row[s, a] indexes the distinct (kernel0[s, a], kernel1[s, a]) pair;
    # pairs are compared as bit patterns, so each group's tables hold exactly
    # the values every member would compute for itself
    k0 = mdp0.kernel.reshape(n_s * n_a, -1)
    k1 = mdp1.kernel.reshape(n_s * n_a, -1)
    _, first, row = np.unique(np.hstack([k0, k1]).view(np.uint64), axis=0,
                              return_index=True, return_inverse=True)
    row = row.reshape(n_s, n_a)
    t0, t1 = k0[first][:, None, :], k1[first][:, None, :]   # (U, 1, S')

    mask = mdp0.feasible_mask()                      # shared with mdp1
    pred = grid + (1.0 - grid) * rho                 # (G,)
    pw = pred[None, :, None]
    p_next = (1.0 - pw) * t0 + pw * t1               # (U, G, S')

    lr = np.exp(log_ratio_table(t1, t0, eps_prob))
    b_next = belief_step(grid[None, :, None], lr, rho)
    pos = np.clip(b_next, 0.0, 1.0) * (g - 1)
    lo = np.minimum(pos.astype(np.int64), g - 2)     # (U, G, S')
    w_hi = pos - lo
    w_lo = 1.0 - w_hi
    flat_lo = np.arange(n_s) * g + lo
    flat_hi = flat_lo + 1

    step_cost = ((1.0 - pred[None, None, :]) * mdp0.cost[:, :, None]
                 + pred[None, None, :] * mdp1.cost[:, :, None])   # (S, A, G)
    inf_cost = np.where(mask, 0.0, np.inf)[:, :, None]

    c_max = max(float(mdp0.cost[mask].max()), float(mdp1.cost[mask].max()))
    v = np.full((n_s, g), c_max / (1.0 - beta) if beta > 0 else c_max)

    s_rows = np.arange(n_s)[:, None]
    g_cols = np.arange(g)[None, :]
    for _ in range(max_iter):
        vf = v.ravel()
        interp = w_lo * vf[flat_lo] + w_hi * vf[flat_hi]
        cont = np.einsum("ugn,ugn->ug", p_next, interp)
        q = step_cost + inf_cost + beta * cont[row]
        v_new = q.min(axis=1)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if beta * delta <= tol:
            policy = q.argmin(axis=1).astype(int)
            return MomdpSolution(pomdp=pomdp, grid=grid, value=v, policy=policy)
        # fixed-policy sweeps toward the greedy policy's value
        pi = q.argmin(axis=1)
        u_pi = row[s_rows, pi]                       # (S, G)
        p_pi = p_next[u_pi, g_cols]                  # (S, G, S')
        c_pi = step_cost[s_rows, pi, g_cols]
        lo_pi, hi_pi = flat_lo[u_pi, g_cols], flat_hi[u_pi, g_cols]
        wl_pi, wh_pi = w_lo[u_pi, g_cols], w_hi[u_pi, g_cols]
        for _ in range(inner_sweeps):
            vf = v.ravel()
            interp_pi = wl_pi * vf[lo_pi] + wh_pi * vf[hi_pi]
            v = c_pi + beta * np.einsum("sgn,sgn->sg", p_pi, interp_pi)
    raise NumericalError(f"belief-grid value iteration did not converge in {max_iter} sweeps")

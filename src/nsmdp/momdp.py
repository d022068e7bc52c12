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
from .detectors import log_likelihood_ratio
from .mdp import TabularMdp, log_ratio_table

GRID_MAX_ITER = 100_000   # belief-grid Bellman sweeps before giving up
INNER_SWEEPS = 30         # fixed-policy sweeps between Bellman sweeps


@dataclass(frozen=True)
class RegimePomdp:
    """The two-regime model: each step the regime moves first (from mdp0 to
    the absorbing mdp1 with probability rho), then the state moves under the
    new regime's kernel; costs follow the current regime. Observations are
    the MDP state itself."""

    mdp0: TabularMdp
    mdp1: TabularMdp
    rho: float

    @property
    def n_states(self) -> int:
        return self.mdp0.n_states


def build_pomdp(mdp0: TabularMdp, mdp1: TabularMdp, rho: float) -> RegimePomdp:
    """The two-regime model, once the MDPs share their state and action
    spaces and feasible sets, and rho is in [0, 1)."""
    if mdp0.kernel.shape != mdp1.kernel.shape:
        raise ModelError("regime MDPs must share state and action spaces")
    if mdp0.feasible != mdp1.feasible:
        raise ModelError("regime MDPs must share feasible action sets")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    return RegimePomdp(mdp0=mdp0, mdp1=mdp1, rho=rho)


def belief_step(b, lr, rho):
    """Posterior change probability after one transition with likelihood
    ratio lr: predict with the prior drift, then apply Bayes.

    Works elementwise on arrays; shared by the scalar and batch engines.
    """
    pred = b + (1.0 - b) * rho
    num = pred * lr
    return num / (num + (1.0 - pred))


def belief_update(b: float, s: int, a: int, s_next: int,
                  kernel0: np.ndarray, kernel1: np.ndarray, rho: float) -> float:
    """Bayes update of the change belief from one observed transition.

    Kernel probabilities inside the ratio are floored at EPS_PROB, so a
    transition impossible under both models leaves the belief at its
    prior-drifted value; one impossible only under the pre-change model
    drives the belief to nearly 1. A state or action outside the kernels
    raises ValueError.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"belief must be in [0, 1], got {b}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    lr = float(np.exp(log_likelihood_ratio(kernel0, kernel1, s, a, s_next)))
    return min(max(float(belief_step(b, lr, rho)), 0.0), 1.0)


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
        elementwise on arrays of states and beliefs. ValueError for a state
        outside [0, S) or a belief outside [0, 1] (or NaN)."""
        s, b = np.asarray(s), np.asarray(b, dtype=float)
        if not (np.all((0 <= s) & (s < self.pomdp.n_states)) and np.all((0 <= b) & (b <= 1))):
            raise ValueError(f"need states in [0, {self.pomdp.n_states}) and beliefs in [0, 1]")
        return self.policy[s, np.rint(b * (self.grid_size - 1)).astype(int)]


def belief_grid_solve(pomdp: RegimePomdp, grid_size: int = 201,
                      beta: float = 0.99, tol: float = 1e-6) -> MomdpSolution:
    """Value iteration over (state, belief-grid) cells.

    Next-step values are read off the grid by linear interpolation in the
    belief coordinate. Sweeps start from a constant upper bound on the cost
    to go, so Bellman updates decrease monotonically; between full sweeps a
    block of fixed-policy sweeps accelerates convergence without affecting
    the fixed point. Returns once the Bellman residual is at most `tol`.

    The continuation term depends on (s, a) only through the pair of
    transition rows (kernel0[s, a], kernel1[s, a]), so the interpolation
    tables are built once per distinct pair (rows equal bit for bit) and
    have shape (U, G, S'), with U <= S * A. Likewise the fixed-policy sweeps
    work once per distinct (row pair, grid point) of the greedy policy.
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

    lr = np.exp(log_ratio_table(t1, t0))
    b_next = belief_step(grid[None, :, None], lr, rho)
    pos = np.clip(b_next, 0.0, 1.0) * (g - 1)
    lo = np.minimum(pos.astype(np.int64), g - 2)     # (U, G, S')
    w_hi = pos - lo
    w_lo = 1.0 - w_hi
    flat_lo = np.arange(n_s) * g + lo                # high corner: flat_lo + 1

    step_cost = ((1.0 - pred[None, None, :]) * mdp0.cost[:, :, None]
                 + pred[None, None, :] * mdp1.cost[:, :, None])   # (S, A, G)
    inf_cost = np.where(mask, 0.0, np.inf)[:, :, None]

    c_max = max(float(mdp0.cost[mask].max()), float(mdp1.cost[mask].max()))
    v = np.full((n_s, g), c_max / (1.0 - beta) if beta > 0 else c_max)

    s_rows = np.arange(n_s)[:, None]
    g_cols = np.arange(g)[None, :]
    for _ in range(GRID_MAX_ITER):
        vf = v.ravel()
        interp = w_lo * np.take(vf, flat_lo) + w_hi * np.take(vf[1:], flat_lo)
        cont = np.einsum("ugn,ugn->ug", p_next, interp)
        q = step_cost + inf_cost + beta * cont[row]
        v_new = q.min(axis=1)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if beta * delta <= tol:
            policy = q.argmin(axis=1).astype(int)
            return MomdpSolution(pomdp=pomdp, grid=grid, value=v, policy=policy)
        # fixed-policy sweeps toward the greedy policy's value; a cell's
        # continuation depends only on (row[s, pi[s, g]], g), so each sweep
        # works on the K distinct such pairs and scatters back through `where`
        pi = q.argmin(axis=1)
        keys, where = np.unique((row[s_rows, pi] * g + g_cols).ravel(), return_inverse=True)
        where = where.reshape(n_s, g)
        p_k, lo_k, wl_k, wh_k = (np.take(t.reshape(-1, n_s), keys, axis=0)
                                 for t in (p_next, flat_lo, w_lo, w_hi))   # (K, S')
        c_pi = step_cost[s_rows, pi, g_cols]
        at_lo, at_hi, cont_k = np.empty_like(wl_k), np.empty_like(wh_k), np.empty(len(keys))
        for _ in range(INNER_SWEEPS):
            # every index is in range by construction (lo_k <= S * G - 2,
            # where < K); mode="clip" lets np.take write straight into `out`,
            # which it buffers under the default mode="raise"
            vf = v.ravel()
            np.multiply(wl_k, np.take(vf, lo_k, out=at_lo, mode="clip"), out=at_lo)
            np.multiply(wh_k, np.take(vf[1:], lo_k, out=at_hi, mode="clip"), out=at_hi)
            np.einsum("kn,kn->k", p_k, np.add(at_lo, at_hi, out=at_lo), out=cont_k)
            np.take(np.multiply(beta, cont_k, out=cont_k), where, out=v, mode="clip")
            np.add(c_pi, v, out=v)
    raise NumericalError(f"belief-grid value iteration did not converge in {GRID_MAX_ITER} sweeps")

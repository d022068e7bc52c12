"""Latent-regime POMDP construction and a belief-grid solver.

The observable MDP state is augmented with a hidden model index in {0, 1}
(pre/post change); the change arrives with per-step probability rho and is
absorbing. Because the observation reveals the MDP state exactly, the belief
is one-dimensional and a uniform grid over [0, 1] with linear value
interpolation solves the problem accurately. The grid problem is solved by
policy iteration, each policy evaluated by restarted GMRES (Saad and
Schultz, 1986) whose matrix-vector product is one fixed-policy sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalError
from .detectors import log_likelihood_ratio
from .mdp import PI_MAX_ITER, TabularMdp, log_ratio_table

KRYLOV_DIM = 40           # GMRES products between restarts


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

    Works elementwise on arrays; `belief_update`, `belief_grid_solve` and
    `engine.simulate_batch` call it.
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
    deltas: tuple[float, ...] = ()   # sup-norm change of each policy evaluation

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
    """Policy iteration over (state, belief-grid) cells.

    Next-step values are read off the grid by linear interpolation in the
    belief coordinate. From the cheapest feasible actions, each step solves
    (I - beta * P_pi) v = c_pi by `_gmres` to a fixed-policy residual of at
    most min(tol / 10, 1e-13 * (1 + max|c_pi| / (1 - beta))), then moves a
    cell only where another action is better by more than that, so near-ties
    cannot cycle. Returns the last value, the greedy policy (ties to the
    lowest action index) and the sup-norm change of each evaluation (the
    first from zero). `tol` is a check: NumericalError if the final Bellman
    residual exceeds it, after PI_MAX_ITER steps, or if an evaluation
    stalls (as it does below the values' rounding error).

    The continuation term depends on (s, a) only through the pair of
    transition rows (kernel0[s, a], kernel1[s, a]), so the interpolation
    tables are built once per distinct pair (rows equal bit for bit) and
    have shape (U, G, S'), with U <= S * A. Each evaluation works on the K
    distinct (pair, grid point) keys its policy uses, listed in ascending
    order through a mark array; its products fill two (K, S') buffers, so
    a GMRES product allocates only its (S * G,) result.
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

    step_cost = np.where(mask[:, :, None], (1.0 - pred[None, None, :]) * mdp0.cost[:, :, None]
                         + pred[None, None, :] * mdp1.cost[:, :, None], np.inf)   # (S, A, G)

    s_rows, g_cols = np.arange(n_s)[:, None], np.arange(g)[None, :]
    p_flat, lo_flat, wl_flat, wh_flat = (t.reshape(-1, n_s) for t in (p_next, flat_lo, w_lo, w_hi))
    mark = np.zeros(len(p_flat), dtype=bool)
    policy, v, deltas = np.argmin(step_cost, axis=1), np.zeros((n_s, g)), []
    for _ in range(PI_MAX_ITER):
        # cells sharing (row[s, pi[s, g]], g) share a continuation: products
        # work per key, the keys ascending as np.unique would list them
        cell_key = (row[s_rows, policy] * g + g_cols).ravel()
        mark[:] = False
        mark[cell_key] = True
        keys = np.flatnonzero(mark)
        where = (np.cumsum(mark) - 1).take(cell_key)
        p_k, lo_k, wl_k, wh_k = (t.take(keys, axis=0)
                                 for t in (p_flat, lo_flat, wl_flat, wh_flat))   # (K, S')
        lo_part, hi_part = np.empty_like(wl_k), np.empty_like(wh_k)
        def minus_beta_p(x):   # (I - beta * P_pi) x
            # lo_k + 1 < S * G, so "clip" never acts; it spares "raise"'s buffered copy
            np.multiply(wl_k, x.take(lo_k, out=lo_part, mode="clip"), out=lo_part)
            np.multiply(wh_k, x[1:].take(lo_k, out=hi_part, mode="clip"), out=hi_part)
            np.add(lo_part, hi_part, out=lo_part)
            return x - beta * np.einsum("kn,kn->k", p_k, lo_part).take(where)
        c_pi = step_cost[s_rows, policy, g_cols]
        eval_tol = min(tol / 10, 1e-13 * (1 + float(np.max(np.abs(c_pi))) / (1 - beta)))
        v, v_old = _gmres(minus_beta_p, c_pi.ravel(), v.ravel(), eval_tol, beta).reshape(n_s, g), v
        deltas.append(float(np.max(np.abs(v - v_old))))
        interp = w_lo * np.take(v, flat_lo) + w_hi * np.take(v.ravel()[1:], flat_lo)
        q = step_cost + beta * np.einsum("ugn,ugn->ug", p_next, interp)[row]
        better = q.min(axis=1) < q[s_rows, policy, g_cols] - eval_tol
        if not better.any():
            break
        policy = np.where(better, q.argmin(axis=1), policy)
    else:
        raise NumericalError(f"belief-grid policy iteration did not settle in {PI_MAX_ITER} steps")
    residual = float(np.max(np.abs(v - q.min(axis=1))))
    if residual > tol:
        raise NumericalError(f"belief-grid residual {residual:.3e} exceeds tol {tol:.3e}")
    return MomdpSolution(pomdp=pomdp, grid=grid, value=v, policy=q.argmin(axis=1).astype(int),
                         deltas=tuple(deltas))


def _gmres(matvec, b: np.ndarray, x: np.ndarray, tol: float, beta: float) -> np.ndarray:
    """Solve matvec(x) = b from `x`, where matvec(x) = x - beta * P x and
    P's rows are nonnegative and sum to one, so a sweep x <- x + r (r the
    residual b - matvec(x)) shrinks the sup-norm residual by a factor beta.
    GMRES restarted every KRYLOV_DIM products, with Givens rotations; a
    cycle that shrinks the residual less than as many sweeps would is
    replaced by those sweeps, so the residual after n products is at most
    beta ** (n / 2) times the first one, give or take a cycle. Returns once
    the sup-norm residual is at most `tol`; NumericalError once that bound
    says it should have been reached. The rotations work on Python floats,
    with the IEEE results numpy scalars would give, at a fraction of the
    call cost."""
    m, used, r = KRYLOV_DIM, 1, b - matvec(x)
    first = np.max(np.abs(r))
    while (sup := np.max(np.abs(r))) > tol:
        if first * beta ** max(0.0, (used - 2 * m - 2) / 2) < tol:
            raise NumericalError(f"policy evaluation residual {sup:.3e} above {tol:.3e} "
                                 f"after {used} products")
        basis, tri = np.zeros((m + 1, len(b))), np.zeros((m, m))
        cs, sn, res = [0.0] * m, [0.0] * m, [float(np.linalg.norm(r))] + [0.0] * m
        basis[0] = r / res[0]
        for j in range(m):
            w, h = matvec(basis[j]), np.zeros(j + 1)
            for _ in range(2):                       # classical Gram-Schmidt, run twice
                dh = basis[:j + 1] @ w
                w -= dh @ basis[:j + 1]
                h += dh
            norm, h = float(np.linalg.norm(w)), h.tolist()
            for i in range(j):                       # the earlier rotations
                h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
            rad = float(np.hypot(h[j], norm))        # libm's hypot; math.hypot rounds differently
            cs[j], sn[j], h[j] = h[j] / rad, norm / rad, rad
            tri[:j + 1, j], res[j], res[j + 1] = h, cs[j] * res[j], -sn[j] * res[j]
            if abs(res[j + 1]) <= tol:
                break
            basis[j + 1] = w / norm
        y = np.linalg.solve(tri[:j + 1, :j + 1], res[:j + 1])   # triangular: back-substitution
        x_new = x + y @ basis[:j + 1]
        r_new, used = b - matvec(x_new), used + j + 2
        if np.max(np.abs(r_new)) <= beta ** (j + 2) * sup:
            x, r = x_new, r_new
        else:
            for _ in range(j + 2):
                x = x + r
                r = b - matvec(x)
            used += j + 2
    return x

"""Finite tabular MDPs, dynamic-programming solvers and information numbers.

States and actions are integer indices. A policy is a plain integer array
mapping state -> action; a value function is a float array indexed by state.
Costs are minimized throughout (reward formulations are negated costs at the
caller level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ModelError, NumericalError

ROW_SUM_TOL = 1e-9
EPS_PROB = 1e-12  # default floor for probabilities inside log ratios


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with transition kernel T(s,a,s') and expected step cost C(s,a).

    `feasible` lists the allowed action indices per state; kernel rows of
    infeasible pairs are ignored and may be all-zero.
    """

    kernel: np.ndarray        # (S, A, S)
    cost: np.ndarray          # (S, A)
    feasible: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ModelError(f"kernel must have shape (S, A, S), got {kernel.shape}")
        n_states, n_actions, _ = kernel.shape
        if cost.shape != (n_states, n_actions):
            raise ModelError(f"cost must have shape {(n_states, n_actions)}, got {cost.shape}")
        feasible = self.feasible
        if not feasible:
            feasible = tuple(tuple(range(n_actions)) for _ in range(n_states))
        if len(feasible) != n_states:
            raise ModelError("feasible must list actions for every state")
        for s, acts in enumerate(feasible):
            if len(acts) == 0:
                raise ModelError(f"state {s} has no feasible action")
            for a in acts:
                if not 0 <= a < n_actions:
                    raise ModelError(f"action {a} out of range at state {s}")
                row = kernel[s, a]
                if np.any(row < 0):
                    raise ModelError(f"negative transition probability at (s={s}, a={a})")
                if abs(row.sum() - 1.0) > ROW_SUM_TOL:
                    raise ModelError(
                        f"kernel row (s={s}, a={a}) sums to {row.sum():.12f}, not 1"
                    )
                if not np.isfinite(cost[s, a]):
                    raise ModelError(f"non-finite cost at (s={s}, a={a})")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "feasible", tuple(tuple(int(a) for a in acts) for acts in feasible))

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]

    def feasible_mask(self) -> np.ndarray:
        """Boolean (S, A) mask of feasible state-action pairs."""
        return action_mask(self.feasible, self.n_actions)


def action_mask(feasible: tuple[tuple[int, ...], ...], n_actions: int) -> np.ndarray:
    """Boolean (S, A) mask of the pairs that `feasible` lists, one tuple of
    action indices per state."""
    mask = np.zeros((len(feasible), n_actions), dtype=bool)
    for s, acts in enumerate(feasible):
        mask[s, list(acts)] = True
    return mask


def log_ratio_table(kernel1: np.ndarray, kernel0: np.ndarray,
                    eps_prob: float = EPS_PROB) -> np.ndarray:
    """(S, A, S) table of log(max(T1, eps) / max(T0, eps)).

    Computed as a difference of logs; every per-transition log-likelihood
    ratio and KL divergence in the package comes from this same expression
    so that scalar and vectorized paths agree bit for bit.
    """
    k1 = np.asarray(kernel1, dtype=float)
    k0 = np.asarray(kernel0, dtype=float)
    return np.log(np.maximum(k1, eps_prob)) - np.log(np.maximum(k0, eps_prob))


def validate_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    policy = np.asarray(policy, dtype=int)
    if policy.shape != (mdp.n_states,):
        raise ValueError(f"policy must have shape ({mdp.n_states},), got {policy.shape}")
    for s in range(mdp.n_states):
        if policy[s] not in mdp.feasible[s]:
            raise ValueError(f"policy action {policy[s]} infeasible at state {s}")
    return policy


class VISolution(NamedTuple):
    value: np.ndarray
    policy: np.ndarray
    deltas: list[float]


def value_iteration(mdp: TabularMdp, beta: float, tol: float = 1e-8,
                    max_iter: int = 10_000_000) -> VISolution:
    """Solve the discounted cost-minimization problem by value iteration.

    Returns a value function whose Bellman residual is at most `tol`, the
    greedy (cost-minimizing) policy with ties broken toward the lowest action
    index, and the per-sweep sup-norm change log.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mask = mdp.feasible_mask()
    v = np.zeros(mdp.n_states)
    deltas: list[float] = []
    for _ in range(max_iter):
        q = np.where(mask, mdp.cost + beta * mdp.kernel @ v, np.inf)
        v_new = q.min(axis=1)
        delta = float(np.max(np.abs(v_new - v)))
        deltas.append(delta)
        v = v_new
        # residual of the *returned* iterate is bounded by beta * delta
        if beta * delta <= tol:
            break
    else:
        raise NumericalError(f"value iteration did not converge in {max_iter} sweeps")
    q = np.where(mask, mdp.cost + beta * mdp.kernel @ v, np.inf)
    policy = np.argmin(q, axis=1)
    return VISolution(v, policy.astype(int), deltas)


def policy_evaluation(mdp: TabularMdp, policy: np.ndarray, beta: float,
                      tol: float = 1e-8) -> np.ndarray:
    """Discounted value of a fixed stationary policy, solved exactly.

    Solves (I - beta * P_pi) v = c_pi; the dense solve gives a fixed point
    well inside any reasonable `tol`.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    policy = validate_policy(mdp, policy)
    idx = np.arange(mdp.n_states)
    p_pi = mdp.kernel[idx, policy]          # (S, S)
    c_pi = mdp.cost[idx, policy]
    v = np.linalg.solve(np.eye(mdp.n_states) - beta * p_pi, c_pi)
    residual = float(np.max(np.abs(v - (c_pi + beta * p_pi @ v))))
    if residual > max(tol, 1e-9 * (1 + np.max(np.abs(v)))):
        raise NumericalError(f"policy evaluation residual {residual:.3e} exceeds tol")
    return v


def stationary_distribution(kernel: np.ndarray, policy: np.ndarray,
                            tol: float = 1e-9) -> np.ndarray:
    """Unique stationary distribution of the policy-induced chain.

    `kernel` is a full (S, A, S) transition kernel (typically the post-change
    one); the chain is P(s, s') = kernel[s, policy[s], s'].
    """
    kernel = np.asarray(kernel, dtype=float)
    policy = np.asarray(policy, dtype=int)
    n = kernel.shape[0]
    p = kernel[np.arange(n), policy]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        mu = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"no unique stationary distribution: {exc}") from exc
    residual = float(np.max(np.abs(mu @ p - mu)))
    if residual > tol or np.any(mu < -1e-9) or abs(mu.sum() - 1.0) > tol:
        raise NumericalError(
            f"stationary distribution failed (residual {residual:.3e}, "
            f"min {mu.min():.3e}); chain may be reducible"
        )
    return np.maximum(mu, 0.0) / np.maximum(mu, 0.0).sum()


def kl_step(p: np.ndarray, q: np.ndarray, eps_prob: float = EPS_PROB) -> float:
    """KL divergence sum(p * log(p/q)) in nats with 0*log0 = 0.

    Probabilities inside the log are floored at `eps_prob` so that support
    mismatches give large but finite values; the result is clamped at zero.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be non-negative")
    ratio = log_ratio_table(p, q, eps_prob)
    return max(float(np.sum(np.where(p > 0, p * ratio, 0.0))), 0.0)


def kl_per_action(kernel1: np.ndarray, kernel0: np.ndarray,
                  eps_prob: float = EPS_PROB) -> np.ndarray:
    """(S, A) table of KL(T1(s,a,.) || T0(s,a,.)); vectorized kl_step."""
    k1 = np.asarray(kernel1, dtype=float)
    ratio = log_ratio_table(k1, kernel0, eps_prob)
    return np.maximum(np.sum(np.where(k1 > 0, k1 * ratio, 0.0), axis=2), 0.0)


def info_number(kernel0: np.ndarray, kernel1: np.ndarray, policy: np.ndarray,
                eps_prob: float = EPS_PROB) -> float:
    """Long-run average log-likelihood ratio of the policy under the
    post-change law: sum_s mu(s) * KL(T1(s,pi(s),.) || T0(s,pi(s),.)),
    with mu the stationary distribution of the policy under kernel1.
    """
    policy = np.asarray(policy, dtype=int)
    mu = stationary_distribution(kernel1, policy)
    kl = kl_per_action(kernel1, kernel0, eps_prob)
    n = len(policy)
    return float(mu @ kl[np.arange(n), policy])


def max_info_number(kernel0: np.ndarray, kernel1: np.ndarray,
                    feasible: tuple[tuple[int, ...], ...] | None = None,
                    tol: float = 1e-8, max_iter: int = 200_000,
                    eps_prob: float = EPS_PROB) -> tuple[float, np.ndarray]:
    """Best achievable information rate over stationary policies.

    Solves the average-reward MDP with dynamics kernel1 and per-step reward
    KL(T1(s,a,.) || T0(s,a,.)) by relative value iteration. A damping
    transform P <- (I + P) / 2 removes periodicity without changing the
    optimal gain or greedy policy. Ties break toward the lowest action index.
    """
    k1 = np.asarray(kernel1, dtype=float)
    n_states, n_actions, _ = k1.shape
    reward = kl_per_action(k1, np.asarray(kernel0, dtype=float), eps_prob)
    mask = (np.ones((n_states, n_actions), dtype=bool) if feasible is None
            else action_mask(feasible, n_actions))
    damped = 0.5 * k1
    damped[np.arange(n_states), :, np.arange(n_states)] += 0.5

    w = np.zeros(n_states)
    for _ in range(max_iter):
        q = np.where(mask, reward + damped @ w, -np.inf)
        tw = q.max(axis=1)
        diff = tw - w
        span = float(diff.max() - diff.min())
        w = tw - tw[0]
        if span <= tol:
            gain = float(0.5 * (diff.max() + diff.min()))
            q = np.where(mask, reward + damped @ w, -np.inf)
            policy = np.argmax(q, axis=1).astype(int)
            return gain, policy
    raise NumericalError(f"relative value iteration did not converge in {max_iter} sweeps")

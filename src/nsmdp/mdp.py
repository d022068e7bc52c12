"""Finite tabular MDPs, dynamic-programming solvers and information numbers.

States and actions are integer indices. A policy is a plain integer array
mapping state -> action; a value function is a float array indexed by state.
Costs are minimized throughout (reward formulations are negated costs at the
caller level).

`value_iteration` (the name predates the method) solves a discounted problem
exactly by Howard's policy iteration: each step is one dense S x S solve,
`policy_evaluation`, and the inventory instances need one or two steps. The
information rate, an average-reward problem, is found by relative value
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ModelError, NumericalError

ROW_SUM_TOL = 1e-9
EPS_PROB = 1e-12          # floor for probabilities inside log ratios
PI_MAX_ITER = 100         # policy-iteration steps before giving up
EVAL_TOL = 1e-8           # policy-evaluation residual tolerance
STATIONARY_TOL = 1e-9     # stationary-distribution residual tolerance
RVI_TOL = 1e-8            # relative-VI span tolerance for the information rate
RVI_MAX_ITER = 200_000


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
        # the listed pairs in order, up to the first state without an action
        # or action out of range; their rows are checked at once below
        states, actions, listing_error = [], [], None
        for s, acts in enumerate(feasible):
            if len(acts) == 0:
                listing_error = ModelError(f"state {s} has no feasible action")
            for a in acts:
                if not 0 <= a < n_actions:
                    listing_error = ModelError(f"action {a} out of range at state {s}")
                    break
                states.append(s)
                actions.append(a)
            if listing_error is not None:
                break
        rows = kernel[states, actions]          # a copy
        signed = ~np.all(rows >= 0, axis=1)     # also catches NaN; an inf fails the sum
        rows[signed] = 0.0                      # so that -inf never meets +inf in a sum
        sums = rows.sum(axis=1)
        failed = signed | (np.abs(sums - 1.0) > ROW_SUM_TOL) | ~np.isfinite(cost[states, actions])
        if failed.any():
            i = int(np.argmax(failed))
            s, a = states[i], actions[i]
            if signed[i]:
                raise ModelError(f"negative or NaN transition probability at (s={s}, a={a})")
            if abs(sums[i] - 1.0) > ROW_SUM_TOL:
                raise ModelError(f"kernel row (s={s}, a={a}) sums to {sums[i]:.12f}, not 1")
            raise ModelError(f"non-finite cost at (s={s}, a={a})")
        if listing_error is not None:
            raise listing_error
        feasible = tuple(tuple(int(a) for a in acts) for acts in feasible)
        mask = action_mask(feasible, n_actions)
        mask.flags.writeable = False
        for name, value in (("kernel", kernel), ("cost", cost), ("feasible", feasible),
                            ("_mask", mask)):
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]

    def feasible_mask(self) -> np.ndarray:
        """Boolean (S, A) mask of feasible state-action pairs (read-only)."""
        return self._mask


def action_mask(feasible: tuple[tuple[int, ...], ...], n_actions: int) -> np.ndarray:
    """Boolean (S, A) mask of the pairs that `feasible` lists, one tuple of
    action indices per state."""
    mask = np.zeros((len(feasible), n_actions), dtype=bool)
    states = np.repeat(np.arange(len(feasible)), [len(acts) for acts in feasible])
    mask[states, [a for acts in feasible for a in acts]] = True
    return mask


def log_ratio_table(kernel1: np.ndarray, kernel0: np.ndarray) -> np.ndarray:
    """(S, A, S) table of log(max(T1, EPS_PROB) / max(T0, EPS_PROB)).

    Computed as a difference of logs; every per-transition log-likelihood
    ratio and KL divergence in the package comes from this same expression
    so that scalar and vectorized paths agree bit for bit.
    """
    k1 = np.asarray(kernel1, dtype=float)
    k0 = np.asarray(kernel0, dtype=float)
    return np.log(np.maximum(k1, EPS_PROB)) - np.log(np.maximum(k0, EPS_PROB))


def validate_policy(mask: np.ndarray, policy, shape: tuple[int, ...],
                    name: str) -> np.ndarray:
    """`policy` as an array, checked to be an integer array of `shape`, (S,)
    or (S, G), whose every action is feasible at its row's state under
    `mask`, a boolean (S, A) mask such as `TabularMdp.feasible_mask()`."""
    policy = np.asarray(policy)
    if policy.shape != shape or policy.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array of shape {shape}, "
                         f"got {policy.dtype} of shape {policy.shape}")
    rows = policy.reshape(len(mask), -1)
    n_actions = mask.shape[1]
    if not (0 <= rows.min() and rows.max() < n_actions
            and mask[np.arange(len(mask))[:, None], rows].all()):
        s, a = next((s, a) for s, row in enumerate(rows.tolist()) for a in row
                    if not (0 <= a < n_actions and mask[s, a]))
        raise ValueError(f"{name}: action {a} infeasible at state {s}")
    return policy


class VISolution(NamedTuple):
    value: np.ndarray
    policy: np.ndarray
    deltas: list[float]


def value_iteration(mdp: TabularMdp, beta: float, tol: float = 1e-8) -> VISolution:
    """Solve the discounted cost-minimization problem by policy iteration.

    Starts from the cheapest feasible actions, evaluates each policy exactly
    and moves a state only where another action is strictly better, so
    exact ties cannot cycle. Returns the stable policy's value, the greedy
    policy with ties broken toward the lowest action index, and the sup-norm
    change of each evaluation (the first from zero). NumericalError after
    PI_MAX_ITER steps, or if the Bellman residual exceeds `tol`.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mask = mdp.feasible_mask()
    states = np.arange(mdp.n_states)
    policy = np.argmin(np.where(mask, mdp.cost, np.inf), axis=1)
    v = np.zeros(mdp.n_states)
    deltas: list[float] = []
    for _ in range(PI_MAX_ITER):
        v_new = policy_evaluation(mdp, policy, beta)
        deltas.append(float(np.max(np.abs(v_new - v))))
        v = v_new
        q = np.where(mask, mdp.cost + beta * mdp.kernel @ v, np.inf)
        better = q.min(axis=1) < q[states, policy]
        if not better.any():
            break
        policy = np.where(better, q.argmin(axis=1), policy)
    else:
        raise NumericalError(f"policy iteration did not settle in {PI_MAX_ITER} steps")
    residual = float(np.max(np.abs(v - q.min(axis=1))))
    if residual > tol:
        raise NumericalError(f"policy iteration residual {residual:.3e} exceeds tol {tol:.3e}")
    return VISolution(v, np.argmin(q, axis=1).astype(int), deltas)


def policy_evaluation(mdp: TabularMdp, policy: np.ndarray, beta: float) -> np.ndarray:
    """Discounted value of a fixed stationary policy, solved exactly.

    Solves (I - beta * P_pi) v = c_pi; the dense solve gives a fixed point
    well inside EVAL_TOL.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    policy = validate_policy(mdp.feasible_mask(), policy, (mdp.n_states,), "policy")
    idx = np.arange(mdp.n_states)
    p_pi = mdp.kernel[idx, policy]          # (S, S)
    c_pi = mdp.cost[idx, policy]
    v = np.linalg.solve(np.eye(mdp.n_states) - beta * p_pi, c_pi)
    residual = float(np.max(np.abs(v - (c_pi + beta * p_pi @ v))))
    if residual > max(EVAL_TOL, 1e-9 * (1 + np.max(np.abs(v)))):
        raise NumericalError(f"policy evaluation residual {residual:.3e} exceeds the tolerance")
    return v


def stationary_distribution(kernel: np.ndarray, policy: np.ndarray) -> np.ndarray:
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
    if (residual > STATIONARY_TOL or np.any(mu < -1e-9)
            or abs(mu.sum() - 1.0) > STATIONARY_TOL):
        raise NumericalError(
            f"stationary distribution failed (residual {residual:.3e}, "
            f"min {mu.min():.3e}); chain may be reducible"
        )
    return np.maximum(mu, 0.0) / np.maximum(mu, 0.0).sum()


def kl_per_action(kernel1: np.ndarray, kernel0: np.ndarray) -> np.ndarray:
    """(S, A) table of KL(T1(s,a,.) || T0(s,a,.)) in nats, with 0*log0 = 0.

    Probabilities inside the log are floored at EPS_PROB (`log_ratio_table`),
    so support mismatches give large but finite values; each entry is
    clamped at zero.
    """
    k1 = np.asarray(kernel1, dtype=float)
    ratio = log_ratio_table(k1, kernel0)
    return np.maximum(np.sum(np.where(k1 > 0, k1 * ratio, 0.0), axis=2), 0.0)


def info_number(kernel0: np.ndarray, kernel1: np.ndarray, policy: np.ndarray) -> float:
    """Long-run average log-likelihood ratio of the policy under the
    post-change law: sum_s mu(s) * KL(T1(s,pi(s),.) || T0(s,pi(s),.)),
    with mu the stationary distribution of the policy under kernel1.
    """
    policy = np.asarray(policy, dtype=int)
    mu = stationary_distribution(kernel1, policy)
    kl = kl_per_action(kernel1, kernel0)
    n = len(policy)
    return float(mu @ kl[np.arange(n), policy])


def max_info_number(kernel0: np.ndarray, kernel1: np.ndarray,
                    feasible: tuple[tuple[int, ...], ...] | None = None
                    ) -> tuple[float, np.ndarray]:
    """Best achievable information rate over stationary policies.

    Solves the average-reward MDP with dynamics kernel1 and per-step reward
    KL(T1(s,a,.) || T0(s,a,.)) by relative value iteration. A damping
    transform P <- (I + P) / 2 removes periodicity without changing the
    optimal gain or greedy policy. Ties break toward the lowest action index.
    """
    k1 = np.asarray(kernel1, dtype=float)
    n_states, n_actions, _ = k1.shape
    reward = kl_per_action(k1, np.asarray(kernel0, dtype=float))
    mask = (np.ones((n_states, n_actions), dtype=bool) if feasible is None
            else action_mask(feasible, n_actions))
    damped = 0.5 * k1
    damped[np.arange(n_states), :, np.arange(n_states)] += 0.5

    w = np.zeros(n_states)
    for _ in range(RVI_MAX_ITER):
        q = np.where(mask, reward + damped @ w, -np.inf)
        tw = q.max(axis=1)
        diff = tw - w
        span = float(diff.max() - diff.min())
        w = tw - tw[0]
        if span <= RVI_TOL:
            gain = float(0.5 * (diff.max() + diff.min()))
            q = np.where(mask, reward + damped @ w, -np.inf)
            policy = np.argmax(q, axis=1).astype(int)
            return gain, policy
    raise NumericalError(f"relative value iteration did not converge in {RVI_MAX_ITER} sweeps")

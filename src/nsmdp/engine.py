"""Vectorized episode simulation.

Episodes are simulated in batches: one numpy-level loop over time steps,
with every per-run quantity (state, statistic, phase, cost) held in arrays
across runs. Demands are exogenous inverse-CDF draws, so runs with the same
seed share demand paths across policies and threshold settings (common
random numbers). A setup whose thresholds are arrays simulates every
threshold cell in one pass: state has shape (cells, runs), per-run inputs
broadcast along the cell axis and per-cell thresholds along the run axis.

Randomness protocol, fixed per run: seed the generator from
SeedSequence(master_seed, spawn_key=(run_id,)), draw the change point (one
geometric variate, if the change spec is random), then a horizon-length
block of demand uniforms, then a horizon-length block of action uniforms
(consumed only by the random policy but always drawn, so every policy sees
identical demand paths).

A step at 0-indexed time k consumes the transition realized at k-1 (for
k >= 1) before choosing the action, runs under the post-change regime iff
k >= gamma - 1, pays the active regime's exact expected cost, and then
realizes the next transition. Stopping times are transition indices: the
transition realized between times k-1 and k has index k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import check_thresholds, kind_thresholds, switch_action
from .detectors import shiryaev_log_update, threshold_domain, windowed_cusum
from .inventory import ChangeSpec, InventoryEnv, demand_from_uniform, sample_change_point
from .mdp import EPS_PROB, log_ratio_table
from .momdp import MomdpSolution, belief_step

BATCHABLE_KINDS = ("oracle", "random", "loc", "kl", "tt", "momdp")


@dataclass(frozen=True)
class EpisodeSetup:
    """Everything needed to simulate episodes of one policy on one instance."""

    env: InventoryEnv
    policy_kind: str
    change: ChangeSpec
    horizon: int
    beta: float
    pi_pre: np.ndarray | None = None
    pi_probe: np.ndarray | None = None
    pi_post: np.ndarray | None = None
    detector_kind: str = "shiryaev"      # shiryaev | sr | cusum
    detector_rho: float = 0.0
    window: int = 200
    eps_prob: float = EPS_PROB
    threshold_a: float | np.ndarray = math.inf   # or one entry per cell
    threshold_b: float | np.ndarray = 0.0
    momdp: MomdpSolution | None = None
    initial_state: int = 0

    def __post_init__(self):
        if self.policy_kind not in BATCHABLE_KINDS:
            raise ValueError(f"unsupported policy kind {self.policy_kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.initial_state < self.env.n_states:
            raise ValueError(f"initial_state must be in [0, {self.env.n_states - 1}], "
                             f"got {self.initial_state}")
        if self.detector_kind == "cusum" and self.window < 1:
            raise ValueError(f"window must be >= 1 for cusum, got {self.window}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.policy_kind in ("oracle", "loc", "kl", "tt") and (
                self.pi_pre is None or self.pi_post is None):
            raise ValueError(f"{self.policy_kind} needs pi_pre and pi_post")
        if self.policy_kind in ("kl", "tt") and self.pi_probe is None:
            raise ValueError(f"{self.policy_kind} needs pi_probe")
        if (self.policy_kind in ("loc", "kl", "tt")
                and self.detector_kind not in ("shiryaev", "sr", "cusum")):
            raise ValueError(f"unsupported detector kind {self.detector_kind!r}")
        if self.policy_kind == "momdp" and self.momdp is None:
            raise ValueError("momdp needs a solved belief-grid policy")
        a, b = np.shape(self.threshold_a), np.shape(self.threshold_b)
        if a != b or len(a) > 1 or a == (0,):
            raise ValueError("thresholds must be two scalars or two nonempty 1-D arrays "
                             f"of equal length, got shapes {a} and {b}")
        check_thresholds(self.detector_kind, self.detector_rho, *self.effective_thresholds())

    def effective_thresholds(self) -> tuple[float, float]:
        """(A, B) after applying the kind's degeneracies (per cell for
        threshold arrays; kl's B stays a scalar)."""
        return kind_thresholds(self.policy_kind, self.detector_kind,
                               self.threshold_a, self.threshold_b)


@dataclass
class BatchResult:
    """Per-run outcomes of a simulated batch, aligned with run_ids: one entry
    per row, run_ids repeating once per threshold cell (cell-major), or
    (cells, runs) arrays as the harness assembles them."""

    run_ids: np.ndarray
    gamma: np.ndarray              # float, inf = never
    tau: np.ndarray                # int, -1 = no switch
    discounted_cost: np.ndarray
    trace: dict[str, np.ndarray] = field(default_factory=dict)


def draw_episode_randomness(change: ChangeSpec, horizon: int, master_seed: int,
                            run_ids: np.ndarray):
    """Per-run change points and uniform blocks under the fixed protocol.

    Draws are cached on (change, horizon, seed, ids) so threshold-grid
    searches reuse the same paths instead of regenerating them per cell;
    callers must treat the returned arrays as read-only.
    """
    key = (change, horizon, int(master_seed), np.asarray(run_ids, dtype=int).tobytes())
    cached = _RANDOMNESS_CACHE.get(key)
    if cached is not None:
        return cached
    n = len(run_ids)
    gamma = np.empty(n)
    demand_u = np.empty((n, horizon))
    action_u = np.empty((n, horizon))
    for i, run_id in enumerate(run_ids):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(int(run_id),))
        rng = np.random.default_rng(ss)
        gamma[i] = sample_change_point(change, rng)
        demand_u[i] = rng.random(horizon)
        action_u[i] = rng.random(horizon)
    if len(_RANDOMNESS_CACHE) >= 8:
        _RANDOMNESS_CACHE.pop(next(iter(_RANDOMNESS_CACHE)))
    _RANDOMNESS_CACHE[key] = (gamma, demand_u, action_u)
    return gamma, demand_u, action_u


_RANDOMNESS_CACHE: dict = {}


def simulate_batch(setup: EpisodeSetup, master_seed: int, run_ids,
                   trace: bool = False) -> BatchResult:
    """Simulate one batch of episodes for every threshold cell of the setup;
    deterministic in (setup, seed, ids)."""
    run_ids = np.asarray(run_ids, dtype=int)
    shape = (np.size(setup.threshold_a), len(run_ids))
    env, horizon, kind = setup.env, setup.horizon, setup.policy_kind
    gamma, demand_u, action_u = draw_episode_randomness(
        setup.change, horizon, master_seed, run_ids)

    # (horizon, runs) regime and demand paths, worked out once for the block
    post_path = np.arange(horizon)[:, None] >= gamma - 1.0
    cum_pre, cum_post = np.cumsum(env.pmf_pre), np.cumsum(env.pmf_post)
    cum_pre[-1] = cum_post[-1] = 1.0
    demand_path = np.where(post_path, demand_from_uniform(cum_post, demand_u.T),
                           demand_from_uniform(cum_pre, demand_u.T))
    # flat tables: costs at post * n_pairs + sa, log ratios at sa_prev * n_states + s,
    # where sa = s * n_actions + a indexes a state-action pair
    n_states, n_actions = env.mdp_pre.cost.shape
    n_pairs = n_states * n_actions
    costs = np.stack((env.mdp_pre.cost, env.mdp_post.cost)).reshape(-1)

    uses_detector = kind in ("loc", "kl", "tt")
    uses_belief = kind == "momdp"
    if uses_detector or uses_belief:
        log_lr = log_ratio_table(env.mdp_post.kernel, env.mdp_pre.kernel,
                                 setup.eps_prob).reshape(-1)
    if uses_detector:
        log_a, log_b = (np.array([threshold_domain(setup.detector_kind, float(t))
                                  for t in np.broadcast_to(thr, shape[:1])])[:, None]
                        for thr in setup.effective_thresholds())
        log1m_rho = float(np.log1p(-setup.detector_rho))
        if setup.detector_kind == "cusum":
            buf = np.zeros(shape + (2 * (setup.window + 1),))
        stat = np.full(shape, -math.inf)     # log S_n (S_0 = 0), or the CUSUM
        pi_probe = setup.pi_pre if setup.pi_probe is None else setup.pi_probe
        policies = np.stack((setup.pi_pre, pi_probe, setup.pi_post))
    if uses_belief:
        lr_lin = np.exp(log_lr)
        belief = np.zeros(shape)
    if kind == "random":
        if any(acts != tuple(range(len(acts))) for acts in env.mdp_pre.feasible):
            raise ValueError("random policy requires contiguous feasible actions")
        n_feas = np.array([len(acts) for acts in env.mdp_pre.feasible])
        action_path = action_u.T

    s = np.full(shape, setup.initial_state, dtype=int)
    sa_prev = np.zeros(shape, dtype=int)
    switched = np.zeros(shape, dtype=bool)
    tau = np.full(shape, -1, dtype=int)
    disc = np.zeros(shape)
    beta_pow = 1.0
    traces = {name: np.zeros(shape + (horizon,)) for name in
              ("state", "action", "demand", "statistic", "phase", "cost")} if trace else {}

    for k in range(horizon):
        if k >= 1:
            transition = sa_prev * n_states + s
            if uses_detector:
                active = ~switched
                if active.any():
                    step_lr = log_lr[transition[active]]
                    if setup.detector_kind == "cusum":
                        stat[active] = windowed_cusum(buf, active, step_lr, k)
                    else:
                        stat[active] = shiryaev_log_update(stat[active], step_lr, log1m_rho)
                    newly = active & (stat > log_a)
                    tau[newly] = k
                    switched |= newly
            if uses_belief:
                step_lr = lr_lin[transition]
                belief = belief_step(belief, step_lr, setup.momdp.pomdp.rho)

        post = post_path[k]
        if kind == "oracle":
            a = np.where(post, setup.pi_post[s], setup.pi_pre[s])
        elif kind == "random":
            a = (action_path[k] * n_feas[s]).astype(int)
        elif kind == "momdp":
            a = setup.momdp.action(s, belief)
        else:
            phase, a = switch_action(policies, switched, stat, log_b, s)

        sa = s * n_actions + a
        cost = costs[post * n_pairs + sa]
        disc += beta_pow * cost
        beta_pow *= setup.beta

        w = demand_path[k]
        if trace:
            traces["state"][..., k] = s
            traces["action"][..., k] = a
            traces["demand"][..., k] = w
            traces["cost"][..., k] = cost
            if uses_detector:
                traces["statistic"][..., k] = stat
                traces["phase"][..., k] = phase
            elif uses_belief:
                traces["statistic"][..., k] = belief
        sa_prev = sa
        s = np.maximum(0, s + a - w)

    return BatchResult(run_ids=np.tile(run_ids, shape[0]), gamma=np.tile(gamma, shape[0]),
                       tau=tau.reshape(-1), discounted_cost=disc.reshape(-1),
                       trace={name: t.reshape(-1, horizon) for name, t in traces.items()})

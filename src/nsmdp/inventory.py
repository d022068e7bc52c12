"""Inventory-control environment with a demand-regime change point.

State is the stock level in {0..N}; the action orders up to capacity.
Demand is Poisson before the change and Uniform on {0..u_max} after it.
The per-step cost is the exact demand expectation of ordering, holding and
lost-sales terms.

Change-point convention used package-wide: the sampled change point `gamma`
is the 1-based index of the first post-change transition, so the step taken
at 0-indexed time k runs under the post-change regime iff k >= gamma - 1.
`fixed(1)` therefore puts the entire episode under the post-change law and
`never` keeps it under the pre-change law.

Simulated demands are inverse-CDF draws from per-run uniforms: the demand
at u is the number of CDF entries at or below u (np.searchsorted's
side="right"). `demand_from_uniform` gives exactly that through a guide
table, so the protocol's demand paths are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp


@dataclass(frozen=True)
class InventoryParams:
    """Problem constants: capacity N, unit order cost c, holding cost h,
    lost-demand penalty p, Poisson rate lambda (pre-change) and Uniform
    support bound u_max (post-change)."""

    capacity: int
    order_cost: float
    holding_cost: float
    penalty: float
    demand_rate: float
    uniform_max: int | None = None   # defaults to capacity

    def __post_init__(self):
        if self.uniform_max is None:
            object.__setattr__(self, "uniform_max", self.capacity)
        for name, least in (("capacity", 1), ("uniform_max", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))   # numpy integers wrap
        for name in ("order_cost", "holding_cost", "penalty"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        if not 0 < self.demand_rate < math.inf:
            raise ValueError(f"demand_rate must be positive and finite, got {self.demand_rate!r}")


def poisson_cap(rate: float) -> int:
    """Truncation point for the Poisson pmf; tail mass beyond it is folded
    into the last atom (below 1e-12 at the rates used here)."""
    return max(60, math.ceil(rate + 10.0 * math.sqrt(rate)))


def demand_pmf(kind: str, *, rate: float | None = None,
               u_max: int | None = None) -> np.ndarray:
    """Exact demand pmf on {0..cap} for the named regime.

    'poisson' needs `rate` and is truncated at `poisson_cap(rate)` with the
    tail folded into the cap atom, so the pmf sums to 1 exactly. 'uniform'
    needs `u_max` and puts equal mass on {0..u_max}.
    """
    if kind == "poisson":
        if rate is None or rate <= 0:
            raise ValueError("poisson demand needs a positive rate")
        cap = poisson_cap(rate)
        pmf = np.empty(cap + 1)
        pmf[0] = math.exp(-rate)
        for k in range(1, cap + 1):
            pmf[k] = pmf[k - 1] * rate / k
        pmf[cap] = 1.0 - pmf[:cap].sum()
        return pmf
    if kind == "uniform":
        if u_max is None or u_max < 0:
            raise ValueError("uniform demand needs u_max >= 0")
        return np.full(u_max + 1, 1.0 / (u_max + 1))
    raise ValueError(f"unknown demand kind {kind!r}")


def build_inventory_mdp(params: InventoryParams, pmf: np.ndarray) -> TabularMdp:
    """Tabular MDP for one demand regime, given its exact demand pmf on
    {0..len(pmf) - 1} (see `demand_pmf`).

    States {0..N}; at state s the feasible orders are {0..N-s}. With stock
    y = s + a, the next state is j = max(0, y - w) and the cost is
    c*a + h*E[(y-w)^+] + p*E[(w-y)^+] under that pmf.
    """
    n = params.capacity
    w = np.arange(len(pmf))
    y = np.arange(n + 1)
    # per stock level y: expected held units and lost demand
    hold = np.sum(pmf * np.maximum(0, y[:, None] - w), axis=1)
    short = np.sum(pmf * np.maximum(0, w - y[:, None]), axis=1)
    tail = np.concatenate([[1.0], 1.0 - np.cumsum(pmf)])  # tail[y] = P(w >= y)

    # the next-state row of each stock level y, since (s, a) moves as y = s + a:
    # pmf[y - j] at 1 <= j <= y and P(w >= y) at j = 0, each 0 past its array
    lag = y[:, None] - y
    rows = np.append(pmf, 0.0)[np.where(lag >= 0, np.minimum(lag, len(pmf)), len(pmf))]
    first = np.append(tail, 0.0)[np.minimum(y, len(tail))]
    # guard the float tail against rounding below zero
    rows[:, 0] = np.where(first < 0, 0.0, first)
    rows /= rows.sum(axis=1, keepdims=True)

    stock = y[:, None] + y                          # y = s + a, feasible up to n
    infeasible = stock > n
    stock[infeasible] = n
    kernel = rows[stock]
    kernel[infeasible] = 0.0
    # c*a + h*hold[y] + p*short[y], with the order a as the column index
    cost = (params.order_cost * y + params.holding_cost * hold[stock]
            + params.penalty * short[stock])
    cost[infeasible] = 0.0
    feasible = tuple(tuple(range(n - s + 1)) for s in range(n + 1))
    return TabularMdp(kernel=kernel, cost=cost, feasible=feasible)


@dataclass(frozen=True)
class InventoryEnv:
    """Both regime MDPs plus the exact demand pmfs that drive simulation."""

    params: InventoryParams
    mdp_pre: TabularMdp
    mdp_post: TabularMdp
    pmf_pre: np.ndarray
    pmf_post: np.ndarray

    @property
    def n_states(self) -> int:
        return self.params.capacity + 1


def build_env(params: InventoryParams) -> InventoryEnv:
    pmf_pre = demand_pmf("poisson", rate=params.demand_rate)
    pmf_post = demand_pmf("uniform", u_max=params.uniform_max)
    return InventoryEnv(params=params, mdp_pre=build_inventory_mdp(params, pmf_pre),
                        mdp_post=build_inventory_mdp(params, pmf_post),
                        pmf_pre=pmf_pre, pmf_post=pmf_post)


GUIDE_BUCKETS = 4096     # equal-width buckets of [0, 1) in the inverse CDF's guide table
# bucket edges; the outer buckets reach to -inf and +inf, so every u has one
_BUCKET_EDGES = np.concatenate(([-math.inf], np.arange(1, GUIDE_BUCKETS) / GUIDE_BUCKETS,
                                [math.inf]))


def demand_from_uniform(cum_pmf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF demand draw used by the batch simulator: per uniform, the
    number of CDF entries at or below it, np.searchsorted(cum_pmf, u,
    side="right"), with its dtype and shape.

    It searches through a guide table (indexed search, Chen & Asau 1974).
    A uniform's bucket floor(u * GUIDE_BUCKETS) is exact in floating point,
    and every uniform in a bucket whose interior holds no CDF entry has
    the same answer, which the table gives. Only the uniforms in a bucket
    that holds an entry (at most len(cum_pmf) of the buckets) are searched.
    """
    u = np.asarray(u)
    flat = u.reshape(-1)
    first = np.searchsorted(cum_pmf, _BUCKET_EDGES[:-1], side="right")
    ambiguous = first < np.searchsorted(cum_pmf, _BUCKET_EDGES[1:], side="left")
    bucket = np.clip(flat * GUIDE_BUCKETS, 0, GUIDE_BUCKETS - 1).astype(np.intp)
    demand = first.take(bucket)
    search = np.flatnonzero(ambiguous.take(bucket))
    demand[search] = np.searchsorted(cum_pmf, flat[search], side="right")
    return demand.reshape(u.shape) if u.ndim else demand[0]


@dataclass(frozen=True)
class ChangeSpec:
    """When the regime switches: geometric(rho) prior, a fixed transition
    index, or never."""

    kind: str                 # geometric | fixed | never
    rho: float = 0.0
    gamma: int = 1

    def __post_init__(self):
        if self.kind not in ("geometric", "fixed", "never"):
            raise ValueError(f"unknown change kind {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.rho < 1.0:
            raise ValueError(f"geometric change needs rho in (0, 1), got {self.rho}")
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, (int, np.integer)):
            raise ValueError(f"change gamma must be an integer, got {self.gamma!r}")
        if self.kind == "fixed" and self.gamma < 1:
            raise ValueError(f"fixed change point must be >= 1, got {self.gamma}")


def sample_change_point(spec: ChangeSpec, rng: np.random.Generator) -> float:
    """Draw the 1-based index of the first post-change transition
    (math.inf when the change never happens)."""
    if spec.kind == "geometric":
        return float(rng.geometric(spec.rho))
    if spec.kind == "fixed":
        return float(spec.gamma)
    return math.inf

"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the package's numerics: plain-Python brute
force (hypothesis enumeration, suffix scans, policy enumeration) so they can
arbitrate the vectorized implementations. `value_iteration_oracle` and
`belief_grid_oracle` are the sweep loops that policy iteration replaced;
they judge `value_iteration`'s and `belief_grid_solve`'s policies, and
their values within the sweep loops' tolerance band. The exceptions are
frozen copies that pin the package's output bit for bit, among them
`belief_grid_solve_frozen` with `gmres_frozen`.
`engine_oracle` is the one-row-per-cell episode loop. It draws its
randomness by the plain protocol (`protocol_paths`: numpy's own seeding
per run, then `np.searchsorted`), so it judges the engine's bulk draw. It
calls the library's `windowed_cusum`, so it does not judge that kernel;
the suffix brute force `suffix_max_oracle` does. `inventory_mdp_oracle` is
the per-(s, a, j) loop that built the inventory kernel and cost.
"""

import csv
import itertools
import math

import numpy as np

from nsmdp.controllers import switch_action
from nsmdp.detectors import (cusum_buffer, log_ratio_table, shiryaev_log_update,
                             threshold_domain, windowed_cusum)
from nsmdp.engine import BatchResult, EpisodeSetup
from nsmdp.errors import NumericalError
from nsmdp.inventory import demand_pmf, sample_change_point
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


def value_iteration_oracle(mdp, beta, tol=1e-8, max_iter=10_000_000):
    """Discounted value iteration as `mdp.value_iteration` ran it before it
    became policy iteration: sweeps from v = 0 until beta times the sup-norm
    change is at most `tol`, then the greedy policy with the lowest-index
    tie-break. Returns (value, policy)."""
    mask = mdp.feasible_mask()
    v = np.zeros(mdp.n_states)
    for _ in range(max_iter):
        q = np.where(mask, mdp.cost + beta * mdp.kernel @ v, np.inf)
        v_new = q.min(axis=1)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if beta * delta <= tol:
            break
    else:
        raise NumericalError(f"value iteration did not converge in {max_iter} sweeps")
    q = np.where(mask, mdp.cost + beta * mdp.kernel @ v, np.inf)
    return v, np.argmin(q, axis=1).astype(int)


def inventory_mdp_oracle(params, demand_kind):
    """`inventory.build_inventory_mdp` as the per-(s, a, j) loop it was
    before it became array operations: (kernel, cost, feasible) from the
    library's demand pmf. It does the same float operations in the same
    order, so it pins the kernel and cost bit for bit."""
    n = params.capacity
    if demand_kind == "poisson":
        pmf = demand_pmf("poisson", rate=params.demand_rate)
    else:
        pmf = demand_pmf("uniform", u_max=params.uniform_max)
    w = np.arange(len(pmf))
    hold = np.array([np.sum(pmf * np.maximum(0, y - w)) for y in range(n + 1)])
    short = np.array([np.sum(pmf * np.maximum(0, w - y)) for y in range(n + 1)])
    tail = np.concatenate([[1.0], 1.0 - np.cumsum(pmf)])  # tail[y] = P(w >= y)

    kernel = np.zeros((n + 1, n + 1, n + 1))
    cost = np.zeros((n + 1, n + 1))
    feasible = []
    for s in range(n + 1):
        feasible.append(tuple(range(n - s + 1)))
        for a in range(n - s + 1):
            y = s + a
            for j in range(1, y + 1):
                if y - j < len(pmf):
                    kernel[s, a, j] = pmf[y - j]
            kernel[s, a, 0] = tail[y] if y <= len(pmf) else 0.0
            if kernel[s, a, 0] < 0:
                kernel[s, a, 0] = 0.0
            kernel[s, a] /= kernel[s, a].sum()
            cost[s, a] = (params.order_cost * a + params.holding_cost * hold[y]
                          + params.penalty * short[y])
    return kernel, cost, tuple(feasible)


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
    transition rows and became policy iteration: every table is
    (S, A, G, S'), and value-iteration sweeps run from an upper bound until
    beta times the sup-norm change is at most `tol`. Returns the greedy
    policy (lowest-index tie-break) with a value within tol / (1 - beta) of
    the grid problem's fixed point."""
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


# the package's limits when the belief-grid solver was frozen
FROZEN_PI_MAX_ITER, FROZEN_KRYLOV_DIM = 100, 40


def belief_grid_solve_frozen(pomdp, grid_size: int = 201,
                             beta: float = 0.99, tol: float = 1e-6) -> MomdpSolution:
    """`momdp.belief_grid_solve` frozen as it was before its fixed-policy
    product wrote into preallocated buffers, its keys came from a mark
    array and its GMRES rotated Python floats; its value, policy and deltas
    pin the solver's bits. Its docstring then:

    Policy iteration over (state, belief-grid) cells.

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
    policy, v, deltas = np.argmin(step_cost, axis=1), np.zeros((n_s, g)), []
    for _ in range(FROZEN_PI_MAX_ITER):
        # cells sharing (row[s, pi[s, g]], g) share a continuation: products work per key
        keys, where = np.unique((row[s_rows, policy] * g + g_cols).ravel(), return_inverse=True)
        p_k, lo_k, wl_k, wh_k = (np.take(t.reshape(-1, n_s), keys, axis=0)
                                 for t in (p_next, flat_lo, w_lo, w_hi))   # (K, S')
        def minus_beta_p(x):   # (I - beta * P_pi) x
            interp = wl_k * np.take(x, lo_k) + wh_k * np.take(x[1:], lo_k)
            return x - beta * np.take(np.einsum("kn,kn->k", p_k, interp), where)
        c_pi = step_cost[s_rows, policy, g_cols]
        eval_tol = min(tol / 10, 1e-13 * (1 + float(np.max(np.abs(c_pi))) / (1 - beta)))
        v, v_old = gmres_frozen(minus_beta_p, c_pi.ravel(), v.ravel(), eval_tol,
                                beta).reshape(n_s, g), v
        deltas.append(float(np.max(np.abs(v - v_old))))
        interp = w_lo * np.take(v, flat_lo) + w_hi * np.take(v.ravel()[1:], flat_lo)
        q = step_cost + beta * np.einsum("ugn,ugn->ug", p_next, interp)[row]
        better = q.min(axis=1) < q[s_rows, policy, g_cols] - eval_tol
        if not better.any():
            break
        policy = np.where(better, q.argmin(axis=1), policy)
    else:
        raise NumericalError("belief-grid policy iteration did not settle in "
                             f"{FROZEN_PI_MAX_ITER} steps")
    residual = float(np.max(np.abs(v - q.min(axis=1))))
    if residual > tol:
        raise NumericalError(f"belief-grid residual {residual:.3e} exceeds tol {tol:.3e}")
    return MomdpSolution(pomdp=pomdp, grid=grid, value=v, policy=q.argmin(axis=1).astype(int),
                         deltas=tuple(deltas))


def gmres_frozen(matvec, b: np.ndarray, x: np.ndarray, tol: float, beta: float) -> np.ndarray:
    """`momdp._gmres` as it was, rotating numpy scalars. Its docstring then:

    Solve matvec(x) = b from `x`, where matvec(x) = x - beta * P x and
    P's rows are nonnegative and sum to one, so a sweep x <- x + r (r the
    residual b - matvec(x)) shrinks the sup-norm residual by a factor beta.
    GMRES restarted every KRYLOV_DIM products, with Givens rotations; a
    cycle that shrinks the residual less than as many sweeps would is
    replaced by those sweeps, so the residual after n products is at most
    beta ** (n / 2) times the first one, give or take a cycle. Returns once
    the sup-norm residual is at most `tol`; NumericalError once that bound
    says it should have been reached."""
    m, used, r = FROZEN_KRYLOV_DIM, 1, b - matvec(x)
    first = np.max(np.abs(r))
    while (sup := np.max(np.abs(r))) > tol:
        if first * beta ** max(0.0, (used - 2 * m - 2) / 2) < tol:
            raise NumericalError(f"policy evaluation residual {sup:.3e} above {tol:.3e} "
                                 f"after {used} products")
        basis, tri, cs, sn, res = (np.zeros(shape) for shape in
                                   ((m + 1, len(b)), (m, m), m, m, m + 1))
        res[0] = np.linalg.norm(r)
        basis[0] = r / res[0]
        for j in range(m):
            w, h = matvec(basis[j]), np.zeros(j + 1)
            for _ in range(2):                       # classical Gram-Schmidt, run twice
                dh = basis[:j + 1] @ w
                w -= dh @ basis[:j + 1]
                h += dh
            norm = np.linalg.norm(w)
            for i in range(j):                       # the earlier rotations
                h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
            rad = np.hypot(h[j], norm)
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


def protocol_randomness(change, horizon, master_seed, run_ids):
    """The randomness protocol as written: per run, a generator seeded from
    SeedSequence(master_seed, spawn_key=(run_id,)) draws the change point,
    then a horizon of demand uniforms, then a horizon of action uniforms."""
    gamma, demand_u, action_u = [], [], []
    for run_id in run_ids:
        rng = np.random.default_rng(np.random.SeedSequence(master_seed,
                                                           spawn_key=(int(run_id),)))
        gamma.append(sample_change_point(change, rng))
        demand_u.append(rng.random(horizon))
        action_u.append(rng.random(horizon))
    return (np.array(gamma, dtype=float), np.array(demand_u).reshape(-1, horizon),
            np.array(action_u).reshape(-1, horizon))


def protocol_paths(env, change, horizon, master_seed, run_ids):
    """Per run, the change point, and the (horizon, runs) regime, demand and
    action-uniform paths of `protocol_randomness`: a step is post-change iff
    k >= gamma - 1, and its demand is the searchsorted inverse of that
    regime's CDF."""
    gamma, demand_u, action_u = protocol_randomness(change, horizon, master_seed, run_ids)
    post_path = np.arange(horizon)[:, None] >= gamma - 1.0
    cum_pre, cum_post = np.cumsum(env.pmf_pre), np.cumsum(env.pmf_post)
    cum_pre[-1] = cum_post[-1] = 1.0
    demand_path = np.where(post_path, np.searchsorted(cum_post, demand_u.T, side="right"),
                           np.searchsorted(cum_pre, demand_u.T, side="right"))
    return gamma, post_path, demand_path, action_u.T


def engine_oracle(setup: EpisodeSetup, master_seed: int, run_ids,
                   trace: bool = False) -> BatchResult:
    """`simulate_batch` as it was before it ran the detector once per
    distinct pre-switch path: every threshold cell is a row of its own,
    with an active mask for the detector, and the randomness drawn by
    `protocol_paths`. Kept so that `simulate_batch` can be checked against
    it bit for bit; like it, it returns gamma once per run."""
    run_ids = np.asarray(run_ids, dtype=int)
    shape = (np.size(setup.threshold_a), len(run_ids))
    env, horizon, kind = setup.env, setup.horizon, setup.policy_kind
    gamma, post_path, demand_path, action_path = protocol_paths(
        env, setup.change, horizon, master_seed, run_ids)
    # flat tables: costs at post * n_pairs + sa, log ratios at sa_prev * n_states + s,
    # where sa = s * n_actions + a indexes a state-action pair
    n_states, n_actions = env.mdp_pre.cost.shape
    n_pairs = n_states * n_actions
    costs = np.stack((env.mdp_pre.cost, env.mdp_post.cost)).reshape(-1)

    uses_detector = kind in ("loc", "kl", "tt")
    uses_belief = kind == "momdp"
    if uses_detector or uses_belief:
        log_lr = log_ratio_table(env.mdp_post.kernel, env.mdp_pre.kernel).reshape(-1)
    if uses_detector:
        log_a, log_b = (np.array([threshold_domain(setup.detector_kind, float(t))
                                  for t in np.broadcast_to(thr, shape[:1])])[:, None]
                        for thr in setup.effective_thresholds())
        log1m_rho = float(np.log1p(-setup.detector_rho))
        if setup.detector_kind == "cusum":
            buf = cusum_buffer(shape, setup.window)
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

    return BatchResult(run_ids=np.tile(run_ids, shape[0]), gamma=gamma,
                       tau=tau.reshape(-1), discounted_cost=disc.reshape(-1),
                       trace={name: t.reshape(-1, horizon) for name, t in traces.items()})


def runs_csv_oracle(path, reports, horizon) -> None:
    """`harness.write_runs_csv` as it was: every field through a `_fmt`
    and `csv.writer`."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.9g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "policy", "gamma", "tau_switch", "horizon",
                         "discounted_cost", "detection_delay", "premature_switch"])
        for r in sorted(reports, key=lambda r: r.policy):
            switched = r.tau >= 0
            delay = np.where(switched & np.isfinite(r.gamma),
                             np.maximum(0.0, r.tau - r.gamma), np.nan)
            premature = switched & (r.tau < r.gamma)
            for i, (g, t, c, d, p) in enumerate(zip(
                    r.gamma.tolist(), r.tau.tolist(), r.discounted_cost.tolist(),
                    delay.tolist(), premature.tolist())):
                writer.writerow([i, r.policy, fmt(g), fmt(t if t >= 0 else None), horizon,
                                 fmt(c), fmt(None if math.isnan(d) else d), fmt(p)])

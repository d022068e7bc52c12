"""Monte Carlo evaluation: episode records, aggregate reports, threshold
optimization under the Bayesian criterion, constrained calibration under the
change-at-1 / change-never criterion, and the CSV surfaces.

Every quantity here is a pure function of (configuration, master seed):
per-run randomness comes from per-run seed sequences, grid cells share those
seeds (common random numbers), and aggregation happens on run-id-sorted
arrays. A threshold grid is one engine pass per change spec, the cells a
batch dimension; each cell's report is bit-identical to simulating it alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .controllers import kl_policy
from .engine import BatchResult, EpisodeSetup, simulate_batch
from .inventory import ChangeSpec, InventoryEnv
from .momdp import MomdpSolution, belief_grid_solve, build_pomdp
from .mdp import value_iteration

CHUNK_SIZE = 256      # runs per randomness key
ROW_BUDGET = 16384    # rows (cells x runs) per engine call
CUSUM_ROWS = 256      # rows per call under windowed CUSUM, whose (rows, window + 1)
                      # buffer makes wider calls slower


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one simulated episode."""

    run_id: int
    policy: str
    gamma: float                      # change point (inf = never)
    tau_switch: int | None            # absorbing-switch transition index
    horizon: int
    discounted_cost: float
    detection_delay: float | None     # (tau - gamma)^+ when both defined
    premature_switch: bool            # tau < gamma


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregates over one policy's Monte Carlo runs."""

    policy: str
    n_runs: int
    mean_cost: float
    stderr: float
    mean_delay: float | None
    premature_rate: float
    threshold_a: float
    threshold_b: float
    seed: int
    runs: tuple[RunRecord, ...] = ()


@dataclass(frozen=True)
class PolicySet:
    """Solved stationary policies for one environment."""

    pi_pre: np.ndarray
    pi_post: np.ndarray
    pi_probe: np.ndarray
    v_pre: np.ndarray
    v_post: np.ndarray
    momdp: MomdpSolution | None = None


def solve_policies(env: InventoryEnv, beta: float, tol: float = 1e-8,
                   momdp_grid: int | None = None, momdp_rho: float = 0.01,
                   momdp_tol: float = 1e-6) -> PolicySet:
    """Value-iterate both regimes, build the probing policy, and optionally
    solve the belief-grid baseline."""
    sol_pre = value_iteration(env.mdp_pre, beta, tol)
    sol_post = value_iteration(env.mdp_post, beta, tol)
    probe = kl_policy(env.mdp_pre.kernel, env.mdp_post.kernel, env.mdp_pre.feasible)
    momdp = None
    if momdp_grid is not None:
        pomdp = build_pomdp(env.mdp_pre, env.mdp_post, momdp_rho)
        momdp = belief_grid_solve(pomdp, grid_size=momdp_grid, beta=beta, tol=momdp_tol)
    return PolicySet(pi_pre=sol_pre.policy, pi_post=sol_post.policy, pi_probe=probe,
                     v_pre=sol_pre.value, v_post=sol_post.value, momdp=momdp)


def make_setup(env: InventoryEnv, policies: PolicySet, kind: str,
               change: ChangeSpec, horizon: int, beta: float,
               detector_kind: str = "shiryaev", detector_rho: float = 0.0,
               threshold_a: float = math.inf, threshold_b: float = 0.0,
               window: int = 200, initial_state: int = 0) -> EpisodeSetup:
    return EpisodeSetup(env=env, policy_kind=kind, change=change, horizon=horizon,
                        beta=beta, pi_pre=policies.pi_pre, pi_probe=policies.pi_probe,
                        pi_post=policies.pi_post, detector_kind=detector_kind,
                        detector_rho=detector_rho, threshold_a=threshold_a,
                        threshold_b=threshold_b, window=window,
                        momdp=policies.momdp, initial_state=initial_state)


def _aggregate(policy: str, costs: np.ndarray, delays: np.ndarray,
               premature: np.ndarray, threshold_a: float, threshold_b: float,
               seed: int) -> EvaluationReport:
    n = len(costs)
    stderr = float(np.std(costs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    delays = delays[~np.isnan(delays)]
    return EvaluationReport(
        policy=policy, n_runs=n, mean_cost=float(costs.mean()), stderr=stderr,
        mean_delay=float(delays.mean()) if len(delays) else None,
        premature_rate=float(premature.mean()),
        threshold_a=threshold_a, threshold_b=threshold_b, seed=seed)


def _batched_costs(setup: EpisodeSetup, n_runs: int, master_seed: int) -> BatchResult:
    """Simulate n_runs episodes per threshold cell, as (cells, runs) arrays.

    Runs go in fixed CHUNK_SIZE chunks (the randomness keys), and each
    chunk's cells are packed into engine calls of at most a fixed row
    budget, so results are deterministic in the seed alone.
    """
    a, b = np.atleast_1d(setup.threshold_a, setup.threshold_b)
    budget = CUSUM_ROWS if setup.detector_kind == "cusum" else ROW_BUDGET
    chunks = []
    for lo in range(0, n_runs, CHUNK_SIZE):
        ids = np.arange(lo, min(lo + CHUNK_SIZE, n_runs))
        step = max(1, budget // len(ids))
        parts = [simulate_batch(replace(setup, threshold_a=a[c:c + step],
                                        threshold_b=b[c:c + step]), master_seed, ids)
                 for c in range(0, len(a), step)]
        chunks.append([np.concatenate([getattr(p, name).reshape(-1, len(ids)) for p in parts])
                       for name in ("gamma", "tau", "discounted_cost")])
    gamma, tau, costs = (np.concatenate(column, axis=1) for column in zip(*chunks))
    return BatchResult(run_ids=np.tile(np.arange(n_runs), (len(a), 1)), gamma=gamma,
                       tau=tau, discounted_cost=costs)


def monte_carlo(setup: EpisodeSetup, n_runs: int,
                master_seed: int) -> EvaluationReport | list[EvaluationReport]:
    """Independent episodes with per-run seeds derived from the master seed.

    A setup with threshold arrays gets a list of reports, one per cell in
    cell order, without per-run records; otherwise one report with them.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    batch = _batched_costs(setup, n_runs, master_seed)
    n_cells = len(batch.tau)
    a, b = (np.broadcast_to(t, n_cells) for t in setup.effective_thresholds())
    tau, gamma = batch.tau, batch.gamma
    premature = (tau >= 0) & (tau < gamma)
    # (tau - gamma)^+ where a switch happened and the change is finite
    delays = np.where((tau >= 0) & np.isfinite(gamma), np.maximum(0.0, tau - gamma), np.nan)
    reports = [_aggregate(setup.policy_kind, batch.discounted_cost[c], delays[c],
                          premature[c], float(a[c]), float(b[c]), master_seed)
               for c in range(n_cells)]
    if np.ndim(setup.threshold_a):
        return reports
    records = (RunRecord(run_id=int(i), policy=setup.policy_kind, gamma=float(g),
                         tau_switch=int(t) if t >= 0 else None, horizon=setup.horizon,
                         discounted_cost=float(c),
                         detection_delay=None if math.isnan(d) else float(d),
                         premature_switch=bool(p))
               for i, g, t, c, d, p in zip(batch.run_ids[0], batch.gamma[0], batch.tau[0],
                                           batch.discounted_cost[0], delays[0], premature[0]))
    return replace(reports[0], runs=tuple(records))


# ---------------------------------------------------------------------------
# threshold optimization and non-Bayesian calibration

@dataclass(frozen=True)
class CellEstimate:
    threshold_a: float
    threshold_b: float
    mean_cost: float
    stderr: float


@dataclass(frozen=True)
class ThresholdChoice:
    threshold_a: float
    threshold_b: float
    report: EvaluationReport
    cells: tuple[CellEstimate, ...]


def threshold_cells(kind: str, a_grid, b_grid=None) -> list[tuple[float, float]]:
    """Grid cells honoring the kind's degeneracies, sorted by (A, B).

    The two-threshold grid includes every B = A cell, so the single-threshold
    grid is a subset and the optimized two-threshold cost can never be worse
    on the same seeds.
    """
    a_grid = sorted(float(a) for a in a_grid)
    if len(a_grid) == 0:
        raise ValueError("empty threshold grid")
    if kind in ("loc", "kl"):
        return [(a, a) for a in a_grid]   # B is forced by the kind
    if kind == "tt":
        if b_grid is None:
            raise ValueError("tt grid needs b_grid")
        b_grid = sorted(float(b) for b in b_grid)
        cells = {(a, b) for a in a_grid for b in b_grid if b <= a}
        cells |= {(a, a) for a in a_grid}
        return sorted(cells)
    raise ValueError(f"threshold grid not applicable to kind {kind!r}")


def default_a_grid(n: int = 30, lo: float = 1.0, hi: float = 1e6) -> np.ndarray:
    return np.geomspace(lo, hi, n)


def default_b_grid(n: int = 15, lo: float = 1.0, hi: float = 1e6) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(lo, hi, n)])


def optimize_thresholds(setup: EpisodeSetup, a_grid, b_grid=None,
                        n_runs: int = 1000, master_seed: int = 0) -> ThresholdChoice:
    """Exhaustive threshold-grid search under the Bayesian cost.

    Every cell is evaluated on the same per-run seeds, so comparisons are
    paired; ties resolve to the smallest A then the smallest B.
    """
    cells = threshold_cells(setup.policy_kind, a_grid, b_grid)
    reports = monte_carlo(_grid_setup(setup, cells), n_runs, master_seed)
    best = min(range(len(cells)), key=lambda i: reports[i].mean_cost)
    return ThresholdChoice(threshold_a=cells[best][0], threshold_b=cells[best][1],
                           report=reports[best],
                           cells=tuple(CellEstimate(a, b, r.mean_cost, r.stderr)
                                       for (a, b), r in zip(cells, reports)))


def _grid_setup(setup: EpisodeSetup, cells) -> EpisodeSetup:
    """The setup with one threshold cell per entry of `cells`."""
    a, b = np.array(cells, dtype=float).T
    return replace(setup, threshold_a=a, threshold_b=b)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of constrained threshold selection for one policy.

    When no grid cell satisfies the cap on the change-never cost, `feasible`
    is False and the cell fields describe the least-violating cell.
    """

    policy: str
    alpha: float
    feasible: bool
    threshold_a: float
    threshold_b: float
    e1_cost: float
    e1_stderr: float
    einf_cost: float
    einf_stderr: float


@dataclass(frozen=True)
class NonBayesCell:
    threshold_a: float
    threshold_b: float
    e1_cost: float
    e1_stderr: float
    einf_cost: float
    einf_stderr: float


def estimate_nonbayes_grid(setup: EpisodeSetup, a_grid, b_grid=None,
                           n_runs: int = 1000,
                           master_seed: int = 0) -> tuple[NonBayesCell, ...]:
    """Per-cell cost estimates under change-at-1 and change-never measures,
    shared across calibration levels."""
    cells = threshold_cells(setup.policy_kind, a_grid, b_grid)
    grid = _grid_setup(setup, cells)
    e1 = monte_carlo(replace(grid, change=ChangeSpec(kind="fixed", gamma=1)),
                     n_runs, master_seed)
    einf = monte_carlo(replace(grid, change=ChangeSpec(kind="never")), n_runs, master_seed)
    return tuple(NonBayesCell(a, b, r1.mean_cost, r1.stderr, rinf.mean_cost, rinf.stderr)
                 for (a, b), r1, rinf in zip(cells, e1, einf))


def calibrate_from_grid(policy: str, alpha: float,
                        grid: tuple[NonBayesCell, ...]) -> CalibrationResult:
    """Among cells whose change-never cost is within alpha, minimize the
    change-at-1 cost; ties resolve to the smallest A then B."""
    feasible = [c for c in grid if c.einf_cost <= alpha]
    if feasible:
        best = min(feasible, key=lambda c: (c.e1_cost, c.threshold_a, c.threshold_b))
    else:
        best = min(grid, key=lambda c: (c.einf_cost, c.threshold_a, c.threshold_b))
    return CalibrationResult(policy, alpha, bool(feasible), best.threshold_a,
                             best.threshold_b, best.e1_cost, best.e1_stderr,
                             best.einf_cost, best.einf_stderr)


def calibrate_nonbayes(setup: EpisodeSetup, alpha: float, a_grid, b_grid=None,
                       n_runs: int = 1000, master_seed: int = 0) -> CalibrationResult:
    grid = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs, master_seed)
    return calibrate_from_grid(setup.policy_kind, alpha, grid)


def frontier_sweep(setups: dict[str, EpisodeSetup], alphas, a_grid, b_grid=None,
                   n_runs: int = 1000, master_seed: int = 0) -> list[CalibrationResult]:
    """Calibrate every policy at every constraint level; grid estimates are
    computed once per policy and reused across levels."""
    alphas = list(alphas)
    if len(alphas) == 0:
        raise ValueError("alphas must be nonempty")
    rows = []
    for kind, setup in setups.items():
        grid = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs, master_seed)
        for alpha in alphas:
            rows.append(calibrate_from_grid(kind, float(alpha), grid))
    return rows


def delay_profile(setup: EpisodeSetup, thresholds, n_runs: int = 1000,
                  master_seed: int = 0) -> list[dict]:
    """Detection behavior of a fixed probing policy per threshold.

    Mean delay is measured under change-at-1 (censored at the horizon when no
    stop occurs); the false-switch rate is the fraction of change-never runs
    that stop within the horizon. The probing policy is pinned by building a
    single-threshold setup whose pre- and post-switch policies coincide.
    """
    thresholds = [float(a) for a in thresholds]
    if not thresholds:
        return []
    grid = _grid_setup(setup, [(a, setup.threshold_b) for a in thresholds])
    b1 = _batched_costs(replace(grid, change=ChangeSpec(kind="fixed", gamma=1)),
                        n_runs, master_seed)
    delay = np.where(b1.tau >= 0, np.maximum(0, b1.tau - 1), setup.horizon - 1)
    binf = _batched_costs(replace(grid, change=ChangeSpec(kind="never")),
                          n_runs, master_seed)
    return [{"threshold": a, "mean_delay": float(delay[c].mean()),
             "false_switch_rate": float(np.mean(binf.tau[c] >= 0))}
            for c, a in enumerate(thresholds)]


# ---------------------------------------------------------------------------
# CSV surfaces

def _fmt(value) -> str:
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


def write_runs_csv(path, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "policy", "gamma", "tau_switch", "horizon",
                         "discounted_cost", "detection_delay", "premature_switch"])
        for r in sorted(records, key=lambda r: (r.policy, r.run_id)):
            writer.writerow([r.run_id, r.policy, _fmt(r.gamma), _fmt(r.tau_switch),
                             r.horizon, _fmt(r.discounted_cost),
                             _fmt(r.detection_delay), _fmt(r.premature_switch)])


def write_summary_csv(path, reports: list[EvaluationReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "n_runs", "mean_cost", "stderr", "mean_delay",
                         "A", "B", "seed"])
        for r in reports:
            writer.writerow([r.policy, r.n_runs, _fmt(r.mean_cost), _fmt(r.stderr),
                             _fmt(r.mean_delay), _fmt(r.threshold_a),
                             _fmt(r.threshold_b), r.seed])


def write_frontier_csv(path, rows: list[CalibrationResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "policy", "A", "B", "e1_cost", "e1_stderr",
                         "einf_cost", "einf_stderr", "feasible"])
        for r in rows:
            writer.writerow([_fmt(r.alpha), r.policy, _fmt(r.threshold_a),
                             _fmt(r.threshold_b), _fmt(r.e1_cost), _fmt(r.e1_stderr),
                             _fmt(r.einf_cost), _fmt(r.einf_stderr),
                             _fmt(r.feasible)])

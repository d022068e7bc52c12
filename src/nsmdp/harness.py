"""Monte Carlo evaluation: episode records, aggregate reports, threshold
optimization under the Bayesian criterion, constrained calibration under the
change-at-1 / change-never criterion, and the CSV surfaces.

Every quantity here is a pure function of (configuration, master seed):
per-run randomness comes from per-run seed sequences, grid cells share those
seeds (common random numbers), and aggregation happens on run-id-sorted
arrays, so reports do not depend on worker count or scheduling.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .controllers import kl_policy
from .engine import BatchResult, EpisodeSetup, simulate_batch
from .inventory import ChangeSpec, InventoryEnv
from .momdp import MomdpSolution, belief_grid_solve, build_pomdp
from .mdp import value_iteration

CHUNK_SIZE = 256


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


def _records_from_batch(batch: BatchResult, policy: str, horizon: int) -> list[RunRecord]:
    delays = batch.detection_delay
    premature = batch.premature
    records = []
    for i, run_id in enumerate(batch.run_ids):
        tau = int(batch.tau[i]) if batch.tau[i] >= 0 else None
        delay = float(delays[i]) if not math.isnan(delays[i]) else None
        records.append(RunRecord(
            run_id=int(run_id), policy=policy, gamma=float(batch.gamma[i]),
            tau_switch=tau, horizon=horizon,
            discounted_cost=float(batch.discounted_cost[i]),
            detection_delay=delay, premature_switch=bool(premature[i])))
    return records


def _aggregate(policy: str, records: list[RunRecord], threshold_a: float,
               threshold_b: float, seed: int) -> EvaluationReport:
    costs = np.array([r.discounted_cost for r in records])
    delays = [r.detection_delay for r in records if r.detection_delay is not None]
    n = len(records)
    stderr = float(np.std(costs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EvaluationReport(
        policy=policy, n_runs=n, mean_cost=float(costs.mean()), stderr=stderr,
        mean_delay=float(np.mean(delays)) if delays else None,
        premature_rate=float(np.mean([r.premature_switch for r in records])),
        threshold_a=threshold_a, threshold_b=threshold_b, seed=seed,
        runs=tuple(records))


def _batched_costs(setup: EpisodeSetup, n_runs: int, master_seed: int,
                   n_workers: int = 1) -> BatchResult:
    """Simulate n_runs episodes in fixed chunks; deterministic in the seed
    regardless of worker count."""
    chunks = [np.arange(lo, min(lo + CHUNK_SIZE, n_runs))
              for lo in range(0, n_runs, CHUNK_SIZE)]
    if n_workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(
                lambda ids: simulate_batch(setup, master_seed, ids), chunks))
    else:
        results = [simulate_batch(setup, master_seed, ids) for ids in chunks]
    return BatchResult(
        run_ids=np.concatenate([r.run_ids for r in results]),
        gamma=np.concatenate([r.gamma for r in results]),
        tau=np.concatenate([r.tau for r in results]),
        discounted_cost=np.concatenate([r.discounted_cost for r in results]))


def monte_carlo(setup: EpisodeSetup, n_runs: int, master_seed: int,
                n_workers: int = 1) -> EvaluationReport:
    """Independent episodes with per-run seeds derived from the master seed."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    batch = _batched_costs(setup, n_runs, master_seed, n_workers)
    records = _records_from_batch(batch, setup.policy_kind, setup.horizon)
    a, b = setup.effective_thresholds()
    return _aggregate(setup.policy_kind, records, a, b, master_seed)


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
                        n_runs: int = 1000, master_seed: int = 0,
                        n_workers: int = 1) -> ThresholdChoice:
    """Exhaustive threshold-grid search under the Bayesian cost.

    Every cell is evaluated on the same per-run seeds, so comparisons are
    paired; ties resolve to the smallest A then the smallest B.
    """
    cells = threshold_cells(setup.policy_kind, a_grid, b_grid)
    best = None
    best_report = None
    estimates = []
    for a, b in cells:
        cell_setup = replace(setup, threshold_a=a, threshold_b=b)
        report = monte_carlo(cell_setup, n_runs, master_seed, n_workers)
        estimates.append(CellEstimate(a, b, report.mean_cost, report.stderr))
        if best is None or report.mean_cost < best_report.mean_cost:
            best = (a, b)
            best_report = report
    return ThresholdChoice(threshold_a=best[0], threshold_b=best[1],
                           report=best_report, cells=tuple(estimates))


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
                           n_runs: int = 1000, master_seed: int = 0,
                           n_workers: int = 1) -> tuple[NonBayesCell, ...]:
    """Per-cell cost estimates under change-at-1 and change-never measures,
    shared across calibration levels."""
    cells = threshold_cells(setup.policy_kind, a_grid, b_grid)
    e1_change = ChangeSpec(kind="fixed", gamma=1)
    einf_change = ChangeSpec(kind="never")
    out = []
    for a, b in cells:
        cell = replace(setup, threshold_a=a, threshold_b=b)
        r1 = monte_carlo(replace(cell, change=e1_change), n_runs, master_seed, n_workers)
        rinf = monte_carlo(replace(cell, change=einf_change), n_runs, master_seed, n_workers)
        out.append(NonBayesCell(a, b, r1.mean_cost, r1.stderr,
                                rinf.mean_cost, rinf.stderr))
    return tuple(out)


def calibrate_from_grid(policy: str, alpha: float,
                        grid: tuple[NonBayesCell, ...]) -> CalibrationResult:
    """Among cells whose change-never cost is within alpha, minimize the
    change-at-1 cost; ties resolve to the smallest A then B."""
    feasible = [c for c in grid if c.einf_cost <= alpha]
    if feasible:
        best = min(feasible, key=lambda c: (c.e1_cost, c.threshold_a, c.threshold_b))
        return CalibrationResult(policy, alpha, True, best.threshold_a,
                                 best.threshold_b, best.e1_cost, best.e1_stderr,
                                 best.einf_cost, best.einf_stderr)
    best = min(grid, key=lambda c: (c.einf_cost, c.threshold_a, c.threshold_b))
    return CalibrationResult(policy, alpha, False, best.threshold_a,
                             best.threshold_b, best.e1_cost, best.e1_stderr,
                             best.einf_cost, best.einf_stderr)


def calibrate_nonbayes(setup: EpisodeSetup, alpha: float, a_grid, b_grid=None,
                       n_runs: int = 1000, master_seed: int = 0,
                       n_workers: int = 1) -> CalibrationResult:
    grid = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs, master_seed, n_workers)
    return calibrate_from_grid(setup.policy_kind, alpha, grid)


def frontier_sweep(setups: dict[str, EpisodeSetup], alphas, a_grid, b_grid=None,
                   n_runs: int = 1000, master_seed: int = 0,
                   n_workers: int = 1) -> list[CalibrationResult]:
    """Calibrate every policy at every constraint level; grid estimates are
    computed once per policy and reused across levels."""
    alphas = list(alphas)
    if len(alphas) == 0:
        raise ValueError("alphas must be nonempty")
    rows = []
    for kind, setup in setups.items():
        grid = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs,
                                      master_seed, n_workers)
        for alpha in alphas:
            rows.append(calibrate_from_grid(kind, float(alpha), grid))
    return rows


def delay_profile(setup: EpisodeSetup, thresholds, n_runs: int = 1000,
                  master_seed: int = 0, n_workers: int = 1) -> list[dict]:
    """Detection behavior of a fixed probing policy per threshold.

    Mean delay is measured under change-at-1 (censored at the horizon when no
    stop occurs); the false-switch rate is the fraction of change-never runs
    that stop within the horizon. The probing policy is pinned by building a
    single-threshold setup whose pre- and post-switch policies coincide.
    """
    rows = []
    for a in thresholds:
        cell = replace(setup, threshold_a=float(a))
        b1 = _batched_costs(replace(cell, change=ChangeSpec(kind="fixed", gamma=1)),
                            n_runs, master_seed, n_workers)
        delay = np.where(b1.tau >= 0, np.maximum(0, b1.tau - 1), cell.horizon - 1)
        binf = _batched_costs(replace(cell, change=ChangeSpec(kind="never")),
                              n_runs, master_seed, n_workers)
        rows.append({"threshold": float(a),
                     "mean_delay": float(delay.mean()),
                     "false_switch_rate": float(np.mean(binf.tau >= 0))})
    return rows


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

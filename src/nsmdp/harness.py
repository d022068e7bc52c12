"""Monte Carlo evaluation: per-cell reports with their per-run arrays,
threshold optimization under the Bayesian criterion, constrained calibration
under the change-at-1 / change-never criterion, and the CSV surfaces.

Every quantity here is a pure function of (configuration, master seed):
per-run randomness comes from per-run seed sequences, grid cells share those
seeds (common random numbers), and aggregation happens on run-id-sorted
arrays. A threshold grid is one engine call over all runs and change specs,
the cells a batch dimension; each cell's report, per-run arrays included, is
bit-identical to simulating it alone under its spec. So a non-Bayesian grid
runs change-at-1 and change-never in one step loop, and the policies of one
instance at fixed thresholds run in one step loop as a tuple of kinds. A grid
search over loc, kl and tt simulates the union of their cells as one tt grid.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import kind_thresholds, kl_policy
from .engine import EpisodeSetup, simulate_batch
from .inventory import ChangeSpec, InventoryEnv
from .momdp import MomdpSolution, belief_grid_solve, build_pomdp
from .mdp import value_iteration


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregates over one policy's Monte Carlo runs, for one threshold cell,
    with the read-only per-run arrays they come from, indexed by run id."""

    policy: str
    n_runs: int
    mean_cost: float
    stderr: float
    mean_delay: float | None
    premature_rate: float
    threshold_a: float
    threshold_b: float
    seed: int
    gamma: np.ndarray = field(compare=False, repr=False)      # float, inf = never
    tau: np.ndarray = field(compare=False, repr=False)        # int, -1 = no switch
    discounted_cost: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class PolicySet:
    """Solved stationary policies for one environment."""

    pi_pre: np.ndarray
    pi_post: np.ndarray
    pi_probe: np.ndarray
    v_pre: np.ndarray
    v_post: np.ndarray
    momdp: MomdpSolution | None = None


def solve_policies(env: InventoryEnv, beta: float, momdp_grid: int | None = None,
                   momdp_rho: float = 0.01, momdp_tol: float = 1e-6) -> PolicySet:
    """Solve both regimes by `value_iteration`, build the probing policy,
    and optionally solve the belief-grid baseline."""
    sol_pre = value_iteration(env.mdp_pre, beta)
    sol_post = value_iteration(env.mdp_post, beta)
    probe = kl_policy(env.mdp_pre.kernel, env.mdp_post.kernel, env.mdp_pre.feasible)
    momdp = None
    if momdp_grid is not None:
        pomdp = build_pomdp(env.mdp_pre, env.mdp_post, momdp_rho)
        momdp = belief_grid_solve(pomdp, grid_size=momdp_grid, beta=beta, tol=momdp_tol)
    return PolicySet(pi_pre=sol_pre.policy, pi_post=sol_post.policy, pi_probe=probe,
                     v_pre=sol_pre.value, v_post=sol_post.value, momdp=momdp)


def make_setup(env: InventoryEnv, policies: PolicySet, kind: str | tuple[str, ...],
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


def _switch_outcomes(gamma: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run, whether it switched before the change, and its detection
    delay (tau - gamma)^+, NaN where it never switched or the change never came."""
    switched = tau >= 0
    delay = np.subtract(tau, gamma)
    np.maximum(0.0, delay, out=delay)
    np.putmask(delay, ~(switched & np.isfinite(gamma)), np.nan)
    return switched & (tau < gamma), delay


def monte_carlo(setup: EpisodeSetup, n_runs: int, master_seed: int) -> EvaluationReport | list:
    """Independent episodes with per-run seeds derived from the master seed.

    A setup with threshold arrays gets a list of reports, one per cell in
    cell order, and one whose policy kind is a tuple of kinds a list of one
    report per (kind, cell), in that order; otherwise one report. A setup
    whose change is a tuple of specs gets a list with one such entry per
    spec. Each report equals the call with that spec, kind and cell alone.
    All of them come from one engine call, and every report holds its runs'
    arrays.
    """
    if isinstance(n_runs, bool) or not isinstance(n_runs, (int, np.integer)) or n_runs < 1:
        raise ValueError(f"n_runs must be an integer >= 1, got {n_runs!r}")
    # one engine call over all specs, kinds and runs, whose own arrays the
    # reports share: copies raised a 1000-run, 284-cell grid's peak RSS by 3 MB
    result = simulate_batch(setup, master_seed, np.arange(n_runs))
    n_specs = len(setup.changes)
    gamma = result.gamma.reshape(n_specs, 1, n_runs)
    tau, cost = (x.reshape(n_specs, -1, n_runs) for x in (result.tau, result.discounted_cost))
    for block in (gamma, tau, cost):
        block.flags.writeable = False
    premature, delay = _switch_outcomes(gamma, tau)
    # per (kind, cell), its kind and effective (A, B)
    n_cells = np.size(setup.threshold_a)
    cells = [(kind, float(a), float(b)) for kind in setup.kinds for a, b in zip(
        *(np.broadcast_to(t, n_cells) for t in setup.effective_thresholds(kind)))]
    # every (spec, kind, cell) in one reduction per aggregate, which sums each
    # row as the one-row call would; a cell's mean delay sums its finite
    # delays, compacted in order, as `mean` would
    mean_cost = cost.mean(axis=-1).tolist()
    stderr = (np.std(cost, axis=-1, ddof=1) / math.sqrt(n_runs) if n_runs > 1
              else np.zeros((n_specs, len(cells)))).tolist()
    premature_rate = premature.mean(axis=-1).tolist()
    finite = ~np.isnan(delay)
    delays = np.split(delay[finite], np.cumsum(finite.sum(axis=-1)).tolist()[:-1])
    mean_delay = [float(np.add.reduce(d) / len(d)) if len(d) else None for d in delays]
    entries = [[EvaluationReport(
        policy=kind, n_runs=n_runs, mean_cost=mean_cost[s][c], stderr=stderr[s][c],
        mean_delay=mean_delay[s * len(cells) + c], premature_rate=premature_rate[s][c],
        threshold_a=a, threshold_b=b, seed=master_seed, gamma=gamma[s, 0], tau=tau[s, c],
        discounted_cost=cost[s, c]) for c, (kind, a, b) in enumerate(cells)]
        for s in range(n_specs)]
    if not np.ndim(setup.threshold_a) and not isinstance(setup.policy_kind, tuple):
        entries = [reports[0] for reports in entries]
    return entries if isinstance(setup.change, tuple) else entries[0]


# ---------------------------------------------------------------------------
# threshold optimization and non-Bayesian calibration

@dataclass(frozen=True)
class ThresholdChoice:
    threshold_a: float
    threshold_b: float
    report: EvaluationReport
    cells: tuple[EvaluationReport, ...]     # in threshold_cells order


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


def _least(items, cost, cell):
    """The item of least `cost`. Costs within a relative 1e-12 of the least
    tie, and the item with the smallest `cell` (A, B) among them wins: the
    tolerance is far below the nine digits `_fmt` prints and far above the
    drift of a reordered float sum (about 6e-15), so a change in the order
    of float operations cannot flip a tie."""
    least = min(cost(item) for item in items)
    return min((item for item in items if cost(item) <= least + 1e-12 * abs(least)),
               key=cell)


def _grid_setup(setup: EpisodeSetup, cells, **changes) -> EpisodeSetup:
    """The setup with one threshold cell per entry of `cells`, and `changes`."""
    a, b = np.array(cells, dtype=float).T
    return replace(setup, threshold_a=a, threshold_b=b, **changes)


_cell = operator.attrgetter("threshold_a", "threshold_b")


def _kind_grids(setup: EpisodeSetup, change, a_grid, b_grid, n_runs: int,
                master_seed: int) -> list:
    """Per kind of the setup, per spec of the `change` tuple, the reports of
    the kind's `threshold_cells`, relabelled with the kind, from one tt grid
    over the sorted union of the kinds' effective cells (`kind_thresholds`):
    a loc or kl cell is the tt cell at its effective (A, B), bit for bit."""
    cells = {kind: [kind_thresholds(kind, setup.detector_kind, a, b)
                    for a, b in threshold_cells(kind, a_grid, b_grid)] for kind in setup.kinds}
    union = sorted(set(itertools.chain(*cells.values())))
    # pi_probe falls back to pi_pre, as the engine does for loc
    pi_probe = setup.pi_pre if setup.pi_probe is None else setup.pi_probe
    entries = monte_carlo(_grid_setup(setup, union, policy_kind="tt", change=change,
                                      pi_probe=pi_probe), n_runs, master_seed)
    by_cell = [dict(zip(union, reports)) for reports in entries]
    # tt's reports are the grid's own, so that a tt search alone copies none
    return [[[r[c] if kind == "tt" else replace(r[c], policy=kind) for c in kind_cells]
             for r in by_cell] for kind, kind_cells in cells.items()]


def optimize_thresholds(setup: EpisodeSetup, a_grid, b_grid=None, n_runs: int = 1000,
                        master_seed: int = 0) -> ThresholdChoice | list[ThresholdChoice]:
    """Exhaustive threshold-grid search under the Bayesian cost; a tuple of
    loc, kl and tt gets one choice per kind from one grid (`_kind_grids`).

    Every cell is evaluated on the same per-run seeds, so comparisons are
    paired; costs within a relative 1e-12 of the least tie, and ties resolve
    to the smallest effective A then B, the (A, B) each cell reports.
    """
    if isinstance(setup.change, tuple):
        raise ValueError(f"optimize_thresholds needs one change spec, got {setup.change!r}")
    choices = []
    for (reports,) in _kind_grids(setup, (setup.change,), a_grid, b_grid, n_runs, master_seed):
        best = _least(reports, operator.attrgetter("mean_cost"), _cell)
        choices.append(ThresholdChoice(best.threshold_a, best.threshold_b, best, tuple(reports)))
    return choices if isinstance(setup.policy_kind, tuple) else choices[0]


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


# the non-Bayesian measures, change-at-1 and change-never, run in one engine call
_E1_EINF = (ChangeSpec(kind="fixed", gamma=1), ChangeSpec(kind="never"))


def estimate_nonbayes_grid(setup: EpisodeSetup, a_grid, b_grid=None, n_runs: int = 1000,
                           master_seed: int = 0) -> tuple[NonBayesCell, ...] | list:
    """Per-cell cost estimates under change-at-1 and change-never measures,
    shared across calibration levels, each with its cell's effective (A, B),
    which order the cells as the grid's (A, B) do; a tuple of loc, kl and tt
    gets one such tuple per kind from one grid (`_kind_grids`)."""
    grids = [tuple(NonBayesCell(r1.threshold_a, r1.threshold_b, r1.mean_cost, r1.stderr,
                                rinf.mean_cost, rinf.stderr) for r1, rinf in zip(e1, einf))
             for e1, einf in _kind_grids(setup, _E1_EINF, a_grid, b_grid, n_runs, master_seed)]
    return grids if isinstance(setup.policy_kind, tuple) else grids[0]


def calibrate_from_grid(policy: str, alpha: float,
                        grid: tuple[NonBayesCell, ...]) -> CalibrationResult:
    """Among cells whose change-never cost is within alpha, minimize the
    change-at-1 cost; with none, minimize the change-never cost. Costs
    within a relative 1e-12 of the least tie, and ties resolve to the
    smallest A then B. The cap is a user input and is applied exactly: a
    cell is feasible iff its change-never cost is <= alpha."""
    feasible = [c for c in grid if c.einf_cost <= alpha]
    if feasible:
        best = _least(feasible, lambda c: c.e1_cost, _cell)
    else:
        best = _least(grid, lambda c: c.einf_cost, _cell)
    return CalibrationResult(policy, alpha, bool(feasible), best.threshold_a,
                             best.threshold_b, best.e1_cost, best.e1_stderr,
                             best.einf_cost, best.einf_stderr)


def frontier_sweep(setup: EpisodeSetup, alphas, a_grid, b_grid=None, n_runs: int = 1000,
                   master_seed: int = 0) -> list[CalibrationResult]:
    """Calibrate every policy of the setup (loc, kl or tt, or a tuple of them)
    at every constraint level; the grid estimates are computed once."""
    alphas = list(alphas)
    if len(alphas) == 0:
        raise ValueError("alphas must be nonempty")
    grids = estimate_nonbayes_grid(replace(setup, policy_kind=setup.kinds), a_grid, b_grid,
                                   n_runs, master_seed)
    return [calibrate_from_grid(kind, float(alpha), grid)
            for kind, grid in zip(setup.kinds, grids) for alpha in alphas]


def delay_profile(setup: EpisodeSetup, thresholds, n_runs: int = 1000,
                  master_seed: int = 0) -> list[dict]:
    """Detection behavior of a fixed probing policy per threshold.

    Mean delay is measured under change-at-1 (censored at the horizon when no
    stop occurs); the false-switch rate is the change-never report's
    premature rate, the fraction of runs that stop within the horizon. The
    setup's policies run as its kind uses them, so the caller pins the
    probing policy: criterion 8 passes a setup whose pre-, probe and
    post-switch policies are all that one policy (its `pinned` PolicySet).
    """
    if isinstance(setup.policy_kind, tuple):
        raise ValueError(f"delay_profile needs one policy_kind, got {setup.policy_kind!r}")
    thresholds = [float(a) for a in thresholds]
    if not thresholds:
        return []
    e1, einf = monte_carlo(_grid_setup(setup, [(a, setup.threshold_b) for a in thresholds],
                                       change=_E1_EINF), n_runs, master_seed)
    return [{"threshold": a,
             "mean_delay": float(np.nan_to_num(_switch_outcomes(r1.gamma, r1.tau)[1],
                                               nan=setup.horizon - 1).mean()),
             "false_switch_rate": rinf.premature_rate}
            for a, r1, rinf in zip(thresholds, e1, einf)]


# ---------------------------------------------------------------------------
# CSV surfaces

_FLOAT_FORMAT = "{:.9g}".format    # 9 significant digits; inf as "inf", -inf as "-inf"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT_FORMAT(float(value))


def distinct_texts(values: np.ndarray, texts) -> list[str]:
    """texts(values.ravel().tolist()), with `texts` called once on the
    distinct values only: it maps a list of scalars to one string each.

    Values are told apart by their bytes, so 0.0 and -0.0 keep their own
    texts, and so do NaNs of different bit patterns."""
    flat = np.ascontiguousarray(values).reshape(-1)
    _, first, inverse = np.unique(flat.view(f"u{flat.itemsize}"), return_index=True,
                                  return_inverse=True)
    return np.array(texts(flat[first].tolist()), dtype=object)[inverse].tolist()


def _float_texts(values: list[float]) -> list[str]:
    return list(map(_FLOAT_FORMAT, values))


def _delay_texts(delays: list[float]) -> list[str]:
    return ["" if math.isnan(d) else _FLOAT_FORMAT(d) for d in delays]


def _write_csv(path, lines) -> None:
    """Lines of comma-joined text fields, as the csv module writes them: no
    field here ever needs quoting (a policy kind or a `_fmt` text), and
    lines end in CRLF."""
    text = "\r\n".join(lines) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_runs_csv(path, reports: list[EvaluationReport], horizon: int) -> None:
    """One row per run of each report, by policy and then run id; each
    policy appears in at most one report.

    Each column is formatted as `_fmt` would format its fields. The gamma
    and delay columns are formatted once per distinct value
    (`distinct_texts`), and gamma and the run ids once for the reports that
    share them."""
    lines = ["run_id,policy,gamma,tau_switch,horizon,"
             "discounted_cost,detection_delay,premature_switch"]
    run_ids = list(map(str, range(max((len(r.tau) for r in reports), default=0))))
    gamma_texts = {}
    for r in sorted(reports, key=lambda r: r.policy):
        premature, delay = _switch_outcomes(r.gamma, r.tau)
        if (key := r.gamma.tobytes()) not in gamma_texts:
            gamma_texts[key] = distinct_texts(r.gamma, _float_texts)
        lines.extend(map(",".join, zip(
            run_ids[:len(r.tau)], itertools.repeat(r.policy), gamma_texts[key],
            ["" if t < 0 else str(t) for t in r.tau.tolist()],
            itertools.repeat(str(horizon)),
            map(_FLOAT_FORMAT, r.discounted_cost.tolist()),
            distinct_texts(delay, _delay_texts),
            ["1" if p else "0" for p in premature.tolist()])))
    _write_csv(path, lines)


def write_summary_csv(path, reports: list[EvaluationReport]) -> None:
    _write_csv(path, ["policy,n_runs,mean_cost,stderr,mean_delay,A,B,seed", *(
        ",".join([r.policy, *map(_fmt, (r.n_runs, r.mean_cost, r.stderr, r.mean_delay,
                                        r.threshold_a, r.threshold_b, r.seed))])
        for r in reports)])


def write_frontier_csv(path, rows: list[CalibrationResult]) -> None:
    _write_csv(path, ["alpha,policy,A,B,e1_cost,e1_stderr,einf_cost,einf_stderr,feasible", *(
        ",".join([_fmt(r.alpha), r.policy, *map(_fmt, (
            r.threshold_a, r.threshold_b, r.e1_cost, r.e1_stderr, r.einf_cost, r.einf_stderr,
            r.feasible))])
        for r in rows)])

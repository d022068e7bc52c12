"""The benchmark's three workloads, each a function of the workload seed.

One call of a workload is one repetition: it builds everything it needs
through the public nsmdp API, runs the work, checks the outputs and returns
what it attempted, what failed and a digest of its outputs. Sizes are fixed
here; NOTES.md says why each was chosen and how it relates to the paper's
1000 runs x 1000 steps protocol.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nsmdp import cli, harness, inventory

BETA = 0.99
RHO = 0.01
Z95 = 1.96
POLICIES = ("oracle", "loc", "tt", "random", "momdp")

# bayes_grid: one criterion-5 table row
BAYES_INSTANCE = (20, 100.0)
BAYES_RUNS = 1000
BAYES_HORIZON = 200
BELIEF_GRID = 201

# frontier_cusum: the criterion-7 non-Bayesian grid with windowed CUSUM
FRONTIER_INSTANCE = (20, 200.0)
FRONTIER_RUNS = 256
FRONTIER_HORIZON = 400
CUSUM_WINDOW = 200
FRONTIER_A_POINTS = 10
FRONTIER_B_POINTS = 4

# solve_evaluate: `nsmdp solve` then `nsmdp evaluate` on the six table rows
TABLE_INSTANCES = tuple((n, p) for n in (10, 20) for p in (100.0, 200.0, 300.0))
EVAL_RUNS = 1000
EVAL_HORIZON = 250
EVAL_A, EVAL_B = 1000.0, 10.0
EVAL_WORKERS = 2


def params(capacity: int, penalty: float) -> inventory.InventoryParams:
    return inventory.InventoryParams(capacity=capacity, order_cost=1.0,
                                     holding_cost=5.0, penalty=penalty, demand_rate=2.0)


@dataclass
class Rep:
    """Outcome of one repetition. An operation is one monte_carlo call, one
    grid cell or one CLI command."""

    attempted: int = 0
    failed: int = 0
    run_steps: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    detail: dict = field(default_factory=dict)

    def attempt(self, label: str, n_ops: int, fn):
        """Run fn as n_ops operations; an exception fails all of them."""
        self.attempted += n_ops
        try:
            return fn()
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc(file=sys.stderr)
            self.fail(label, n_ops, "raised")
            return None

    def fail(self, label: str, n_ops: int, why: str) -> None:
        self.failed += n_ops
        self.problems.append(f"{label}: {why}")


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(float(v).hex() if isinstance(v, float) else v
                            for v in row)).encode())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------

def bayes_grid(seed: int, out_dir: Path) -> Rep:
    """Solve with the belief grid, Monte Carlo oracle/random/momdp, and
    optimize loc and tt over the full default threshold grids."""
    rep = Rep()
    env = inventory.build_env(params(*BAYES_INSTANCE))
    change = inventory.ChangeSpec(kind="geometric", rho=RHO)
    a_grid, b_grid = harness.default_a_grid(), harness.default_b_grid()
    n_loc = len(harness.threshold_cells("loc", a_grid))
    n_tt = len(harness.threshold_cells("tt", a_grid, b_grid))
    policies = harness.solve_policies(env, BETA, momdp_grid=BELIEF_GRID,
                                      momdp_rho=RHO, momdp_tol=1e-6)

    def setup(kind, a=math.inf, b=0.0):
        return harness.make_setup(env, policies, kind, change, BAYES_HORIZON, BETA,
                                  detector_kind="shiryaev", detector_rho=RHO,
                                  threshold_a=a, threshold_b=b)

    reports, choices = {}, {}
    for kind in ("oracle", "random", "momdp"):
        reports[kind] = rep.attempt(kind, 1, lambda: harness.monte_carlo(
            setup(kind), BAYES_RUNS, seed))
    for kind, b, n_cells in (("loc", None, n_loc), ("tt", b_grid, n_tt)):
        choices[kind] = rep.attempt(kind, n_cells, lambda: harness.optimize_thresholds(
            setup(kind), a_grid, b, n_runs=BAYES_RUNS, master_seed=seed))
        reports[kind] = choices[kind].report if choices[kind] else None
    # re-running the chosen tt cell at the same seed must reproduce its grid
    # estimate bit for bit
    tt = choices["tt"]
    if tt is not None:
        again = rep.attempt("tt repeat", 1, lambda: harness.monte_carlo(
            setup("tt", tt.threshold_a, tt.threshold_b), BAYES_RUNS, seed))
        if again is not None and (again.mean_cost, again.stderr) != (
                tt.report.mean_cost, tt.report.stderr):
            rep.fail("tt repeat", 1, "same cell, same seed, different estimate")
    rep.run_steps = (3 + n_loc + n_tt + 1) * BAYES_RUNS * BAYES_HORIZON

    rows = []
    for kind, r in reports.items():
        if r is None:
            continue
        rows.append((kind, r.mean_cost, r.stderr, r.threshold_a, r.threshold_b))
        if not _finite(r.mean_cost, r.stderr) and kind in ("oracle", "random", "momdp"):
            rep.fail(kind, 1, "non-finite cost")
    for kind, choice in choices.items():
        if choice is None:
            continue
        for c in choice.cells:
            rows.append((kind, c.threshold_a, c.threshold_b, c.mean_cost, c.stderr))
            if not _finite(c.mean_cost, c.stderr):
                rep.fail(kind, 1, f"non-finite cost at A={c.threshold_a} B={c.threshold_b}")

    if all(reports.get(k) is not None for k in POLICIES):
        chain = [reports[k] for k in ("oracle", "tt", "loc", "random")]
        for lo, hi in zip(chain, chain[1:]):
            if not lo.mean_cost + Z95 * lo.stderr < hi.mean_cost - Z95 * hi.stderr:
                rep.fail(f"{lo.policy}<{hi.policy}", 2, "95% intervals overlap")
        o, m, r = reports["oracle"], reports["momdp"], reports["random"]
        if not o.mean_cost < m.mean_cost < r.mean_cost:
            rep.fail("oracle<momdp<random", 3, "ordering violated")
    rep.digest = _digest(rows)
    rep.detail = {"env": env, "policies": policies,
                  "reports": {k: {"mean_cost": r.mean_cost, "stderr": r.stderr,
                                  "A": r.threshold_a, "B": r.threshold_b}
                              for k, r in reports.items() if r is not None}}
    return rep


def frontier_cusum(seed: int, out_dir: Path) -> Rep:
    """Change-at-1 / change-never cell estimates for loc and tt with the
    windowed CUSUM, and the constrained frontier read off them."""
    rep = Rep()
    env = inventory.build_env(params(*FRONTIER_INSTANCE))
    policies = harness.solve_policies(env, BETA)
    change = inventory.ChangeSpec(kind="geometric", rho=RHO)
    a_grid = harness.default_a_grid(FRONTIER_A_POINTS)
    b_grid = harness.default_b_grid(FRONTIER_B_POINTS)

    grids = {}
    for kind, b in (("loc", None), ("tt", b_grid)):
        n_cells = len(harness.threshold_cells(kind, a_grid, b))
        setup = harness.make_setup(env, policies, kind, change, FRONTIER_HORIZON, BETA,
                                   detector_kind="cusum", window=CUSUM_WINDOW)
        grids[kind] = rep.attempt(kind, n_cells, lambda: harness.estimate_nonbayes_grid(
            setup, a_grid, b, n_runs=FRONTIER_RUNS, master_seed=seed))
        rep.run_steps += 2 * n_cells * FRONTIER_RUNS * FRONTIER_HORIZON

    rows = []
    for kind, grid in grids.items():
        for c in grid or ():
            rows.append((kind, c.threshold_a, c.threshold_b, c.e1_cost, c.e1_stderr,
                         c.einf_cost, c.einf_stderr))
            if not _finite(c.e1_cost, c.e1_stderr, c.einf_cost, c.einf_stderr):
                rep.fail(kind, 1, f"non-finite cost at A={c.threshold_a} B={c.threshold_b}")
    if all(grids.values()):
        einf = sorted(c.einf_cost for c in grids["loc"])
        alphas = np.geomspace(einf[0] * 1.001, np.quantile(einf, 0.7), 8)
        for alpha in alphas:
            for kind, grid in grids.items():
                f = harness.calibrate_from_grid(kind, float(alpha), grid)
                rows.append((kind, f.alpha, f.feasible, f.threshold_a, f.threshold_b,
                             f.e1_cost, f.einf_cost))
    rep.digest = _digest(rows)
    return rep


_INI = """\
[inventory]
capacity = {capacity}
shortage_penalty = {penalty}

[change]
kind = geometric
rho = {rho}

[detector]
kind = shiryaev
rho = {rho}

[run]
beta = {beta}
horizon = {horizon}
n_runs = {runs}

[policies]
kinds = {kinds}
"""


def instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def solve_evaluate(seed: int, out_dir: Path) -> Rep:
    """`nsmdp solve` then `nsmdp evaluate` (fixed A and B, two workers) for
    each table instance, in process through `cli.main`."""
    rep = Rep()
    csv_rows = []
    for index, (capacity, penalty) in enumerate(TABLE_INSTANCES):
        inst_dir = out_dir / f"N{capacity}-p{penalty:g}"
        inst_dir.mkdir(parents=True, exist_ok=True)
        ini = inst_dir / "exp.ini"
        ini.write_text(_INI.format(capacity=capacity, penalty=penalty, rho=RHO,
                                   beta=BETA, horizon=EVAL_HORIZON, runs=EVAL_RUNS,
                                   kinds=",".join(POLICIES)))
        common = ["--config", str(ini), "--out-dir", str(inst_dir),
                  "--seed", str(instance_seed(seed, index))]
        evaluate = common + ["--a", repr(EVAL_A), "--b", repr(EVAL_B),
                             "--workers", str(EVAL_WORKERS)]
        ok = True
        for command, args in (("solve", common), ("evaluate", evaluate)):
            label = f"{command} N={capacity} p={penalty:g}"
            if not ok:
                rep.attempted += 1
                rep.fail(label, 1, "not run: solve failed")
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = rep.attempt(label, 1, lambda: cli.main([command, *args]))
            if code not in (0, None):
                rep.fail(label, 1, f"exit code {code}")
            ok = code == 0
        if ok:
            rep.run_steps += len(POLICIES) * EVAL_RUNS * EVAL_HORIZON
            runs = (inst_dir / "runs.csv").read_bytes()
            summary = (inst_dir / "summary.csv").read_bytes()
            csv_rows.append((capacity, penalty, runs, summary))
            if (runs.count(b"\n") - 1 != EVAL_RUNS * len(POLICIES)
                    or summary.count(b"\n") - 1 != len(POLICIES)):
                rep.fail(f"evaluate N={capacity} p={penalty:g}", 1, "CSV row count")
    rep.digest = _digest(csv_rows)
    return rep


WORKLOADS = {
    "bayes_grid": (bayes_grid, (BAYES_INSTANCE,)),
    "frontier_cusum": (frontier_cusum, (FRONTIER_INSTANCE,)),
    "solve_evaluate": (solve_evaluate, TABLE_INSTANCES),
}


def sizes() -> dict:
    """The run counts and horizons, recorded beside every result."""
    return {
        "bayes_grid": {"n_runs": BAYES_RUNS, "horizon": BAYES_HORIZON,
                       "belief_grid": BELIEF_GRID, "a_grid": len(harness.default_a_grid()),
                       "b_grid": len(harness.default_b_grid())},
        "frontier_cusum": {"n_runs": FRONTIER_RUNS, "horizon": FRONTIER_HORIZON,
                           "window": CUSUM_WINDOW, "a_grid": FRONTIER_A_POINTS,
                           "b_grid": FRONTIER_B_POINTS + 1},
        "solve_evaluate": {"n_runs": EVAL_RUNS, "horizon": EVAL_HORIZON,
                           "instances": len(TABLE_INSTANCES), "workers": EVAL_WORKERS,
                           "A": EVAL_A, "B": EVAL_B},
    }

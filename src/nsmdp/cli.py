"""Command-line entry point.

Subcommands
-----------
solve      build both regime MDPs, solve them, and write models.json plus
           solution.json (policies, values, information numbers).
evaluate   Monte Carlo comparison of the configured policies; writes
           runs.csv and summary.csv. Thresholded policies use the fixed
           thresholds from the config when given, otherwise the threshold
           grid is searched under the Bayesian cost with shared seeds.
sweep      non-Bayesian frontier over the configured alpha levels; writes
           frontier.csv.
calibrate  single-alpha constrained threshold selection; writes frontier.csv.
info       print a per-step statistic trace, either for one simulated
           episode or for a scripted trajectory file of s,a,s_next rows.

Exit codes: 0 success, 1 configuration error, 2 runtime/numerical error.
All randomness derives from the single seed; reruns with the same config
and seed reproduce outputs byte for byte regardless of worker count.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import harness
from .controllers import PHASES, kl_policy
from .detectors import Detector, DetectorConfig
from .engine import simulate_batch
from .errors import ModelError, NumericalError, StateError
from .inventory import ChangeSpec, InventoryParams, build_env
from .mdp import info_number, max_info_number, value_iteration
from .momdp import MomdpSolution, belief_grid_solve, build_pomdp


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


CONFIG_HELP = """\
Configuration file (INI syntax); every key is optional and flags win over
file values. Defaults in parentheses.

[inventory]
  capacity          stock capacity N, units (20)
  order_cost        c, cost per unit ordered (1.0)
  holding_cost      h, cost per unit held per period (5.0)
  shortage_penalty  p, cost per unit of lost demand (100.0)
  demand_rate       lambda, Poisson demand mean, pre-change (2.0)
  uniform_max       u_max, post-change Uniform support {0..u_max} (capacity)

[change]
  kind              geometric | fixed | never (geometric)
  rho               geometric change probability per step (0.01)
  gamma             fixed change point, first post-change transition (1)

[detector]
  kind              shiryaev | sr | cusum (shiryaev for evaluate, sr for
                    sweep/calibrate)
  rho               Shiryaev prior parameter (0.01)
  window            CUSUM window m, steps (200)

[run]
  beta              discount factor in [0,1) (0.99)
  horizon           steps per episode (1000)
  n_runs            Monte Carlo episodes (1000)
  seed              master seed; all randomness derives from it (0)
  initial_state     starting stock level (0)
  workers           worker threads; never affects results (1)
  out_dir           output directory (out)

[policies]
  kinds             comma list from oracle,loc,kl,tt,random,momdp
                    (oracle,loc,tt,random)
  momdp_grid        belief grid size G (201)
  momdp_tol         belief-grid Bellman residual tolerance (1e-6)

[thresholds]
  a                 fixed A; statistic domain (unset -> grid search)
  b                 fixed B for the two-threshold policy (unset)
  a_grid            size of the log-spaced A grid (30)
  a_min, a_max      A grid range ([1, 1e6])
  b_grid            size of the log-spaced B grid; 0 is always included (15)
  opt_runs          episodes per grid cell; 0 means n_runs (0)

[sweep]
  alphas            comma list of caps on the change-never cost (empty)
"""


@dataclass
class ExperimentConfig:
    params: InventoryParams
    change: ChangeSpec
    detector_kind: str
    detector_rho: float
    window: int
    beta: float
    horizon: int
    n_runs: int
    seed: int
    initial_state: int
    workers: int
    out_dir: Path
    policy_kinds: tuple[str, ...]
    momdp_grid: int
    momdp_tol: float
    threshold_a: float | None
    threshold_b: float | None
    a_grid: int
    a_min: float
    a_max: float
    b_grid: int
    opt_runs: int
    alphas: tuple[float, ...]


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        parser.read(path)

    def pick(flag: str, value):
        return overrides[flag] if overrides.get(flag) is not None else value

    try:
        params = InventoryParams(
            capacity=_get(parser, "inventory", "capacity", int, 20),
            order_cost=_get(parser, "inventory", "order_cost", float, 1.0),
            holding_cost=_get(parser, "inventory", "holding_cost", float, 5.0),
            penalty=_get(parser, "inventory", "shortage_penalty", float, 100.0),
            demand_rate=_get(parser, "inventory", "demand_rate", float, 2.0),
            uniform_max=_get(parser, "inventory", "uniform_max", int, None),
        )
    except ValueError as exc:
        raise ConfigError(f"inventory.*: {exc}") from exc
    try:
        change = ChangeSpec(
            kind=_get(parser, "change", "kind", str, "geometric"),
            rho=_get(parser, "change", "rho", float, 0.01),
            gamma=_get(parser, "change", "gamma", int, 1),
        )
    except ValueError as exc:
        raise ConfigError(f"change.*: {exc}") from exc

    beta = _get(parser, "run", "beta", float, 0.99)
    if not 0.0 <= beta < 1.0:
        raise ConfigError(f"run.beta must be in [0, 1), got {beta}")
    horizon = pick("horizon", _get(parser, "run", "horizon", int, 1000))
    if horizon < 1:
        raise ConfigError(f"run.horizon must be >= 1, got {horizon}")
    n_runs = pick("n_runs", _get(parser, "run", "n_runs", int, 1000))
    if n_runs < 1:
        raise ConfigError(f"run.n_runs must be >= 1, got {n_runs}")
    workers = pick("workers", _get(parser, "run", "workers", int, 1))
    if workers < 1:
        raise ConfigError(f"run.workers must be >= 1, got {workers}")

    kinds_raw = pick("policies", _get(parser, "policies", "kinds", str,
                                      "oracle,loc,tt,random"))
    kinds = tuple(k.strip() for k in kinds_raw.split(",") if k.strip())
    for k in kinds:
        if k not in ("oracle", "loc", "kl", "tt", "random", "momdp"):
            raise ConfigError(f"policies.kinds: unknown policy kind {k!r}")
    if not kinds:
        raise ConfigError("policies.kinds must list at least one policy")

    detector_kind = pick("detector", _get(parser, "detector", "kind", str, "shiryaev"))
    if detector_kind not in ("shiryaev", "sr", "cusum"):
        raise ConfigError(f"detector.kind must be shiryaev, sr or cusum, got {detector_kind!r}")
    detector_rho = _get(parser, "detector", "rho", float, 0.01)
    if detector_kind == "shiryaev" and not 0.0 < detector_rho < 1.0:
        raise ConfigError(f"detector.rho must be in (0, 1) for shiryaev, got {detector_rho}")
    if detector_kind == "sr":
        detector_rho = 0.0
    window = _get(parser, "detector", "window", int, 200)
    if detector_kind == "cusum" and window < 1:
        raise ConfigError(f"detector.window must be >= 1 for cusum, got {window}")
    initial_state = _get(parser, "run", "initial_state", int, 0)
    if not 0 <= initial_state <= params.capacity:
        raise ConfigError(f"run.initial_state must be in [0, {params.capacity}], "
                          f"got {initial_state}")

    alphas_raw = pick("alphas", _get(parser, "sweep", "alphas", str, ""))
    alphas = tuple(float(a) for a in alphas_raw.split(",") if a.strip())

    return ExperimentConfig(
        params=params, change=change,
        detector_kind=detector_kind, detector_rho=detector_rho,
        window=window,
        beta=beta, horizon=horizon, n_runs=n_runs,
        seed=pick("seed", _get(parser, "run", "seed", int, 0)),
        initial_state=initial_state,
        workers=workers,
        out_dir=Path(pick("out_dir", _get(parser, "run", "out_dir", str, "out"))),
        policy_kinds=kinds,
        momdp_grid=_get(parser, "policies", "momdp_grid", int, 201),
        momdp_tol=_get(parser, "policies", "momdp_tol", float, 1e-6),
        threshold_a=pick("threshold_a", _get(parser, "thresholds", "a", float, None)),
        threshold_b=pick("threshold_b", _get(parser, "thresholds", "b", float, None)),
        a_grid=_get(parser, "thresholds", "a_grid", int, 30),
        a_min=_get(parser, "thresholds", "a_min", float, 1.0),
        a_max=_get(parser, "thresholds", "a_max", float, 1e6),
        b_grid=_get(parser, "thresholds", "b_grid", int, 15),
        opt_runs=_get(parser, "thresholds", "opt_runs", int, 0),
        alphas=alphas,
    )


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _solution_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "solution.json"


def cmd_solve(cfg: ExperimentConfig) -> int:
    env = build_env(cfg.params)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    sol_pre = value_iteration(env.mdp_pre, cfg.beta)
    sol_post = value_iteration(env.mdp_post, cfg.beta)
    pi_probe = kl_policy(env.mdp_pre.kernel, env.mdp_post.kernel, env.mdp_pre.feasible)
    k0, k1 = env.mdp_pre.kernel, env.mdp_post.kernel
    info_pre = info_number(k0, k1, sol_pre.policy)
    info_probe = info_number(k0, k1, pi_probe)
    info_max, pi_info = max_info_number(k0, k1, env.mdp_pre.feasible)

    models = {
        "params": {
            "capacity": cfg.params.capacity, "order_cost": cfg.params.order_cost,
            "holding_cost": cfg.params.holding_cost, "penalty": cfg.params.penalty,
            "demand_rate": cfg.params.demand_rate, "uniform_max": cfg.params.uniform_max,
        },
        "pre": {"kernel": env.mdp_pre.kernel.tolist(), "cost": env.mdp_pre.cost.tolist()},
        "post": {"kernel": env.mdp_post.kernel.tolist(), "cost": env.mdp_post.cost.tolist()},
    }
    _json_dump(models, cfg.out_dir / "models.json")

    solution = {
        "params": models["params"],
        "beta": cfg.beta,
        "pi_pre": sol_pre.policy.tolist(),
        "pi_post": sol_post.policy.tolist(),
        "pi_probe": pi_probe.tolist(),
        "v_pre": sol_pre.value.tolist(),
        "v_post": sol_post.value.tolist(),
        "info_pre": info_pre,
        "info_probe": info_probe,
        "info_max": info_max,
        "pi_info_max": pi_info.tolist(),
    }
    if "momdp" in cfg.policy_kinds:
        pomdp = build_pomdp(env.mdp_pre, env.mdp_post, cfg.change.rho)
        momdp = belief_grid_solve(pomdp, grid_size=cfg.momdp_grid, beta=cfg.beta,
                                  tol=cfg.momdp_tol)
        solution["momdp"] = {
            "rho": cfg.change.rho,
            "grid_size": cfg.momdp_grid,
            "policy": momdp.policy.tolist(),
            "value": momdp.value.tolist(),
        }
    _json_dump(solution, _solution_path(cfg))
    print(f"solved both regimes: I_pi0={info_pre:.6g} I_probe={info_probe:.6g} "
          f"I_max={info_max:.6g}")
    print(f"wrote {cfg.out_dir / 'models.json'} and {_solution_path(cfg)}")
    return 0


def _load_policies(cfg: ExperimentConfig, env) -> harness.PolicySet:
    path = _solution_path(cfg)
    if not path.exists():
        raise ConfigError(f"missing solution file {path}; run `nsmdp solve` first")
    sol = json.loads(path.read_text())
    momdp = None
    if "momdp" in cfg.policy_kinds:
        if "momdp" not in sol:
            raise ConfigError("solution file has no momdp policy; rerun `nsmdp solve` "
                              "with momdp in policies.kinds")
        m = sol["momdp"]
        pomdp = build_pomdp(env.mdp_pre, env.mdp_post, m["rho"])
        momdp = MomdpSolution(pomdp=pomdp,
                              grid=np.linspace(0.0, 1.0, m["grid_size"]),
                              value=np.array(m["value"]),
                              policy=np.array(m["policy"], dtype=int))
    return harness.PolicySet(
        pi_pre=np.array(sol["pi_pre"], dtype=int),
        pi_post=np.array(sol["pi_post"], dtype=int),
        pi_probe=np.array(sol["pi_probe"], dtype=int),
        v_pre=np.array(sol["v_pre"]),
        v_post=np.array(sol["v_post"]),
        momdp=momdp)


def _grids(cfg: ExperimentConfig):
    a_grid = harness.default_a_grid(cfg.a_grid, cfg.a_min, cfg.a_max)
    b_grid = harness.default_b_grid(cfg.b_grid, cfg.a_min, cfg.a_max)
    return a_grid, b_grid


def _fixed_thresholds(cfg: ExperimentConfig) -> tuple[float, float]:
    """(A, B) from the config, A = inf and B = 0 where unset. A fixed A needs
    an explicit B when tt runs, since B = 0 would make tt always-probe."""
    if ("tt" in cfg.policy_kinds and cfg.threshold_a is not None
            and cfg.threshold_b is None):
        raise ConfigError("thresholds.b (--b) must be set with thresholds.a (--a) "
                          "when tt is in policies.kinds")
    return (cfg.threshold_a if cfg.threshold_a is not None else math.inf,
            cfg.threshold_b if cfg.threshold_b is not None else 0.0)


def cmd_evaluate(cfg: ExperimentConfig, assert_ordering: bool = False) -> int:
    fixed_a, fixed_b = _fixed_thresholds(cfg)
    env = build_env(cfg.params)
    policies = _load_policies(cfg, env)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    a_grid, b_grid = _grids(cfg)
    opt_runs = cfg.opt_runs if cfg.opt_runs > 0 else cfg.n_runs

    reports, all_records = [], []
    for kind in cfg.policy_kinds:
        setup = harness.make_setup(
            env, policies, kind, cfg.change, cfg.horizon, cfg.beta,
            detector_kind=cfg.detector_kind, detector_rho=cfg.detector_rho,
            window=cfg.window, initial_state=cfg.initial_state)
        if kind in ("loc", "kl", "tt"):
            if cfg.threshold_a is not None:
                setup = replace(setup, threshold_a=fixed_a, threshold_b=fixed_b)
            else:
                choice = harness.optimize_thresholds(
                    setup, a_grid, b_grid, n_runs=opt_runs,
                    master_seed=cfg.seed, n_workers=cfg.workers)
                setup = replace(setup, threshold_a=choice.threshold_a,
                                threshold_b=choice.threshold_b)
        report = harness.monte_carlo(setup, cfg.n_runs, cfg.seed, cfg.workers)
        reports.append(report)
        all_records.extend(report.runs)
        print(f"{kind:7s} mean_cost={report.mean_cost:.6g} stderr={report.stderr:.4g} "
              f"A={report.threshold_a:.6g} B={report.threshold_b:.6g}")

    harness.write_runs_csv(cfg.out_dir / "runs.csv", all_records)
    harness.write_summary_csv(cfg.out_dir / "summary.csv", reports)
    print(f"wrote {cfg.out_dir / 'runs.csv'} and {cfg.out_dir / 'summary.csv'}")

    if assert_ordering:
        by_kind = {r.policy: r for r in reports}
        chain = [k for k in ("oracle", "tt", "loc", "random") if k in by_kind]
        if len(chain) < 4:
            raise ConfigError("--assert-ordering needs oracle, tt, loc and random "
                              "in policies.kinds")
        for lo, hi in zip(chain, chain[1:]):
            a, b = by_kind[lo], by_kind[hi]
            if not (a.mean_cost + 1.96 * a.stderr < b.mean_cost - 1.96 * b.stderr):
                print(f"ordering violated: {lo} ({a.mean_cost:.6g}) vs "
                      f"{hi} ({b.mean_cost:.6g})", file=sys.stderr)
                return 2
        print("cost ordering oracle < tt < loc < random holds with "
              "non-overlapping 95% intervals")
    return 0


def _nonbayes_setups(cfg: ExperimentConfig, env, policies):
    detector_kind = cfg.detector_kind if cfg.detector_kind != "shiryaev" else "sr"
    detector_rho = 0.0 if detector_kind == "sr" else cfg.detector_rho
    setups = {}
    for kind in cfg.policy_kinds:
        if kind in ("loc", "kl", "tt"):
            setups[kind] = harness.make_setup(
                env, policies, kind, cfg.change, cfg.horizon, cfg.beta,
                detector_kind=detector_kind, detector_rho=detector_rho,
                window=cfg.window, initial_state=cfg.initial_state)
    if not setups:
        raise ConfigError("sweep/calibrate need at least one of loc, kl, tt "
                          "in policies.kinds")
    return setups


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.alphas:
        raise ConfigError("sweep.alphas must be a nonempty list")
    env = build_env(cfg.params)
    policies = _load_policies(cfg, env)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    a_grid, b_grid = _grids(cfg)
    rows = harness.frontier_sweep(_nonbayes_setups(cfg, env, policies), cfg.alphas,
                                  a_grid, b_grid, n_runs=cfg.n_runs,
                                  master_seed=cfg.seed, n_workers=cfg.workers)
    harness.write_frontier_csv(cfg.out_dir / "frontier.csv", rows)
    for r in rows:
        tag = "" if r.feasible else "  [infeasible: best violating cell]"
        print(f"alpha={r.alpha:.6g} {r.policy:4s} A={r.threshold_a:.6g} "
              f"B={r.threshold_b:.6g} e1={r.e1_cost:.6g} einf={r.einf_cost:.6g}{tag}")
    print(f"wrote {cfg.out_dir / 'frontier.csv'}")
    return 0


def cmd_calibrate(cfg: ExperimentConfig, alpha: float | None) -> int:
    if alpha is None:
        if len(cfg.alphas) != 1:
            raise ConfigError("calibrate needs --alpha or exactly one sweep.alphas entry")
        alpha = cfg.alphas[0]
    env = build_env(cfg.params)
    policies = _load_policies(cfg, env)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    a_grid, b_grid = _grids(cfg)
    rows = []
    for kind, setup in _nonbayes_setups(cfg, env, policies).items():
        rows.append(harness.calibrate_nonbayes(setup, alpha, a_grid, b_grid,
                                               n_runs=cfg.n_runs, master_seed=cfg.seed,
                                               n_workers=cfg.workers))
    harness.write_frontier_csv(cfg.out_dir / "frontier.csv", rows)
    for r in rows:
        tag = "" if r.feasible else "  [infeasible: best violating cell]"
        print(f"{r.policy:4s} A={r.threshold_a:.6g} B={r.threshold_b:.6g} "
              f"e1={r.e1_cost:.6g} einf={r.einf_cost:.6g}{tag}")
    return 0


def _read_trajectory(path: str, capacity: int) -> list[tuple[int, int, int]]:
    """Rows s,a,s_next of a trajectory file; each must be a feasible
    transition of the capacity-N inventory (0 <= s, s_next <= N and
    0 <= a <= N - s), else the error names its line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            s, a, s_next = (int(x) for x in line.split(","))
            feasible = (0 <= s <= capacity and 0 <= s_next <= capacity
                        and 0 <= a <= capacity - s)
        except ValueError:
            feasible = False
        if not feasible:
            raise ValueError(f"{path}:{lineno}: expected integers s,a,s_next with "
                             f"0 <= s, s_next <= {capacity} and 0 <= a <= {capacity} - s, "
                             f"got {line!r}")
        rows.append((s, a, s_next))
    return rows


def cmd_info(cfg: ExperimentConfig, trajectory: str | None) -> int:
    env = build_env(cfg.params)
    if trajectory is not None:
        rows = _read_trajectory(trajectory, cfg.params.capacity)
        det = Detector(
            DetectorConfig(kind=cfg.detector_kind,
                           threshold=cfg.threshold_a if cfg.threshold_a is not None else math.inf,
                           rho=cfg.detector_rho, window=cfg.window),
            env.mdp_pre.kernel, env.mdp_post.kernel)
        print("n,s,a,s_next,log_stat,stopped_at")
        for s, a, s_next in rows:
            state = det.update(s, a, s_next)
            print(f"{state.n},{s},{a},{s_next},{state.log_stat:.9g},"
                  f"{state.stopped_at if state.stopped_at is not None else ''}")
            if state.stopped:
                break
        return 0

    a, b = _fixed_thresholds(cfg)
    policies = _load_policies(cfg, env)
    kind = next((k for k in cfg.policy_kinds if k in ("loc", "kl", "tt")),
                cfg.policy_kinds[0])
    setup = harness.make_setup(env, policies, kind, cfg.change, cfg.horizon, cfg.beta,
                               detector_kind=cfg.detector_kind,
                               detector_rho=cfg.detector_rho, window=cfg.window,
                               threshold_a=a, threshold_b=b,
                               initial_state=cfg.initial_state)
    batch = simulate_batch(setup, cfg.seed, np.array([0]), trace=True)
    tr = batch.trace
    print(f"policy={kind} gamma={batch.gamma[0]:.6g} "
          f"tau={batch.tau[0] if batch.tau[0] >= 0 else 'none'} "
          f"cost={batch.discounted_cost[0]:.9g}")
    print("k,s,a,w,cost,statistic,phase")
    for k in range(cfg.horizon):
        print(f"{k},{int(tr['state'][0, k])},{int(tr['action'][0, k])},"
              f"{int(tr['demand'][0, k])},{tr['cost'][0, k]:.9g},"
              f"{tr['statistic'][0, k]:.9g},{PHASES[int(tr['phase'][0, k])]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsmdp",
        description="Change-detection-driven switching control for "
                    "non-stationary MDPs: solvers, detectors, policy "
                    "evaluation and threshold calibration.",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "solve both regime MDPs and write solution files"),
                       ("evaluate", "Monte Carlo policy comparison (runs.csv, summary.csv)"),
                       ("sweep", "non-Bayesian frontier over alpha levels (frontier.csv)"),
                       ("calibrate", "constrained threshold selection at one alpha"),
                       ("info", "print a per-step detector/statistic trace")):
        p = sub.add_parser(name, help=desc, epilog=CONFIG_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="INI config file (see schema below)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out-dir", dest="out_dir", help="output directory override")
        p.add_argument("--n-runs", dest="n_runs", type=int, help="episode count override")
        p.add_argument("--horizon", type=int, help="episode length override")
        p.add_argument("--workers", type=int, help="worker threads (results unaffected)")
        p.add_argument("--policies", help="comma list of policy kinds override")
        p.add_argument("--detector", help="detector kind override")
        p.add_argument("--a", dest="threshold_a", type=float, help="fixed threshold A")
        p.add_argument("--b", dest="threshold_b", type=float, help="fixed threshold B")
        if name == "evaluate":
            p.add_argument("--assert-ordering", action="store_true",
                           help="fail unless oracle < tt < loc < random with "
                                "non-overlapping 95%% intervals")
        if name == "sweep":
            p.add_argument("--alphas", help="comma list of alpha levels override")
        if name == "calibrate":
            p.add_argument("--alpha", type=float, help="cap on the change-never cost")
        if name == "info":
            p.add_argument("--trajectory", help="CSV file of s,a,s_next rows to trace")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None) for k in
                 ("seed", "out_dir", "n_runs", "horizon", "workers", "policies",
                  "detector", "threshold_a", "threshold_b", "alphas")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, assert_ordering=args.assert_ordering)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.alpha)
        if args.command == "info":
            return cmd_info(cfg, args.trajectory)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, StateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

Every config key is declared once, in CONFIG_KEYS; flags override keys
through FLAGS. Exit codes: 0 success, 1 configuration error (including an
unknown section or key), 2 runtime/numerical error. All randomness derives
from the single seed; reruns with the same config and seed reproduce
outputs byte for byte. `--workers` is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import harness
from .controllers import PHASES, check_thresholds
from .detectors import Detector, DetectorConfig
from .engine import EpisodeSetup, simulate_batch
from .errors import ModelError, NumericalError, StateError
from .inventory import ChangeSpec, InventoryParams, build_env
from .mdp import info_number, max_info_number
from .momdp import MomdpSolution, build_pomdp


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in _names(raw))


# Every config key, declared once as (section, key, cast, default, help).
# Defaults are raw strings, parsed like file and flag values; None is unset.
CONFIG_KEYS = (
    ("inventory", "capacity", int, "20", "stock capacity N, units"),
    ("inventory", "order_cost", float, "1.0", "c, cost per unit ordered"),
    ("inventory", "holding_cost", float, "5.0", "h, cost per unit held per period"),
    ("inventory", "shortage_penalty", float, "100.0", "p, cost per unit of lost demand"),
    ("inventory", "demand_rate", float, "2.0", "lambda, Poisson demand mean, pre-change"),
    ("inventory", "uniform_max", int, None,
     "u_max, post-change Uniform support {0..u_max}; unset means capacity"),
    ("change", "kind", str, "geometric", "geometric | fixed | never"),
    ("change", "rho", float, "0.01", "geometric change probability per step"),
    ("change", "gamma", int, "1", "fixed change point, first post-change transition"),
    ("detector", "kind", str, "shiryaev",
     "shiryaev | sr | cusum; sweep and calibrate run shiryaev as sr"),
    ("detector", "rho", float, "0.01", "Shiryaev prior parameter, in (0, 1)"),
    ("detector", "window", int, "200", "CUSUM window m, steps, at least 1"),
    ("run", "beta", float, "0.99", "discount factor in [0, 1)"),
    ("run", "horizon", int, "1000", "steps per episode"),
    ("run", "n_runs", int, "1000", "Monte Carlo episodes"),
    ("run", "seed", int, "0", "master seed; all randomness derives from it"),
    ("run", "initial_state", int, "0", "starting stock level, in [0, N]"),
    ("run", "workers", int, "1", "accepted for compatibility; has no effect"),
    ("run", "out_dir", Path, "out", "output directory"),
    ("policies", "kinds", _names, "oracle,loc,tt,random",
     "comma list from oracle,loc,kl,tt,random,momdp"),
    ("policies", "momdp_grid", int, "201", "belief grid size G, at least 2"),
    ("policies", "momdp_tol", float, "1e-6",
     "belief-grid Bellman residual tolerance, positive"),
    ("thresholds", "a", float, None,
     "fixed A in the statistic's domain, not NaN, non-negative for shiryaev/sr; "
     "unset means grid search"),
    ("thresholds", "b", float, None,
     "fixed B for the two-threshold policy, B <= A, same domain as A"),
    ("thresholds", "a_grid", int, "30", "size of the log-spaced A grid"),
    ("thresholds", "a_min", float, "1", "lower end of the A grid"),
    ("thresholds", "a_max", float, "1e6", "upper end of the A grid"),
    ("thresholds", "b_grid", int, "15",
     "size of the log-spaced B grid; 0 is always included"),
    ("thresholds", "opt_runs", int, "0", "episodes per grid cell; 0 means n_runs"),
    ("sweep", "alphas", _floats, "", "comma list of caps on the change-never cost"),
)
KEY_HELP = {f"{section}.{key}": text for section, key, _, _, text in CONFIG_KEYS}

# flag -> the key it overrides; --alphas belongs to sweep alone
FLAGS = {"--seed": "run.seed", "--out-dir": "run.out_dir", "--n-runs": "run.n_runs",
         "--horizon": "run.horizon", "--workers": "run.workers",
         "--policies": "policies.kinds", "--detector": "detector.kind",
         "--a": "thresholds.a", "--b": "thresholds.b", "--alphas": "sweep.alphas"}


def _config_help() -> str:
    """The key listing shown under `--help`."""
    lines = ["Configuration file (INI syntax); every key is optional, flags win over",
             "file values, and an unknown section or key is an error. Defaults in",
             "parentheses."]
    for i, (section, key, _, default, text) in enumerate(CONFIG_KEYS):
        if i == 0 or CONFIG_KEYS[i - 1][0] != section:
            lines += ["", f"[{section}]"]
        lines.append(textwrap.fill(f"{text} ({default or 'unset'})", width=78,
                                   initial_indent=f"  {key:<17} ",
                                   subsequent_indent=" " * 20))
    return "\n".join(lines) + "\n"


class ExperimentConfig(SimpleNamespace):
    """One attribute per config section holding its keys' values
    (`cfg.run.horizon`, `cfg.thresholds.a`, ...), plus `params` built from
    [inventory]; `change` is the [change] section as a ChangeSpec."""


def load_config(path: str | None, overrides: dict[str, str | None]) -> ExperimentConfig:
    """Parse the config file and the flag values (`overrides`, keyed
    "section.key", None where a flag is absent) by the CONFIG_KEYS casts,
    then check each key's range."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        parser.read(path)
    sections = parser.sections()
    if parser.defaults():   # configparser would feed [DEFAULT] keys to every section
        sections.insert(0, parser.default_section)
    for section in sections:
        names = [f"{section}.{key}" for key in parser[section]]
        if not any(row[0] == section for row in CONFIG_KEYS):
            raise ConfigError(f"unknown section [{section}] ({', '.join(names)})")
        for name in names:
            if name not in KEY_HELP:
                raise ConfigError(f"{name}: unknown key")

    values: dict[str, dict] = {}
    for section, key, cast, default, _ in CONFIG_KEYS:
        raw = overrides.get(f"{section}.{key}")
        if raw is None:
            raw = parser.get(section, key, fallback="").strip() or default
        try:
            values.setdefault(section, {})[key] = None if raw is None else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    cfg = ExperimentConfig(**{name: SimpleNamespace(**keys) for name, keys in values.items()})

    inventory = dict(values["inventory"])
    inventory["penalty"] = inventory.pop("shortage_penalty")
    try:
        cfg.params = InventoryParams(**inventory)
    except ValueError as exc:
        raise ConfigError(f"inventory.*: {exc}") from exc
    try:
        cfg.change = ChangeSpec(**values["change"])
    except ValueError as exc:
        raise ConfigError(f"change.*: {exc}") from exc

    run, det, pol, thr = cfg.run, cfg.detector, cfg.policies, cfg.thresholds
    if not 0.0 <= run.beta < 1.0:
        raise ConfigError(f"run.beta must be in [0, 1), got {run.beta}")
    if run.horizon < 1:
        raise ConfigError(f"run.horizon must be >= 1, got {run.horizon}")
    if run.n_runs < 1:
        raise ConfigError(f"run.n_runs must be >= 1, got {run.n_runs}")
    if not 0 <= run.initial_state <= cfg.params.capacity:
        raise ConfigError(f"run.initial_state must be in [0, {cfg.params.capacity}], "
                          f"got {run.initial_state}")
    for k in pol.kinds:
        if k not in ("oracle", "loc", "kl", "tt", "random", "momdp"):
            raise ConfigError(f"policies.kinds: unknown policy kind {k!r}")
    if not pol.kinds:
        raise ConfigError("policies.kinds must list at least one policy")
    if pol.momdp_grid < 2:
        raise ConfigError(f"policies.momdp_grid must be >= 2, got {pol.momdp_grid}")
    if not 0.0 < pol.momdp_tol < math.inf:
        raise ConfigError(f"policies.momdp_tol must be positive and finite, "
                          f"got {pol.momdp_tol}")
    if det.kind not in ("shiryaev", "sr", "cusum"):
        raise ConfigError(f"detector.kind must be shiryaev, sr or cusum, got {det.kind!r}")
    if det.kind == "shiryaev" and not 0.0 < det.rho < 1.0:
        raise ConfigError(f"detector.rho must be in (0, 1) for shiryaev, got {det.rho}")
    if det.kind != "shiryaev":
        det.rho = 0.0   # only the Shiryaev statistic reads it
    if det.kind == "cusum" and det.window < 1:
        raise ConfigError(f"detector.window must be >= 1 for cusum, got {det.window}")
    # the engine's threshold rule, on A alone and then on (A, B)
    a = math.inf if thr.a is None else thr.a
    for key, b in (("a", a), ("b", thr.b)):
        try:
            if b is not None:
                check_thresholds(det.kind, det.rho, a, b)
        except ValueError as exc:
            raise ConfigError(f"thresholds.{key}: {exc}") from exc
    return cfg


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _solution_path(cfg: ExperimentConfig) -> Path:
    return cfg.run.out_dir / "solution.json"


def cmd_solve(cfg: ExperimentConfig) -> int:
    env = build_env(cfg.params)
    cfg.run.out_dir.mkdir(parents=True, exist_ok=True)
    with_momdp = "momdp" in cfg.policies.kinds
    policies = harness.solve_policies(
        env, cfg.run.beta, momdp_grid=cfg.policies.momdp_grid if with_momdp else None,
        momdp_rho=cfg.change.rho, momdp_tol=cfg.policies.momdp_tol)
    k0, k1 = env.mdp_pre.kernel, env.mdp_post.kernel
    info_pre = info_number(k0, k1, policies.pi_pre)
    info_probe = info_number(k0, k1, policies.pi_probe)
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
    _json_dump(models, cfg.run.out_dir / "models.json")

    solution = {
        "params": models["params"],
        "beta": cfg.run.beta,
        "pi_pre": policies.pi_pre.tolist(),
        "pi_post": policies.pi_post.tolist(),
        "pi_probe": policies.pi_probe.tolist(),
        "v_pre": policies.v_pre.tolist(),
        "v_post": policies.v_post.tolist(),
        "info_pre": info_pre,
        "info_probe": info_probe,
        "info_max": info_max,
        "pi_info_max": pi_info.tolist(),
    }
    if with_momdp:
        solution["momdp"] = {
            "rho": cfg.change.rho,
            "grid_size": cfg.policies.momdp_grid,
            "policy": policies.momdp.policy.tolist(),
            "value": policies.momdp.value.tolist(),
        }
    _json_dump(solution, _solution_path(cfg))
    print(f"solved both regimes: I_pi0={info_pre:.6g} I_probe={info_probe:.6g} "
          f"I_max={info_max:.6g}")
    print(f"wrote {cfg.run.out_dir / 'models.json'} and {_solution_path(cfg)}")
    return 0


def _load_policies(cfg: ExperimentConfig, env) -> harness.PolicySet:
    path = _solution_path(cfg)
    if not path.exists():
        raise ConfigError(f"missing solution file {path}; run `nsmdp solve` first")
    sol = json.loads(path.read_text())
    momdp = None
    if "momdp" in cfg.policies.kinds:
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


def _episode_setup(cfg: ExperimentConfig, env, policies, kind: str,
                   nonbayes: bool = False, **thresholds) -> EpisodeSetup:
    """The config's setup for one policy kind. The non-Bayesian criteria
    (sweep, calibrate) run the Shiryaev statistic as its rho = 0 limit, SR."""
    detector_kind, detector_rho = cfg.detector.kind, cfg.detector.rho
    if nonbayes and detector_kind == "shiryaev":
        detector_kind, detector_rho = "sr", 0.0
    return harness.make_setup(env, policies, kind, cfg.change, cfg.run.horizon,
                              cfg.run.beta, detector_kind=detector_kind,
                              detector_rho=detector_rho, window=cfg.detector.window,
                              initial_state=cfg.run.initial_state, **thresholds)


def _grids(cfg: ExperimentConfig):
    thr = cfg.thresholds
    return (harness.default_a_grid(thr.a_grid, thr.a_min, thr.a_max),
            harness.default_b_grid(thr.b_grid, thr.a_min, thr.a_max))


def _fixed_thresholds(cfg: ExperimentConfig) -> tuple[float, float]:
    """(A, B) from the config, A = inf and B = 0 where unset. A fixed A needs
    an explicit B when tt runs, since B = 0 would make tt always-probe."""
    a, b = cfg.thresholds.a, cfg.thresholds.b
    if "tt" in cfg.policies.kinds and a is not None and b is None:
        raise ConfigError("thresholds.b (--b) must be set with thresholds.a (--a) "
                          "when tt is in policies.kinds")
    return (a if a is not None else math.inf, b if b is not None else 0.0)


def cmd_evaluate(cfg: ExperimentConfig, assert_ordering: bool = False) -> int:
    fixed_a, fixed_b = _fixed_thresholds(cfg)
    env = build_env(cfg.params)
    policies = _load_policies(cfg, env)
    out_dir, n_runs, seed = cfg.run.out_dir, cfg.run.n_runs, cfg.run.seed
    out_dir.mkdir(parents=True, exist_ok=True)
    a_grid, b_grid = _grids(cfg)
    opt_runs = cfg.thresholds.opt_runs if cfg.thresholds.opt_runs > 0 else n_runs

    reports, all_records = [], []
    for kind in cfg.policies.kinds:
        setup = _episode_setup(cfg, env, policies, kind)
        if kind in ("loc", "kl", "tt"):
            if cfg.thresholds.a is not None:
                setup = replace(setup, threshold_a=fixed_a, threshold_b=fixed_b)
            else:
                choice = harness.optimize_thresholds(setup, a_grid, b_grid,
                                                     n_runs=opt_runs, master_seed=seed)
                setup = replace(setup, threshold_a=choice.threshold_a,
                                threshold_b=choice.threshold_b)
        report = harness.monte_carlo(setup, n_runs, seed)
        reports.append(report)
        all_records.extend(report.runs)
        print(f"{kind:7s} mean_cost={report.mean_cost:.6g} stderr={report.stderr:.4g} "
              f"A={report.threshold_a:.6g} B={report.threshold_b:.6g}")

    harness.write_runs_csv(out_dir / "runs.csv", all_records)
    harness.write_summary_csv(out_dir / "summary.csv", reports)
    print(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'summary.csv'}")

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


def _frontier(cfg: ExperimentConfig, alphas) -> list[harness.CalibrationResult]:
    """Calibrate every threshold policy at every alpha and write frontier.csv."""
    env = build_env(cfg.params)
    policies = _load_policies(cfg, env)
    cfg.run.out_dir.mkdir(parents=True, exist_ok=True)
    setups = {kind: _episode_setup(cfg, env, policies, kind, nonbayes=True)
              for kind in cfg.policies.kinds if kind in ("loc", "kl", "tt")}
    if not setups:
        raise ConfigError("sweep/calibrate need at least one of loc, kl, tt "
                          "in policies.kinds")
    rows = harness.frontier_sweep(setups, alphas, *_grids(cfg), n_runs=cfg.run.n_runs,
                                  master_seed=cfg.run.seed)
    harness.write_frontier_csv(cfg.run.out_dir / "frontier.csv", rows)
    return rows


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.sweep.alphas:
        raise ConfigError("sweep.alphas must be a nonempty list")
    for r in _frontier(cfg, cfg.sweep.alphas):
        tag = "" if r.feasible else "  [infeasible: best violating cell]"
        print(f"alpha={r.alpha:.6g} {r.policy:4s} A={r.threshold_a:.6g} "
              f"B={r.threshold_b:.6g} e1={r.e1_cost:.6g} einf={r.einf_cost:.6g}{tag}")
    print(f"wrote {cfg.run.out_dir / 'frontier.csv'}")
    return 0


def cmd_calibrate(cfg: ExperimentConfig, alpha: float | None) -> int:
    if alpha is None:
        if len(cfg.sweep.alphas) != 1:
            raise ConfigError("calibrate needs --alpha or exactly one sweep.alphas entry")
        alpha = cfg.sweep.alphas[0]
    for r in _frontier(cfg, [alpha]):
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
    det = cfg.detector
    if trajectory is not None:
        rows = _read_trajectory(trajectory, cfg.params.capacity)
        threshold = cfg.thresholds.a if cfg.thresholds.a is not None else math.inf
        detector = Detector(DetectorConfig(kind=det.kind, threshold=threshold,
                                           rho=det.rho, window=det.window),
                            env.mdp_pre.kernel, env.mdp_post.kernel)
        print("n,s,a,s_next,log_stat,stopped_at")
        for s, a, s_next in rows:
            state = detector.update(s, a, s_next)
            print(f"{state.n},{s},{a},{s_next},{state.log_stat:.9g},"
                  f"{state.stopped_at if state.stopped_at is not None else ''}")
            if state.stopped:
                break
        return 0

    a, b = _fixed_thresholds(cfg)
    policies = _load_policies(cfg, env)
    kind = next((k for k in cfg.policies.kinds if k in ("loc", "kl", "tt")),
                cfg.policies.kinds[0])
    setup = _episode_setup(cfg, env, policies, kind, threshold_a=a, threshold_b=b)
    batch = simulate_batch(setup, cfg.run.seed, np.array([0]), trace=True)
    tr = batch.trace
    print(f"policy={kind} gamma={batch.gamma[0]:.6g} "
          f"tau={batch.tau[0] if batch.tau[0] >= 0 else 'none'} "
          f"cost={batch.discounted_cost[0]:.9g}")
    print("k,s,a,w,cost,statistic,phase")
    for k in range(cfg.run.horizon):
        print(f"{k},{int(tr['state'][0, k])},{int(tr['action'][0, k])},"
              f"{int(tr['demand'][0, k])},{tr['cost'][0, k]:.9g},"
              f"{tr['statistic'][0, k]:.9g},{PHASES[int(tr['phase'][0, k])]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    epilog = _config_help()
    parser = argparse.ArgumentParser(
        prog="nsmdp",
        description="Change-detection-driven switching control for "
                    "non-stationary MDPs: solvers, detectors, policy "
                    "evaluation and threshold calibration.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "solve both regime MDPs and write solution files"),
                       ("evaluate", "Monte Carlo policy comparison (runs.csv, summary.csv)"),
                       ("sweep", "non-Bayesian frontier over alpha levels (frontier.csv)"),
                       ("calibrate", "constrained threshold selection at one alpha"),
                       ("info", "print a per-step detector/statistic trace")):
        p = sub.add_parser(name, help=desc, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="INI config file (see schema below)")
        for flag, key in FLAGS.items():
            if flag != "--alphas" or name == "sweep":
                p.add_argument(flag, dest=key, help=KEY_HELP[key])
        if name == "evaluate":
            p.add_argument("--assert-ordering", action="store_true",
                           help="fail unless oracle < tt < loc < random with "
                                "non-overlapping 95%% intervals")
        if name == "calibrate":
            p.add_argument("--alpha", type=float, help="cap on the change-never cost")
        if name == "info":
            p.add_argument("--trajectory", help="CSV file of s,a,s_next rows to trace")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {key: getattr(args, key, None)
                                        for key in FLAGS.values()})
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

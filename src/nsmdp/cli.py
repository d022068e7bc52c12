"""Command-line entry point.

Subcommands
-----------
solve      build both regime MDPs, solve them, and write models.json plus
           solution.json (policies, values, information numbers).
evaluate   Monte Carlo comparison of the configured policies; writes
           runs.csv and summary.csv. Thresholded policies use the fixed
           thresholds from the config when given, otherwise one threshold
           grid for loc, kl and tt is searched under the Bayesian cost.
sweep      non-Bayesian frontier over the configured alpha levels, from one
           grid for loc, kl and tt; writes frontier.csv.
calibrate  single-alpha constrained threshold selection; writes frontier.csv.
info       print a per-step statistic trace, either for one simulated
           episode or for a scripted trajectory file of s,a,s_next rows.

Every config key is declared once, with its rule, in CONFIG_KEYS; flags
override keys through FLAGS. Exit codes: 0 success, 1 configuration error
(including an unknown section or key), 2 runtime/numerical error. All
randomness derives from the single seed; reruns with the same config and
seed reproduce outputs byte for byte. `--workers` is accepted and sets
nothing (there is no `run.workers` key). A config file that cannot be read
as UTF-8 text, a directory included, or is not valid INI exits 1.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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
from .engine import BATCHABLE_KINDS, DETECTOR_KINDS, EpisodeSetup, simulate_batch
from .errors import ModelError, NumericalError, StateError
from .inventory import ChangeSpec, InventoryParams, build_env
from .mdp import info_number, max_info_number, validate_policy
from .momdp import MomdpSolution, build_pomdp


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in _names(raw))


def _at_least(least: int) -> tuple:
    return (lambda v: v >= least), f"at least {least}"


def _one_of(*names: str) -> tuple:
    return (lambda v: v in names), f"one of {', '.join(names)}"


POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf), "positive and finite"

# Every config key, declared once as (section, key, cast, default, help, rule).
# Defaults are raw strings, parsed like file and flag values; None is unset.
# A rule is (test of the parsed value, the phrase that states it), or None.
CONFIG_KEYS = (
    ("inventory", "capacity", int, "20", "stock capacity N, units", None),
    ("inventory", "order_cost", float, "1.0", "c, cost per unit ordered", None),
    ("inventory", "holding_cost", float, "5.0", "h, cost per unit held per period", None),
    ("inventory", "shortage_penalty", float, "100.0", "p, cost per unit of lost demand", None),
    ("inventory", "demand_rate", float, "2.0", "lambda, Poisson demand mean, pre-change", None),
    ("inventory", "uniform_max", int, None,
     "u_max, post-change Uniform support {0..u_max}; unset means capacity", None),
    ("change", "kind", str, "geometric", "change model", _one_of("geometric", "fixed", "never")),
    ("change", "rho", float, "0.01", "geometric change probability per step", None),
    ("change", "gamma", int, "1", "fixed change point, first post-change transition", None),
    ("detector", "kind", str, "shiryaev", "statistic (sweep and calibrate run shiryaev as sr)",
     _one_of("shiryaev", "sr", "cusum")),
    ("detector", "rho", float, "0.01", "Shiryaev prior parameter, in (0, 1) under shiryaev", None),
    ("detector", "window", int, "200", "CUSUM window m, steps, at least 1 under cusum", None),
    ("run", "beta", float, "0.99", "discount factor", ((lambda v: 0.0 <= v < 1.0), "in [0, 1)")),
    ("run", "horizon", int, "1000", "steps per episode", _at_least(1)),
    ("run", "n_runs", int, "1000", "Monte Carlo episodes", _at_least(1)),
    ("run", "seed", int, "0", "master seed, the source of all randomness", _at_least(0)),
    ("run", "initial_state", int, "0", "starting stock level, in [0, N]", None),
    ("run", "out_dir", Path, "out", "output directory", None),
    ("policies", "kinds", _names, "oracle,loc,tt,random",
     f"comma list of distinct kinds from {','.join(BATCHABLE_KINDS)}", None),
    ("policies", "momdp_grid", int, "201", "belief grid size G", _at_least(2)),
    ("policies", "momdp_tol", float, "1e-6", "belief-grid Bellman tolerance", POSITIVE_FINITE),
    ("thresholds", "a", float, None,
     "fixed A in the statistic's domain, not NaN, non-negative for shiryaev/sr; "
     "unset means grid search", None),
    ("thresholds", "b", float, None,
     "fixed B for the two-threshold policy, B <= A, same domain as A", None),
    ("thresholds", "a_grid", int, "30", "size of the log-spaced A grid", _at_least(1)),
    ("thresholds", "a_min", float, "1", "lower end of the A and B grids", POSITIVE_FINITE),
    ("thresholds", "a_max", float, "1e6", "upper end of the A and B grids", POSITIVE_FINITE),
    ("thresholds", "b_grid", int, "15", "log-spaced B grid size (B = 0 is added)", _at_least(0)),
    ("thresholds", "opt_runs", int, "0", "episodes per grid cell (0 means n_runs)", _at_least(0)),
    ("sweep", "alphas", _floats, "", "comma list of caps on the change-never cost",
     ((lambda v: all(0.0 <= x < math.inf for x in v)), "finite and >= 0")),
)
KEY_HELP = {f"{section}.{key}": text + (f", must be {rule[1]}" if rule else "")
            for section, key, _, _, text, rule in CONFIG_KEYS}

# flag -> the key it overrides; --alphas belongs to sweep alone, and calibrate's
# --alpha sets sweep.alphas to its one cap
FLAGS = {"--seed": "run.seed", "--out-dir": "run.out_dir", "--n-runs": "run.n_runs",
         "--horizon": "run.horizon", "--policies": "policies.kinds", "--detector": "detector.kind",
         "--a": "thresholds.a", "--b": "thresholds.b", "--alphas": "sweep.alphas"}


def _config_help() -> str:
    """The key listing shown under `--help`."""
    lines = ["Configuration file (INI syntax); every key is optional, flags win over",
             "file values, and an unknown section or key is an error. Defaults in",
             "parentheses."]
    for i, (section, key, _, default, *_) in enumerate(CONFIG_KEYS):
        if i == 0 or CONFIG_KEYS[i - 1][0] != section:
            lines += ["", f"[{section}]"]
        lines.append(textwrap.fill(f"{KEY_HELP[f'{section}.{key}']} ({default or 'unset'})",
                                   width=78, initial_indent=f"  {key:<17} ",
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
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
    for section, key, cast, default, _, rule in CONFIG_KEYS:
        raw = overrides.get(f"{section}.{key}")
        if raw is None:
            raw = parser.get(section, key, fallback="").strip() or default
        try:
            value = None if raw is None else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{section}.{key} must be {rule[1]}, got {value!r}")
        values.setdefault(section, {})[key] = value
    cfg = ExperimentConfig(**{name: SimpleNamespace(**keys) for name, keys in values.items()})

    inventory = dict(values["inventory"])
    inventory["penalty"] = inventory.pop("shortage_penalty")
    for section, name, build, kwargs in (("inventory", "params", InventoryParams, inventory),
                                         ("change", "change", ChangeSpec, values["change"])):
        try:
            setattr(cfg, name, build(**kwargs))
        except ValueError as exc:
            raise ConfigError(f"{section}.*: {exc}") from exc

    run, det, pol, thr = cfg.run, cfg.detector, cfg.policies, cfg.thresholds
    if not 0 <= run.initial_state <= cfg.params.capacity:
        raise ConfigError(f"run.initial_state must be in [0, {cfg.params.capacity}], "
                          f"got {run.initial_state}")
    for k in pol.kinds:
        if k not in BATCHABLE_KINDS:
            raise ConfigError(f"policies.kinds: unknown policy kind {k!r}")
        if pol.kinds.count(k) > 1:
            raise ConfigError(f"policies.kinds: policy kind {k!r} is listed more than once")
    if not pol.kinds:
        raise ConfigError("policies.kinds must list at least one policy")
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


def _json_text(obj, level: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=1) for a value nested `level`
    deep, where numpy arrays stand for their lists.

    A nonempty array's numbers are encoded by the C encoder once per
    distinct value (`harness.distinct_texts`, keyed on the bytes, so -0.0
    stays apart from 0.0): a kernel or policy holds few distinct values.
    Its lists are then joined innermost first, each item on its own line.
    Dicts recurse in sorted key order; scalars and empty arrays go through
    json.dumps itself.
    """
    newline = "\n" + " " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(key)}: {_json_text(value, level + 1)}"
                 for key, value in sorted(obj.items())]
        return "{" + newline + " " + ("," + newline + " ").join(items) + newline + "}"
    if isinstance(obj, np.ndarray) and (obj.size == 0 or obj.ndim == 0):
        obj = obj.tolist()
    if not isinstance(obj, np.ndarray):
        return json.dumps(obj, sort_keys=True, indent=1).replace("\n", newline)
    # the C encoder writes a list's items apart by ", ", which no number holds
    texts = harness.distinct_texts(obj, lambda values: json.dumps(values)[1:-1].split(", "))
    for depth in range(obj.ndim - 1, -1, -1):
        indent, n = newline + " " * (depth + 1), obj.shape[depth]
        close = newline + " " * depth + "]"
        texts = ["[" + indent + ("," + indent).join(texts[i:i + n]) + close
                 for i in range(0, len(texts), n)]
    return texts[0]


def _json_dump(obj, path: Path) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=1) plus a newline, with
    numpy arrays written as their lists (see `_json_text`)."""
    path.write_text(_json_text(obj) + "\n")


def _solution_path(cfg: ExperimentConfig) -> Path:
    return cfg.run.out_dir / "solution.json"


# PolicySet's arrays, under the names solution.json stores them by
POLICY_ARRAYS = ("pi_pre", "pi_post", "pi_probe", "v_pre", "v_post")


def _model_params(cfg: ExperimentConfig) -> dict:
    """The [inventory] parameters as models.json and solution.json record them."""
    return {name: getattr(cfg.params, name) for name in (
        "capacity", "order_cost", "holding_cost", "penalty", "demand_rate", "uniform_max")}


def solve_documents(cfg: ExperimentConfig, env, policies: harness.PolicySet) -> dict:
    """What `solve` writes for the policies solved on `env`: the contents of
    models.json and solution.json, by file name (see `_json_dump`)."""
    k0, k1 = env.mdp_pre.kernel, env.mdp_post.kernel
    info_max, pi_info = max_info_number(k0, k1, env.mdp_pre.feasible)
    models = {
        "params": _model_params(cfg),
        "pre": {"kernel": env.mdp_pre.kernel, "cost": env.mdp_pre.cost},
        "post": {"kernel": env.mdp_post.kernel, "cost": env.mdp_post.cost},
    }
    solution = {"params": models["params"], "beta": cfg.run.beta,
                "info_pre": info_number(k0, k1, policies.pi_pre),
                "info_probe": info_number(k0, k1, policies.pi_probe),
                "info_max": info_max, "pi_info_max": pi_info,
                **{name: getattr(policies, name) for name in POLICY_ARRAYS}}
    if policies.momdp is not None:
        solution["momdp"] = {"rho": cfg.change.rho, "grid_size": cfg.policies.momdp_grid,
                             "policy": policies.momdp.policy,
                             "value": policies.momdp.value}
    return {"models.json": models, "solution.json": solution}


def cmd_solve(cfg: ExperimentConfig) -> int:
    env = build_env(cfg.params)
    cfg.run.out_dir.mkdir(parents=True, exist_ok=True)
    with_momdp = "momdp" in cfg.policies.kinds
    policies = harness.solve_policies(
        env, cfg.run.beta, momdp_grid=cfg.policies.momdp_grid if with_momdp else None,
        momdp_rho=cfg.change.rho, momdp_tol=cfg.policies.momdp_tol)
    documents = solve_documents(cfg, env, policies)
    for name, document in documents.items():
        _json_dump(document, cfg.run.out_dir / name)
    sol = documents["solution.json"]
    print(f"solved both regimes: I_pi0={sol['info_pre']:.6g} I_probe={sol['info_probe']:.6g} "
          f"I_max={sol['info_max']:.6g}")
    print(f"wrote {cfg.run.out_dir / 'models.json'} and {_solution_path(cfg)}")
    return 0


def _float_array(raw, shape: tuple, name: str) -> np.ndarray:
    """`raw` as an array; ValueError naming the field unless it is a float
    array of `shape`."""
    array = np.array(raw)
    if array.shape != shape or array.dtype.kind != "f":
        raise ValueError(f"{name} must be a float array of shape {shape}")
    return array


def _load_policies(cfg: ExperimentConfig, env) -> harness.PolicySet:
    """The policies in solution.json. ConfigError naming the file unless it
    was solved for the config and each policy in it is a feasible table for `env`."""
    path = _solution_path(cfg)
    if not path.exists():
        raise ConfigError(f"missing solution file {path}; run `nsmdp solve` first")
    with_momdp = "momdp" in cfg.policies.kinds
    try:
        sol = json.loads(path.read_text())
        if with_momdp and "momdp" not in sol:
            raise ValueError("no momdp policy (momdp was not in policies.kinds)")
        # solved for the config's model and discount, and a momdp policy for
        # its change prior and belief grid
        solved = {**sol.get("params", {}), "beta": sol.get("beta")}
        wanted = {**_model_params(cfg), "beta": cfg.run.beta}
        names = {"penalty": "inventory.shortage_penalty", "beta": "run.beta",
                 "rho": "change.rho", "grid_size": "policies.momdp_grid"}
        if with_momdp:
            solved |= {k: sol["momdp"].get(k) for k in ("rho", "grid_size")}
            wanted |= {"rho": cfg.change.rho, "grid_size": cfg.policies.momdp_grid}
        stale = [f"{names.get(k, 'inventory.' + k)} = {solved.get(k)} there, {v} in the config"
                 for k, v in wanted.items() if solved.get(k) != v]
        if stale:
            raise ValueError(f"solved for another model ({'; '.join(stale)})")
        if with_momdp and (isinstance(sol["momdp"]["grid_size"], bool)
                           or not isinstance(sol["momdp"]["grid_size"], int)):
            # 21.0 equals the config's 21, but no grid has that many points
            raise ValueError(f"momdp.grid_size must be an integer, got "
                             f"{sol['momdp']['grid_size']!r}")
        n, arrays, momdp = env.n_states, {}, None
        for name in POLICY_ARRAYS:
            if name.startswith("pi_"):
                arrays[name] = validate_policy(env.mdp_pre.feasible_mask(), np.array(sol[name]),
                                               (n,), name)
            else:
                arrays[name] = _float_array(sol[name], (n,), name)
        if with_momdp:
            m = sol["momdp"]
            shape = (n, m["grid_size"])
            momdp = MomdpSolution(
                pomdp=build_pomdp(env.mdp_pre, env.mdp_post, m["rho"]),
                grid=np.linspace(0.0, 1.0, m["grid_size"]),
                value=_float_array(m["value"], shape, "momdp.value"),
                policy=validate_policy(env.mdp_pre.feasible_mask(), np.array(m["policy"]),
                                       shape, "momdp.policy"))
    except KeyError as exc:
        raise ConfigError(f"{path}: field {exc} is missing; rerun `nsmdp solve`") from exc
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}; rerun `nsmdp solve`") from exc
    return harness.PolicySet(**arrays, momdp=momdp)


def _episode_setup(cfg: ExperimentConfig, env, policies, kind: str | tuple[str, ...],
                   nonbayes: bool = False, **thresholds) -> EpisodeSetup:
    """The config's setup for one policy kind, or a tuple of kinds. The
    non-Bayesian criteria (sweep, calibrate) run the Shiryaev statistic as
    its rho = 0 limit, SR."""
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

    # one grid search over the thresholded kinds unless A is fixed; on the
    # same runs the chosen cell's grid report is its rerun, bit for bit, and
    # keeps the grid's arrays alive
    by_kind = {}
    searched = tuple(k for k in cfg.policies.kinds if k in DETECTOR_KINDS)
    if searched and cfg.thresholds.a is None:
        setup = _episode_setup(cfg, env, policies, searched)
        choices = harness.optimize_thresholds(setup, a_grid, b_grid, n_runs=opt_runs,
                                              master_seed=seed)
        if opt_runs == n_runs:
            reports = [choice.report for choice in choices]
        else:
            # a choice's (A, B) is its effective pair, at which a loc or kl
            # cell equals the tt cell bit for bit: one tt call reruns them all
            a, b = np.array([(c.threshold_a, c.threshold_b) for c in choices]).T
            reports = [replace(report, policy=kind) for kind, report in zip(
                searched, harness.monte_carlo(replace(setup, policy_kind="tt", threshold_a=a,
                                                      threshold_b=b), n_runs, seed))]
        by_kind.update(zip(searched, reports))
    # every other kind in one engine call, at the fixed thresholds
    rest = tuple(kind for kind in cfg.policies.kinds if kind not in by_kind)
    if rest:
        setup = _episode_setup(cfg, env, policies, rest, threshold_a=fixed_a,
                               threshold_b=fixed_b)
        by_kind.update(zip(rest, harness.monte_carlo(setup, n_runs, seed)))
    reports = [by_kind[kind] for kind in cfg.policies.kinds]
    for r in reports:
        print(f"{r.policy:7s} mean_cost={r.mean_cost:.6g} stderr={r.stderr:.4g} "
              f"A={r.threshold_a:.6g} B={r.threshold_b:.6g}")

    harness.write_runs_csv(out_dir / "runs.csv", reports, cfg.run.horizon)
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
    kinds = tuple(kind for kind in cfg.policies.kinds if kind in DETECTOR_KINDS)
    if not kinds:
        raise ConfigError("sweep/calibrate need at least one of loc, kl, tt in policies.kinds")
    setup = _episode_setup(cfg, env, policies, kinds, nonbayes=True)
    rows = harness.frontier_sweep(setup, alphas, *_grids(cfg), n_runs=cfg.run.n_runs,
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


def cmd_calibrate(cfg: ExperimentConfig) -> int:
    if len(cfg.sweep.alphas) != 1:
        raise ConfigError("calibrate needs --alpha or exactly one sweep.alphas entry")
    for r in _frontier(cfg, cfg.sweep.alphas):
        tag = "" if r.feasible else "  [infeasible: best violating cell]"
        print(f"{r.policy:4s} A={r.threshold_a:.6g} B={r.threshold_b:.6g} "
              f"e1={r.e1_cost:.6g} einf={r.einf_cost:.6g}{tag}")
    return 0


def _read_trajectory(path: str, capacity: int) -> list[tuple[int, int, int]]:
    """Rows s,a,s_next of a trajectory file; each must be a feasible
    transition of the capacity-N inventory (0 <= s <= N, 0 <= a <= N - s and
    0 <= s_next <= s + a, as next stock is max(0, s + a - demand)), else the
    error names its line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            s, a, s_next = (int(x) for x in line.split(","))
            feasible = 0 <= s <= capacity and 0 <= a <= capacity - s and 0 <= s_next <= s + a
        except ValueError:
            feasible = False
        if not feasible:
            raise ValueError(f"{path}:{lineno}: expected integers s,a,s_next with "
                             f"0 <= s <= {capacity}, 0 <= a <= {capacity} - s and "
                             f"0 <= s_next <= s + a, got {line!r}")
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
        p.add_argument("--workers", dest="_workers", metavar="WORKERS",
                       help="accepted for compatibility; sets nothing")
        if name == "evaluate":
            p.add_argument("--assert-ordering", action="store_true",
                           help="fail unless oracle < tt < loc < random with "
                                "non-overlapping 95%% intervals")
        if name == "calibrate":
            p.add_argument("--alpha", dest="sweep.alphas",
                           help="one cap on the change-never cost; overrides sweep.alphas")
        if name == "info":
            p.add_argument("--trajectory", help="CSV file of s,a,s_next rows to trace")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built once per process: a parse keeps its
    results in a fresh namespace, never in the parser."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {key: getattr(args, key, None)
                                        for key in FLAGS.values()})
        commands = {"solve": lambda: cmd_solve(cfg),
                    "evaluate": lambda: cmd_evaluate(cfg, assert_ordering=args.assert_ordering),
                    "sweep": lambda: cmd_sweep(cfg),
                    "calibrate": lambda: cmd_calibrate(cfg),
                    "info": lambda: cmd_info(cfg, args.trajectory)}
        return commands[args.command]()
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, StateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

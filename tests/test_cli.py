"""End-to-end tests of the command-line interface."""

import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nsmdp import cli
from nsmdp.cli import CONFIG_KEYS, FLAGS, ConfigError, build_parser, load_config, main

# a valid value other than the default for every config key: (raw, parsed)
NON_DEFAULT = {
    "inventory.capacity": ("7", 7), "inventory.order_cost": ("2.5", 2.5),
    "inventory.holding_cost": ("4", 4.0), "inventory.shortage_penalty": ("90", 90.0),
    "inventory.demand_rate": ("1.5", 1.5), "inventory.uniform_max": ("5", 5),
    "change.kind": ("never", "never"), "change.rho": ("0.02", 0.02),
    "change.gamma": ("3", 3),
    "detector.kind": ("cusum", "cusum"), "detector.rho": ("0.2", 0.2),
    "detector.window": ("50", 50),
    "run.beta": ("0.9", 0.9), "run.horizon": ("30", 30), "run.n_runs": ("40", 40),
    "run.seed": ("9", 9), "run.initial_state": ("3", 3),
    "run.out_dir": ("elsewhere", Path("elsewhere")),
    "policies.kinds": ("tt, momdp", ("tt", "momdp")),
    "policies.momdp_grid": ("11", 11), "policies.momdp_tol": ("1e-4", 1e-4),
    "thresholds.a": ("5", 5.0), "thresholds.b": ("2", 2.0),
    "thresholds.a_grid": ("4", 4), "thresholds.a_min": ("3", 3.0),
    "thresholds.a_max": ("300", 300.0), "thresholds.b_grid": ("2", 2),
    "thresholds.opt_runs": ("10", 10),
    "sweep.alphas": ("1,2.5", (1.0, 2.5)),
}

# a value breaking the rule of every config key that has one: (raw, parsed)
VIOLATING = {
    "change.kind": ("sometimes", "sometimes"), "detector.kind": ("glr", "glr"),
    "run.beta": ("1", 1.0), "run.horizon": ("0", 0), "run.n_runs": ("0", 0),
    "run.seed": ("-1", -1), "policies.momdp_grid": ("1", 1),
    "policies.momdp_tol": ("0", 0.0), "thresholds.a_grid": ("0", 0),
    "thresholds.a_min": ("-2", -2.0), "thresholds.a_max": ("inf", math.inf),
    "thresholds.b_grid": ("-1", -1), "thresholds.opt_runs": ("-3", -3),
    "sweep.alphas": ("2,nan", (2.0, math.nan)),
}
KEY_FLAGS = {key: flag for flag, key in FLAGS.items()}


def write_config(path, *, capacity=4, penalty=60.0, horizon=60, n_runs=12,
                 kinds="oracle,loc,tt,random", a_grid=3, extra=""):
    path.write_text(f"""
[inventory]
capacity = {capacity}
order_cost = 1.0
holding_cost = 5.0
shortage_penalty = {penalty}
demand_rate = 2.0

[change]
kind = geometric
rho = 0.05

[detector]
kind = shiryaev
rho = 0.05

[run]
beta = 0.95
horizon = {horizon}
n_runs = {n_runs}
seed = 0

[policies]
kinds = {kinds}

[thresholds]
a_grid = {a_grid}
a_min = 2.0
a_max = 200.0
b_grid = 2
{extra}
""")
    return path


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path / "exp.ini"), tmp_path / "out"


class TestSolve:
    def test_writes_models_and_solution(self, config, capsys):
        cfg, out = config
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "models.json").exists()
        assert (out / "solution.json").exists()
        sol = json.loads((out / "solution.json").read_text())
        assert sol["info_max"] >= sol["info_pre"] - 1e-12
        assert "I_max" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, config):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        first = (out / "solution.json").read_bytes()
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        assert (out / "solution.json").read_bytes() == first

    def test_coinciding_regimes_report_zero_information(self, tmp_path, capsys):
        # capacity 1 with e^-lambda = 1/(u_max+1) makes both kernels identical
        cfg = tmp_path / "degenerate.ini"
        cfg.write_text(f"""
[inventory]
capacity = 1
demand_rate = {math.log(2)}
uniform_max = 1
""")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        sol = json.loads((out / "solution.json").read_text())
        assert abs(sol["info_max"]) <= 1e-9
        assert abs(sol["info_pre"]) <= 1e-12


def json_reference(obj) -> bytes:
    """The bytes json.dumps writes for `obj` with every array as its list."""
    def lists(value):
        if isinstance(value, dict):
            return {key: lists(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return (json.dumps(lists(obj), sort_keys=True, indent=1) + "\n").encode()


FLOAT_EDGES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1]
# few distinct values, each repeated: the writer formats each distinct value
# once, and 0.0 == -0.0 while NaN != NaN, so neither may decide what is distinct
FEW_DISTINCT = np.random.default_rng(0).choice(
    np.array(FLOAT_EDGES[:5] + [np.copysign(math.nan, -1.0)]), size=(4, 5, 6))


class TestJsonWriter:
    @pytest.mark.parametrize("array", [
        np.array(FLOAT_EDGES), np.array(FLOAT_EDGES).reshape(2, 4),
        np.array(FLOAT_EDGES * 3).reshape(2, 3, 4), np.arange(-6, 6).reshape(3, 2, 2),
        np.arange(5), np.array([[True, False], [False, True]]), np.ones((1, 1, 1), bool),
        np.zeros(0), np.zeros((3, 0)), np.zeros((2, 0, 1), int), np.array(2.5),
        FEW_DISTINCT, -FEW_DISTINCT[0], FEW_DISTINCT.ravel()[:40]],
        ids=lambda a: f"{a.dtype}{a.shape}")
    def test_array_bytes_equal_json_of_its_list(self, tmp_path, array):
        for obj in (array, {"b": array, "a": {"z": array, "y": [1, None]}, "c": {}}):
            cli._json_dump(obj, tmp_path / "x.json")
            assert (tmp_path / "x.json").read_bytes() == json_reference(obj)

    @settings(max_examples=80, deadline=None)
    @given(array=hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
                            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)),
           depth=st.integers(0, 3))
    def test_random_arrays_at_any_depth(self, tmp_path_factory, array, depth):
        obj = array
        for _ in range(depth):
            obj = {"k": obj, "j": 1.5}
        path = tmp_path_factory.mktemp("json") / "x.json"
        cli._json_dump(obj, path)
        assert path.read_bytes() == json_reference(obj)

    def test_solve_files_equal_json_of_their_lists(self, tmp_path):
        # the protocol instance, N=20 and p=100, with every policy kind and G=201
        with mock.patch.object(cli, "_json_dump", wraps=cli._json_dump) as dump:
            assert main(["solve", "--out-dir", str(tmp_path),
                         "--policies", "oracle,loc,kl,tt,random,momdp"]) == 0
        written = {call.args[1].name: call.args[0] for call in dump.call_args_list}
        assert sorted(written) == ["models.json", "solution.json"]
        assert written["models.json"]["pre"]["kernel"].shape == (21, 21, 21)
        assert written["solution.json"]["momdp"]["policy"].shape == (21, 201)
        for name, obj in written.items():
            assert (tmp_path / name).read_bytes() == json_reference(obj)


class TestEvaluate:
    def test_missing_solution_instructs_solve(self, config, capsys):
        cfg, out = config
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 1
        assert "solve" in capsys.readouterr().err

    @pytest.mark.parametrize("key, solved, evaluated", [
        ("inventory.capacity", "capacity = 6", "capacity = 3"),
        ("inventory.capacity", "capacity = 6", "capacity = 12"),
        ("run.beta", "beta = 0.95", "beta = 0.9"),
    ])
    def test_stale_solution_file_rejected(self, tmp_path, capsys, key, solved, evaluated):
        cfg, out = write_config(tmp_path / "exp.ini", capacity=6), tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        cfg.write_text(cfg.read_text().replace(solved, evaluated))
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert key in err and "nsmdp solve" in err
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("rho, grid, keys", [
        ("0.2", 21, ["change.rho"]),
        ("0.05", 41, ["policies.momdp_grid"]),
        ("0.2", 41, ["change.rho", "policies.momdp_grid"]),
    ])
    def test_momdp_solved_for_another_prior_or_grid_rejected(self, tmp_path, capsys,
                                                              rho, grid, keys):
        def config(rho, grid):
            cfg = write_config(tmp_path / "exp.ini", kinds="momdp", n_runs=6)
            cfg.write_text(cfg.read_text()
                           .replace("[change]\nkind = geometric\nrho = 0.05\n",
                                    f"[change]\nkind = geometric\nrho = {rho}\n")
                           .replace("[policies]\n", f"[policies]\nmomdp_grid = {grid}\n"))
            return str(cfg)

        out = tmp_path / "out"
        assert main(["solve", "--config", config("0.05", 21), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--config", config(rho, grid), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert all(key in err for key in keys) and "nsmdp solve" in err
        assert not (out / "summary.csv").exists()

    def test_repeated_policy_kind_rejected(self, config, capsys):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
                     "--policies", "oracle,oracle"])
        assert code == 1
        assert "policies.kinds" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()

    def test_single_policy_summary(self, config):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
                     "--policies", "oracle"])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("oracle,12,")
        runs = (out / "runs.csv").read_text().strip().splitlines()
        assert len(runs) == 13

    def test_same_seed_reruns_identical(self, config):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        args = ["evaluate", "--config", str(cfg), "--out-dir", str(out), "--seed", "7"]
        main(args)
        first = ((out / "runs.csv").read_bytes(), (out / "summary.csv").read_bytes())
        main(args)
        assert ((out / "runs.csv").read_bytes(),
                (out / "summary.csv").read_bytes()) == first

    @pytest.mark.parametrize("flags, extra, n_calls", [
        # every kind in one engine call at fixed thresholds
        (["--a", "5", "--b", "2"], "", 1),
        # one call for the loc, kl and tt grids, whose chosen reports are
        # reused, and one for oracle and random together
        ([], "", 2),
        # with fewer runs per grid cell, one more call reruns every chosen cell
        ([], "opt_runs = 6", 3),
        # ... where kl's chosen cells are (A, -inf)
        (["--detector", "cusum"], "opt_runs = 6", 3)])
    def test_engine_calls(self, tmp_path, flags, extra, n_calls):
        # an instance whose probe policy differs from pi_pre, and grids of
        # values that print exactly (A in {2, 200}, B in {0, 2, 200}), so
        # that summary.csv's A and B rerun the chosen cells exactly
        kinds = ["oracle", "loc", "kl", "tt", "random"]
        cfg = write_config(tmp_path / "exp.ini", capacity=8, penalty=100.0,
                           kinds=",".join(kinds), a_grid=2, extra=extra)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        evaluate = ["evaluate", "--config", str(cfg), "--out-dir", str(out), *flags]
        with mock.patch.object(cli.harness, "simulate_batch",
                               wraps=cli.harness.simulate_batch) as calls:
            assert main(evaluate) == 0
        assert calls.call_count == n_calls
        joint = {name: (out / name).read_bytes() for name in ("runs.csv", "summary.csv")}
        # the same bytes as each kind run alone at its reported thresholds
        alone = {}
        for row in joint["summary.csv"].decode().splitlines()[1:]:
            kind, *_, a, b, _ = row.split(",")
            fixed = [] if a == "inf" else ["--a", a, *(["--b", b] if kind == "tt" else [])]
            assert main([*evaluate, "--policies", kind, *fixed]) == 0
            alone[kind] = {name: (out / name).read_bytes().splitlines(keepends=True)
                           for name in joint}
        for name, order in (("runs.csv", sorted(kinds)), ("summary.csv", kinds)):
            rows = [row for kind in order for row in alone[kind][name][1:]]
            assert joint[name] == b"".join([alone["oracle"][name][0], *rows])
        # the instance tells loc, kl and tt apart (cusum's grid picks tt = loc)
        costs = {row.split(",")[0]: row.split(",")[2]
                 for row in joint["summary.csv"].decode().splitlines()[1:]}
        assert len({costs[kind] for kind in ("loc", "kl", "tt")}) == (
            2 if "cusum" in flags else 3)

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", n_runs=600, horizon=40,
                           kinds="tt")
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
              "--workers", "1"])
        first = (out / "runs.csv").read_bytes()
        main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
              "--workers", "3"])
        assert (out / "runs.csv").read_bytes() == first

    def test_assert_ordering_needs_all_baselines(self, config, capsys):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
                     "--policies", "oracle,loc", "--assert-ordering"])
        assert code == 1

    @pytest.mark.parametrize("damage, field", [
        (lambda sol: sol.pop("pi_probe"), "pi_probe"),
        (lambda sol: sol["pi_pre"].__setitem__(0, 9), "pi_pre"),
        (lambda sol: sol.__setitem__("pi_post", sol["pi_post"][:3]), "pi_post"),
        (None, None),
    ], ids=["missing", "infeasible", "short", "truncated"])
    def test_damaged_solution_file_rejected(self, config, capsys, damage, field):
        cfg, out = config
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        path = out / "solution.json"
        if damage is None:
            path.write_text(path.read_text()[:40])
        else:
            sol = json.loads(path.read_text())
            damage(sol)
            path.write_text(json.dumps(sol))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "solution.json" in captured.err and "nsmdp solve" in captured.err
        assert field is None or field in captured.err
        assert not (out / "runs.csv").exists()

    @pytest.mark.parametrize("damage", [
        lambda value: [["x"] * len(row) for row in value],     # strings, the right shape
        lambda value: value[:-1],                               # a row short
        lambda value: np.rint(value).astype(int).tolist(),      # integers, the right shape
    ], ids=["strings", "short", "ints"])
    def test_damaged_momdp_value_rejected(self, tmp_path, capsys, damage):
        cfg = write_config(tmp_path / "exp.ini", kinds="oracle,momdp", n_runs=6)
        cfg.write_text(cfg.read_text().replace("[policies]\n", "[policies]\nmomdp_grid = 21\n"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        path = out / "solution.json"
        sol = json.loads(path.read_text())
        sol["momdp"]["value"] = damage(sol["momdp"]["value"])
        path.write_text(json.dumps(sol))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "solution.json" in captured.err and "momdp.value" in captured.err
        assert not (out / "runs.csv").exists()

    def test_float_momdp_grid_size_rejected(self, tmp_path, capsys):
        # 21.0 equals the config's momdp_grid, so only the type check rejects it
        cfg = write_config(tmp_path / "exp.ini", kinds="oracle,momdp", n_runs=6)
        cfg.write_text(cfg.read_text().replace("[policies]\n", "[policies]\nmomdp_grid = 21\n"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        path = out / "solution.json"
        path.write_text(path.read_text().replace('"grid_size": 21', '"grid_size": 21.0'))
        assert json.loads(path.read_text())["momdp"]["grid_size"] == 21.0
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "solution.json" in captured.err and "momdp.grid_size" in captured.err
        assert not (out / "runs.csv").exists()

    def test_momdp_policy_round_trips_through_solution_file(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", kinds="momdp", n_runs=6)
        cfg.write_text(cfg.read_text().replace(
            "[policies]\n", "[policies]\nmomdp_grid = 41\nmomdp_tol = 1e-5\n"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[1].startswith("momdp,6,")


class TestSweepAndCalibrate:
    def test_empty_alphas_is_usage_error(self, config, capsys):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "alphas" in capsys.readouterr().err

    def test_single_cell_sweep_echoes_cell(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", kinds="loc", n_runs=8,
                           horizon=40,
                           extra="a = \n")
        # restrict the grid to one cell
        text = cfg.read_text().replace("a_grid = 3", "a_grid = 1")
        text = text.replace("a_min = 2.0", "a_min = 17.0")
        text = text.replace("a_max = 200.0", "a_max = 17.0")
        cfg.write_text(text)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                     "--alphas", "1e9"])
        assert code == 0
        row = (out / "frontier.csv").read_text().strip().splitlines()[1]
        fields = row.split(",")
        assert fields[1] == "loc" and float(fields[2]) == 17.0

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--alphas", "5,-1"]), ("sweep", ["--alphas", "nan"]),
        ("calibrate", ["--alpha", "-1"]), ("calibrate", ["--alpha", "nan"]),
        ("calibrate", ["--alpha", "inf"])])
    def test_cap_breaking_its_rule_is_config_error(self, config, capsys, command, flags):
        cfg, out = config
        assert main([command, "--config", str(cfg), "--out-dir", str(out), *flags]) == 1
        assert "sweep.alphas must be finite and >= 0, got (" in capsys.readouterr().err
        assert not out.exists()

    def test_file_cap_breaking_its_rule_is_config_error(self, config, capsys):
        cfg, out = config
        cfg.write_text(cfg.read_text() + "\n[sweep]\nalphas = 3, -0.5\n")
        assert main(["calibrate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "sweep.alphas must be finite and >= 0, got (3.0, -0.5)" in capsys.readouterr().err

    def test_calibrate_single_alpha(self, tmp_path):
        # an instance whose probe policy differs from pi_pre
        cfg = write_config(tmp_path / "exp.ini", capacity=8, penalty=100.0)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["calibrate", "--config", str(cfg), "--out-dir", str(out),
                     "--alpha", "1e9", "--policies", "loc,tt", "--n-runs", "8"])
        assert code == 0
        lines = (out / "frontier.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        # loc's cell (2, 2) and tt's (2, 0) differ in cost
        assert lines[1].split(",")[4] != lines[2].split(",")[4]


class TestInfo:
    def test_simulated_trace(self, config, capsys):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["info", "--config", str(cfg), "--out-dir", str(out),
                     "--horizon", "10", "--a", "50", "--b", "2"])
        assert code == 0
        out_text = capsys.readouterr().out
        assert "k,s,a,w,cost,statistic,phase" in out_text
        assert len(out_text.strip().splitlines()) >= 12

    def test_scripted_trajectory_trace(self, config, tmp_path, capsys):
        cfg, out = config
        traj = tmp_path / "traj.csv"
        traj.write_text("0,2,1\n1,1,0\n0,2,2\n")
        code = main(["info", "--config", str(cfg), "--trajectory", str(traj)])
        assert code == 0
        out_text = capsys.readouterr().out
        assert out_text.startswith("n,s,a,s_next,log_stat")
        assert len(out_text.strip().splitlines()) == 4

    @pytest.mark.parametrize("row", ["0,9,1", "5,3,1", "0,1,6", "-1,0,0",
                                     "1,2", "1,x,0", "0,0,3", "2,1,4"])
    def test_bad_trajectory_row_names_its_line(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path / "exp.ini", capacity=5)
        traj = tmp_path / "traj.csv"
        traj.write_text(f"# s,a,s_next\n0,2,1\n{row}\n")
        code = main(["info", "--config", str(cfg), "--trajectory", str(traj)])
        assert code == 2
        captured = capsys.readouterr()
        assert "traj.csv:3:" in captured.err
        assert captured.out == ""


class TestConfigValidation:
    def test_bad_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nbeta = 1.5\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "run.beta" in capsys.readouterr().err

    def test_unknown_policy_kind(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[policies]\nkinds = oracle,sneaky\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "sneaky" in capsys.readouterr().err

    @pytest.mark.parametrize("initial_state", [-1, 6, 9])
    def test_initial_state_outside_stock_range(self, tmp_path, capsys, initial_state):
        cfg = write_config(tmp_path / "exp.ini", capacity=5)
        cfg.write_text(cfg.read_text().replace(
            "seed = 0", f"seed = 0\ninitial_state = {initial_state}"))
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "run.initial_state" in capsys.readouterr().err

    def test_cusum_window_must_be_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini", capacity=5)
        cfg.write_text(cfg.read_text().replace("kind = shiryaev", "kind = cusum\nwindow = 0"))
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "detector.window" in capsys.readouterr().err

    def test_a_without_b_is_config_error_with_tt(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini", extra="a = 50\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        for command in ("evaluate", "info"):
            code = main([command, "--config", str(cfg), "--out-dir", str(out)])
            assert code == 1
            assert "thresholds.b" in capsys.readouterr().err
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out),
                     "--policies", "oracle,loc"])
        assert code == 0

    @pytest.mark.parametrize("kinds", ["oracle,loc", "oracle,momdp"])
    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_momdp_grid_below_two(self, tmp_path, capsys, kinds, grid):
        cfg = write_config(tmp_path / "exp.ini", capacity=3, kinds=kinds)
        cfg.write_text(cfg.read_text().replace(
            "[policies]\n", f"[policies]\nmomdp_grid = {grid}\n"))
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "policies.momdp_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_momdp_tol_positive_and_finite(self, tmp_path, capsys, tol):
        # rejected at entry even when no belief grid would be solved
        cfg = write_config(tmp_path / "exp.ini", capacity=3, kinds="oracle")
        cfg.write_text(cfg.read_text().replace(
            "[policies]\n", f"[policies]\nmomdp_tol = {tol}\n"))
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "policies.momdp_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("a_min", "0"), ("a_min", "-2"),
                                            ("a_max", "inf"), ("a_max", "nan"),
                                            ("a_grid", "0"), ("b_grid", "-2"),
                                            ("opt_runs", "-3")])
    def test_grid_keys_range_checked(self, tmp_path, capsys, key, value):
        good = write_config(tmp_path / "good.ini")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(good), "--out-dir", str(out)]) == 0
        bad = tmp_path / "bad.ini"
        bad.write_text(re.sub(rf"^{key} = .*\n", "", good.read_text(), flags=re.M)
                       .replace("[thresholds]\n", f"[thresholds]\n{key} = {value}\n"))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(bad), "--out-dir", str(out)]) == 1
        assert f"thresholds.{key}" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()
        fresh = tmp_path / "fresh"
        assert main(["solve", "--config", str(bad), "--out-dir", str(fresh)]) == 1
        assert not fresh.exists()

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1

    @pytest.mark.parametrize("text", [b"[run]\nseed = 1\nseed = 2\n",
                                      b"[run]\nseed = 1\n[run]\nhorizon = 3\n",
                                      b"seed = 1\n[run]\n", b"[run]\nseed\n",
                                      b"[run]\nseed = \xff\n", None],
                             ids=["duplicate-key", "duplicate-section", "no-section",
                                  "no-equals", "not-utf8", "directory"])
    def test_unreadable_config_file(self, tmp_path, capsys, text):
        # configparser's own errors, and a path it would skip silently
        cfg = tmp_path / "bad.ini"
        cfg.mkdir() if text is None else cfg.write_bytes(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        text = text[text.index("[inventory]"):]
        blocks = dict(zip(re.findall(r"\[(\w+)\]", text), re.split(r"\[\w+\]", text)[1:]))
        for section, key, _, default, help_text, rule in CONFIG_KEYS:
            rule_text = f", must be {rule[1]}" if rule else ""
            assert f" {key} {help_text}{rule_text} ({default or 'unset'})" in blocks[section]

    @pytest.mark.parametrize("text, name", [("[run]\nbta = 0.5\n", "run.bta"),
                                            ("[thresholds]\nmomdp_grid = 41\n",
                                             "thresholds.momdp_grid"),
                                            ("[runs]\nseed = 3\n", "runs.seed"),
                                            ("[DEFAULT]\nhorizon = 7\n[run]\n",
                                             "DEFAULT.horizon"),
                                            ("[run]\nworkers = 2\n", "run.workers")])
    def test_unknown_key_or_section(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, field, value", [
        ("demand_rate", "demand_rate", "inf"), ("demand_rate", "demand_rate", "nan"),
        ("holding_cost", "holding_cost", "inf"), ("order_cost", "order_cost", "nan"),
        ("shortage_penalty", "penalty", "-inf")])
    def test_non_finite_inventory_value(self, tmp_path, capsys, key, field, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[inventory]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        rule = "positive and finite" if field == "demand_rate" else "finite and non-negative"
        assert capsys.readouterr().err == (f"config error: inventory.*: {field} must be "
                                           f"{rule}, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("capacity", "True"), ("capacity", "2.0"),
                                            ("uniform_max", "2.5")])
    def test_non_integer_inventory_size(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[inventory]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"config error: inventory.{key}: cannot parse {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, name", [
        (["--policies", "tt", "--a", "1", "--b", "50"], 1, "thresholds.b"),
        (["--a", "nan", "--b", "1"], 1, "thresholds.a"),
        (["--a", "5", "--b", "nan"], 1, "thresholds.b"),
        (["--a", "5", "--b", "-1"], 1, "thresholds.b"),
        (["--detector", "sr", "--a", "-5", "--b", "-6"], 1, "thresholds.a"),
        (["--detector", "cusum", "--a", "-1", "--b", "-2"], 0, None),
    ])
    def test_thresholds_checked_at_entry(self, tmp_path, capsys, flags, code, name):
        cfg = write_config(tmp_path / "exp.ini")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out-dir", str(out), *flags]) == code
        if name is not None:
            assert name in capsys.readouterr().err


class TestConfigRules:
    @pytest.mark.parametrize("name, source", [
        (name, source) for name in VIOLATING
        for source in ("file", "flag") if source == "file" or name in KEY_FLAGS])
    def test_violating_value_rejected(self, tmp_path, capsys, name, source):
        section, key = name.split(".")
        raw, value = VIOLATING[name]
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n" if source == "file" else "")
        flags = [KEY_FLAGS[name], raw] if source == "flag" else []
        out = tmp_path / "out"
        # sweep, the one command that takes every flag
        assert main(["sweep", "--config", str(path), "--out-dir", str(out), *flags]) == 1
        phrase = next(row[5][1] for row in CONFIG_KEYS if row[:2] == (section, key))
        assert f"{name} must be {phrase}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigTable:
    def test_every_key_has_a_test_value(self):
        assert list(NON_DEFAULT) == [f"{s}.{k}" for s, k, *_ in CONFIG_KEYS]
        assert list(VIOLATING) == [f"{s}.{k}" for s, k, *_, rule in CONFIG_KEYS if rule]
        for section, key, cast, default, _, rule in CONFIG_KEYS:
            assert default is None or cast(default) != NON_DEFAULT[f"{section}.{key}"][1]
            if rule is not None:
                test, _ = rule
                assert test(cast(default)) and test(NON_DEFAULT[f"{section}.{key}"][1])
                assert not test(VIOLATING[f"{section}.{key}"][1])

    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_file_value_reaches_config(self, tmp_path, name):
        section, key = name.split(".")
        raw, value = NON_DEFAULT[name]
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        cfg = load_config(str(path), {})
        assert getattr(getattr(cfg, section), key) == value
        if section == "inventory":
            assert getattr(cfg.params, "penalty" if key == "shortage_penalty" else key) == value

    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_flag_overrides_file_value(self, tmp_path, flag):
        section, key = FLAGS[flag].split(".")
        raw, value = NON_DEFAULT[FLAGS[flag]]
        default = next(row[3] for row in CONFIG_KEYS if row[:2] == (section, key))
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = {default or ''}\n")
        args = build_parser().parse_args(["sweep", "--config", str(path), flag, raw])
        cfg = load_config(args.config, {k: getattr(args, k) for k in FLAGS.values()})
        assert getattr(getattr(cfg, section), key) == value


class TestParser:
    def test_main_builds_the_parser_once_and_parses_each_call_afresh(self):
        # every call's flag overrides, read where main hands them to load_config
        seen = []

        def stop(path, overrides):
            seen.append((path, overrides))
            raise ConfigError("stop")

        cli._parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=build_parser) as built, \
                mock.patch.object(cli, "load_config", side_effect=stop):
            assert main(["evaluate", "--config", "a.ini", "--horizon", "30",
                         "--policies", "tt", "--assert-ordering"]) == 1
            assert main(["sweep", "--seed", "4", "--alphas", "1,2"]) == 1
        assert built.call_count == 1
        assert seen[0][0] == "a.ini" and seen[1][0] is None
        assert seen[0][1] == dict.fromkeys(FLAGS.values()) | {
            "run.horizon": "30", "policies.kinds": "tt"}
        assert seen[1][1] == dict.fromkeys(FLAGS.values()) | {
            "run.seed": "4", "sweep.alphas": "1,2"}

    @pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"], ["calibrate", "--help"]])
    def test_help_is_that_of_a_fresh_parser(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        fresh = capsys.readouterr().out
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            assert capsys.readouterr().out == fresh

"""End-to-end tests of the command-line interface."""

import json
import math
import re
from pathlib import Path

import pytest

from nsmdp.cli import CONFIG_KEYS, FLAGS, build_parser, load_config, main

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
    "run.seed": ("9", 9), "run.initial_state": ("3", 3), "run.workers": ("3", 3),
    "run.out_dir": ("elsewhere", Path("elsewhere")),
    "policies.kinds": ("tt, momdp", ("tt", "momdp")),
    "policies.momdp_grid": ("11", 11), "policies.momdp_tol": ("1e-4", 1e-4),
    "thresholds.a": ("5", 5.0), "thresholds.b": ("2", 2.0),
    "thresholds.a_grid": ("4", 4), "thresholds.a_min": ("3", 3.0),
    "thresholds.a_max": ("300", 300.0), "thresholds.b_grid": ("2", 2),
    "thresholds.opt_runs": ("10", 10),
    "sweep.alphas": ("1,2.5", (1.0, 2.5)),
}


def write_config(path, *, capacity=4, penalty=60.0, horizon=60, n_runs=12,
                 kinds="oracle,loc,tt,random", extra=""):
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
a_grid = 3
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


class TestEvaluate:
    def test_missing_solution_instructs_solve(self, config, capsys):
        cfg, out = config
        code = main(["evaluate", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 1
        assert "solve" in capsys.readouterr().err

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

    def test_calibrate_single_alpha(self, config):
        cfg, out = config
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        code = main(["calibrate", "--config", str(cfg), "--out-dir", str(out),
                     "--alpha", "1e9", "--policies", "loc,tt", "--n-runs", "8"])
        assert code == 0
        lines = (out / "frontier.csv").read_text().strip().splitlines()
        assert len(lines) == 3


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
                                     "1,2", "1,x,0"])
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

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        text = text[text.index("[inventory]"):]
        blocks = dict(zip(re.findall(r"\[(\w+)\]", text), re.split(r"\[\w+\]", text)[1:]))
        for section, key, _, default, help_text in CONFIG_KEYS:
            assert f" {key} {help_text} ({default or 'unset'})" in blocks[section]

    @pytest.mark.parametrize("text, name", [("[run]\nbta = 0.5\n", "run.bta"),
                                            ("[thresholds]\nmomdp_grid = 41\n",
                                             "thresholds.momdp_grid"),
                                            ("[runs]\nseed = 3\n", "runs.seed"),
                                            ("[DEFAULT]\nhorizon = 7\n[run]\n",
                                             "DEFAULT.horizon")])
    def test_unknown_key_or_section(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert name in capsys.readouterr().err
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


class TestConfigTable:
    def test_every_key_has_a_test_value(self):
        assert list(NON_DEFAULT) == [f"{s}.{k}" for s, k, *_ in CONFIG_KEYS]
        for section, key, cast, default, _ in CONFIG_KEYS:
            assert default is None or cast(default) != NON_DEFAULT[f"{section}.{key}"][1]

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

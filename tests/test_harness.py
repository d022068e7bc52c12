"""Tests for the Monte Carlo harness: determinism, episode accounting,
threshold optimization, calibration, and the CSV surfaces."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nsmdp.controllers import SwitchController
from nsmdp.detectors import Detector, DetectorConfig
from nsmdp.engine import draw_episode_randomness, simulate_batch
from nsmdp.harness import (CHUNK_SIZE, CUSUM_ROWS, ROW_BUDGET, calibrate_nonbayes,
                           default_a_grid, default_b_grid,
                           delay_profile, estimate_nonbayes_grid,
                           calibrate_from_grid, frontier_sweep, make_setup,
                           monte_carlo, optimize_thresholds, solve_policies,
                           threshold_cells, write_frontier_csv, write_runs_csv,
                           write_summary_csv)
from nsmdp.inventory import ChangeSpec, demand_from_uniform
from nsmdp.mdp import info_number

from util import finite_horizon_policy_value

CHANGE = ChangeSpec(kind="geometric", rho=0.05)


class _Uniforms:
    """Hands out a run's pre-drawn action uniforms in order, as `random()`."""

    def __init__(self, block):
        self._values = iter(block)

    def random(self):
        return float(next(self._values))


def small_setup(env, policies, kind, horizon=200, beta=0.95, a=50.0, b=3.0,
                change=CHANGE, detector="shiryaev"):
    rho = 0.05 if detector == "shiryaev" else 0.0
    return make_setup(env, policies, kind, change, horizon, beta,
                      detector_kind=detector, detector_rho=rho,
                      threshold_a=a, threshold_b=b)


class TestDeterminism:
    def test_same_seed_same_report(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt")
        r1 = monte_carlo(setup, 64, master_seed=11)
        r2 = monte_carlo(setup, 64, master_seed=11)
        assert r1.mean_cost == r2.mean_cost
        assert [x.discounted_cost for x in r1.runs] == \
               [x.discounted_cost for x in r2.runs]

    def test_single_run_report_equals_record(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc")
        report = monte_carlo(setup, 1, master_seed=9)
        assert report.mean_cost == report.runs[0].discounted_cost
        assert report.stderr == 0.0

    def test_runs_are_order_independent(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "oracle")
        full = simulate_batch(setup, 5, np.arange(10))
        subset = simulate_batch(setup, 5, np.array([7]))
        assert full.discounted_cost[7] == subset.discounted_cost[0]
        assert full.gamma[7] == subset.gamma[0]


class TestEpisodeAccounting:
    def test_zero_discount_counts_first_step_only(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "oracle", beta=0.0,
                            change=ChangeSpec(kind="never"))
        report = monte_carlo(setup, 4, master_seed=2)
        expected = small_env.mdp_pre.cost[0, small_policies.pi_pre[0]]
        for rec in report.runs:
            assert rec.discounted_cost == pytest.approx(expected, abs=1e-12)

    def test_never_change_loc_with_infinite_threshold_is_pure_pre_policy(
            self, small_env, small_policies):
        never = ChangeSpec(kind="never")
        loc = small_setup(small_env, small_policies, "loc", a=math.inf, change=never)
        oracle = small_setup(small_env, small_policies, "oracle", change=never)
        r_loc = monte_carlo(loc, 32, master_seed=4)
        r_oracle = monte_carlo(oracle, 32, master_seed=4)
        assert r_loc.mean_cost == r_oracle.mean_cost
        assert all(r.tau_switch is None for r in r_loc.runs)

    def test_change_at_one_oracle_mean_matches_backward_induction(
            self, small_env, small_policies):
        horizon, beta = 300, 0.95
        setup = make_setup(small_env, small_policies, "oracle",
                           ChangeSpec(kind="fixed", gamma=1), horizon, beta)
        report = monte_carlo(setup, 3000, master_seed=8)
        expected = finite_horizon_policy_value(
            small_env.mdp_post, small_policies.pi_post, beta, horizon, s0=0)
        tail = beta ** horizon * small_env.mdp_post.cost.max() / (1 - beta)
        assert abs(report.mean_cost - expected) <= 4 * report.stderr + tail

    def test_detection_delay_and_premature_flags(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc", a=20.0,
                            change=ChangeSpec(kind="fixed", gamma=40))
        report = monte_carlo(setup, 50, master_seed=21)
        for rec in report.runs:
            if rec.tau_switch is None:
                assert rec.detection_delay is None and not rec.premature_switch
            elif rec.tau_switch < 40:
                assert rec.premature_switch and rec.detection_delay == 0.0
            else:
                assert rec.detection_delay == rec.tau_switch - 40

    def test_object_path_matches_engine(self, small_env, small_policies):
        """Replay each traced engine run through a SwitchController: the
        controller, fed the run's (s, a, s') path and action uniforms, must
        choose the engine's action at every step and switch at its tau."""
        env, ps = small_env, small_policies
        horizon = 200
        for kind, a, b in (("oracle", math.inf, 0.0), ("random", math.inf, 0.0),
                           ("loc", 50.0, 0.0), ("kl", 50.0, 0.0), ("tt", 50.0, 3.0)):
            for seed in (0, 1, 2):
                setup = small_setup(env, ps, kind, horizon=horizon, a=a, b=b)
                batch = simulate_batch(setup, seed, np.array([0]), trace=True)
                states = batch.trace["state"][0].astype(int)
                actions = batch.trace["action"][0].astype(int)
                if kind == "oracle":
                    ctrl = SwitchController(
                        "oracle", pi_pre=ps.pi_pre, pi_post=ps.pi_post,
                        oracle_switch_time=max(batch.gamma[0] - 1.0, 0.0))
                elif kind == "random":
                    ctrl = SwitchController("random", feasible=env.mdp_pre.feasible)
                else:
                    det = Detector(DetectorConfig(kind="shiryaev", threshold=a,
                                                  rho=0.05),
                                   env.mdp_pre.kernel, env.mdp_post.kernel)
                    ctrl = SwitchController(kind, pi_pre=ps.pi_pre,
                                            pi_probe=ps.pi_probe,
                                            pi_post=ps.pi_post, detector=det,
                                            threshold_a=a, threshold_b=b)
                _, _, action_u = draw_episode_randomness(CHANGE, horizon, seed,
                                                         np.array([0]))
                uniforms = _Uniforms(action_u[0])
                for k in range(horizon):
                    feedback = ((states[k - 1], actions[k - 1], states[k])
                                if k >= 1 else None)
                    assert ctrl.step(states[k], feedback, k, uniforms) == actions[k]
                tau = int(batch.tau[0]) if batch.tau[0] >= 0 else None
                assert ctrl.tau_switch == tau

    def test_setup_rejects_bad_initial_state_and_window(self, small_env, small_policies):
        for initial_state in (-1, small_env.n_states):
            with pytest.raises(ValueError, match="initial_state"):
                make_setup(small_env, small_policies, "loc", CHANGE, 10, 0.95,
                           initial_state=initial_state)
        with pytest.raises(ValueError, match="window"):
            make_setup(small_env, small_policies, "loc", CHANGE, 10, 0.95,
                       detector_kind="cusum", window=0)

    def test_oracle_lower_bound(self, small_env, small_policies):
        reports = {}
        for kind in ("oracle", "loc", "tt", "random"):
            setup = small_setup(small_env, small_policies, kind, a=30.0, b=3.0)
            reports[kind] = monte_carlo(setup, 400, master_seed=13)
        oracle = reports["oracle"]
        for kind in ("loc", "tt", "random"):
            other = reports[kind]
            assert oracle.mean_cost <= other.mean_cost + 2 * (oracle.stderr + other.stderr)


class TestThresholdOptimization:
    def test_singleton_grid_echoed(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc")
        choice = optimize_thresholds(setup, a_grid=[25.0], n_runs=16, master_seed=1)
        assert choice.threshold_a == 25.0 and choice.threshold_b == 25.0

    def test_loc_grid_is_diagonal(self):
        cells = threshold_cells("loc", [1.0, 10.0])
        assert cells == [(1.0, 1.0), (10.0, 10.0)]

    def test_tt_grid_contains_diagonal_and_floor(self):
        cells = threshold_cells("tt", [1.0, 10.0], [0.0, 5.0])
        assert (1.0, 1.0) in cells and (10.0, 10.0) in cells
        assert (1.0, 0.0) in cells and (10.0, 5.0) in cells
        assert all(b <= a for a, b in cells)

    def test_empty_grid_rejected(self, small_env, small_policies):
        with pytest.raises(ValueError):
            threshold_cells("loc", [])

    def test_tt_never_worse_than_loc_on_same_seeds(self, small_env, small_policies):
        a_grid = [5.0, 50.0, 500.0]
        b_grid = [0.0, 2.0, 20.0]
        loc = optimize_thresholds(small_setup(small_env, small_policies, "loc"),
                                  a_grid, n_runs=200, master_seed=5)
        tt = optimize_thresholds(small_setup(small_env, small_policies, "tt"),
                                 a_grid, b_grid, n_runs=200, master_seed=5)
        assert tt.report.mean_cost <= loc.report.mean_cost

    def test_tie_break_prefers_smallest_thresholds(self, small_env, small_policies):
        # an infinite threshold never fires, so all-inf cells tie exactly
        setup = small_setup(small_env, small_policies, "loc",
                            change=ChangeSpec(kind="never"))
        choice = optimize_thresholds(setup, a_grid=[math.inf, math.inf - 0],
                                     n_runs=8, master_seed=0)
        assert choice.threshold_a == math.inf


class TestNonBayesCalibration:
    def test_infinite_threshold_matches_pure_pre_policy_cost(
            self, small_env, small_policies):
        never = ChangeSpec(kind="never")
        grid = estimate_nonbayes_grid(
            small_setup(small_env, small_policies, "loc", detector="sr"),
            a_grid=[math.inf], n_runs=64, master_seed=2)
        oracle = monte_carlo(small_setup(small_env, small_policies, "oracle",
                                         change=never), 64, master_seed=2)
        assert grid[0].einf_cost == pytest.approx(oracle.mean_cost, abs=1e-9)

    def test_tiny_threshold_approaches_oracle_under_immediate_change(
            self, small_env, small_policies):
        e1 = ChangeSpec(kind="fixed", gamma=1)
        grid = estimate_nonbayes_grid(
            small_setup(small_env, small_policies, "loc", detector="sr"),
            a_grid=[1e-6], n_runs=256, master_seed=6)
        oracle = monte_carlo(small_setup(small_env, small_policies, "oracle",
                                         change=e1), 256, master_seed=6)
        # switches at the first transition; at most one mis-stepped action
        assert grid[0].e1_cost <= oracle.mean_cost * 1.2 + 5.0

    def test_feasibility_selection_and_infeasible_result(
            self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc", detector="sr")
        grid = estimate_nonbayes_grid(setup, a_grid=[2.0, 20.0, 2000.0],
                                      n_runs=128, master_seed=7)
        einf_sorted = sorted(c.einf_cost for c in grid)
        feasible_alpha = einf_sorted[1]
        res = calibrate_from_grid("loc", feasible_alpha, grid)
        assert res.feasible and res.einf_cost <= feasible_alpha
        assert all(c.e1_cost >= res.e1_cost for c in grid
                   if c.einf_cost <= feasible_alpha)
        impossible = einf_sorted[0] - 1.0
        res2 = calibrate_from_grid("loc", impossible, grid)
        assert not res2.feasible
        assert res2.einf_cost == einf_sorted[0]

    def test_frontier_monotone_as_constraint_loosens(
            self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt", detector="sr")
        grid = estimate_nonbayes_grid(setup, a_grid=[2.0, 30.0, 400.0],
                                      b_grid=[0.0, 5.0], n_runs=128, master_seed=8)
        alphas = sorted(c.einf_cost for c in grid)
        e1 = [calibrate_from_grid("tt", a, grid).e1_cost for a in alphas]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(e1, e1[1:]))

    def test_frontier_sweep_requires_alphas(self, small_env, small_policies):
        with pytest.raises(ValueError):
            frontier_sweep({"loc": small_setup(small_env, small_policies, "loc")},
                           [], a_grid=[1.0])

    def test_frontier_sweep_single_row(self, small_env, small_policies):
        rows = frontier_sweep(
            {"loc": small_setup(small_env, small_policies, "loc", detector="sr")},
            [1e9], a_grid=[10.0], n_runs=16, master_seed=0)
        assert len(rows) == 1
        assert rows[0].policy == "loc" and rows[0].threshold_a == 10.0


class TestDelayProfile:
    def test_huge_threshold_censors_delay_and_kills_false_switches(
            self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc", detector="sr",
                            horizon=100)
        rows = delay_profile(setup, thresholds=[1e9, math.inf], n_runs=64,
                             master_seed=1)
        assert rows[-1]["false_switch_rate"] == 0.0
        assert rows[-1]["mean_delay"] == 99.0   # censored at horizon - 1
        assert rows[0]["mean_delay"] <= rows[-1]["mean_delay"]

    def test_probe_policy_dominates_pre_policy_detection(
            self, paper_env, paper_policies):
        # with more informative actions, delays are lower at comparable or
        # lower false-switch rates
        env, ps = paper_env, paper_policies
        k0, k1 = env.mdp_pre.kernel, env.mdp_post.kernel
        assert info_number(k0, k1, ps.pi_probe) > info_number(k0, k1, ps.pi_pre)
        thresholds = [1e2, 1e4, 1e6]

        def pinned(policy):
            from nsmdp.harness import PolicySet
            pin = PolicySet(pi_pre=policy, pi_post=policy, pi_probe=policy,
                            v_pre=ps.v_pre, v_post=ps.v_post)
            return make_setup(env, pin, "loc", CHANGE, 400, 0.99,
                              detector_kind="sr")

        rows_pre = delay_profile(pinned(ps.pi_pre), thresholds, n_runs=400,
                                 master_seed=3)
        rows_probe = delay_profile(pinned(ps.pi_probe), thresholds, n_runs=400,
                                   master_seed=3)
        for pre, probe in zip(rows_pre, rows_probe):
            assert probe["mean_delay"] <= pre["mean_delay"]
            assert probe["false_switch_rate"] <= pre["false_switch_rate"] + 0.02


class TestGridPass:
    """A threshold grid simulated in one engine pass per change spec gives,
    cell for cell, the estimates of simulating that cell alone."""

    N_RUNS = 300    # crosses a 256-run chunk

    @staticmethod
    def grids(detector):
        """A and B grids with enough cells that the first chunk's rows exceed
        one engine call's row budget."""
        if detector == "cusum":
            return np.linspace(-1.0, 12.0, 8), [-math.inf, 0.5, 3.0]
        return np.geomspace(0.5, 1e5, ROW_BUDGET // CHUNK_SIZE + 4), [0.0, 2.0, 50.0]

    @pytest.mark.parametrize("detector", ["shiryaev", "sr", "cusum"])
    @pytest.mark.parametrize("kind", ["loc", "kl", "tt"])
    def test_cells_equal_cell_by_cell(self, small_env, small_policies, kind, detector):
        setup = replace(small_setup(small_env, small_policies, kind, horizon=40,
                                    detector=detector), window=5)
        a_grid, b_grid = self.grids(detector)
        if kind == "tt":
            a_grid = a_grid[::3]
        cells = threshold_cells(kind, a_grid, b_grid)
        assert len(cells) * CHUNK_SIZE > (CUSUM_ROWS if detector == "cusum" else ROW_BUDGET)
        choice = optimize_thresholds(setup, a_grid, b_grid, n_runs=self.N_RUNS,
                                     master_seed=4)
        grid = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs=self.N_RUNS,
                                      master_seed=4)
        assert [(c.threshold_a, c.threshold_b) for c in choice.cells] == cells
        for cell, nb, (a, b) in zip(choice.cells, grid, cells):
            one = replace(setup, threshold_a=a, threshold_b=b)
            alone = monte_carlo(one, self.N_RUNS, master_seed=4)
            assert (cell.mean_cost, cell.stderr) == (alone.mean_cost, alone.stderr)
            for change, mean, err in ((ChangeSpec(kind="fixed", gamma=1),
                                       nb.e1_cost, nb.e1_stderr),
                                      (ChangeSpec(kind="never"),
                                       nb.einf_cost, nb.einf_stderr)):
                alone = monte_carlo(replace(one, change=change), self.N_RUNS,
                                    master_seed=4)
                assert (mean, err) == (alone.mean_cost, alone.stderr)
        best = min(choice.cells, key=lambda c: c.mean_cost)
        assert (choice.threshold_a, choice.threshold_b) == (best.threshold_a,
                                                            best.threshold_b)
        assert choice.report.mean_cost == best.mean_cost
        if kind != "kl":   # the toy instance's probe policy is its post policy
            assert len({c.mean_cost for c in choice.cells}) > 1

    def test_array_report_equals_scalar_report(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt", horizon=60)
        cells = [(5.0, 0.0), (50.0, 3.0), (50.0, 50.0)]
        reports = monte_carlo(replace(setup, threshold_a=np.array([5.0, 50.0, 50.0]),
                                      threshold_b=np.array([0.0, 3.0, 50.0])),
                              self.N_RUNS, master_seed=2)
        for (a, b), report in zip(cells, reports):
            alone = monte_carlo(replace(setup, threshold_a=a, threshold_b=b),
                                self.N_RUNS, master_seed=2)
            assert report.runs == () and len(alone.runs) == self.N_RUNS
            assert report == replace(alone, runs=())

    def test_delay_profile_equals_per_threshold(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc", detector="sr",
                            horizon=50)
        thresholds = [0.5, 3.0, 40.0, 1e4]
        rows = delay_profile(setup, thresholds, n_runs=self.N_RUNS, master_seed=8)
        assert [r["threshold"] for r in rows] == thresholds
        for a, row in zip(thresholds, rows):
            one = replace(setup, threshold_a=a)
            e1 = monte_carlo(replace(one, change=ChangeSpec(kind="fixed", gamma=1)),
                             self.N_RUNS, master_seed=8)
            delays = np.array([setup.horizon - 1 if r.tau_switch is None
                               else max(0, r.tau_switch - 1) for r in e1.runs])
            never = monte_carlo(replace(one, change=ChangeSpec(kind="never")),
                                self.N_RUNS, master_seed=8)
            assert row["mean_delay"] == float(delays.mean())
            assert row["false_switch_rate"] == never.premature_rate

    @pytest.mark.parametrize("n_cells", [1, 3])
    def test_traced_demand_is_inverse_cdf_per_regime(self, small_env, small_policies,
                                                     n_cells):
        thresholds = np.geomspace(2.0, 200.0, n_cells)
        setup = small_setup(small_env, small_policies, "loc", horizon=80)
        if n_cells > 1:
            setup = replace(setup, threshold_a=thresholds, threshold_b=thresholds)
        ids = np.arange(40)
        batch = simulate_batch(setup, 6, ids, trace=True)
        gamma, demand_u, _ = draw_episode_randomness(setup.change, 80, 6, ids)
        post = np.arange(80)[None, :] >= gamma[:, None] - 1.0
        assert post.any() and (~post).any()
        cum_pre = np.cumsum(small_env.pmf_pre)
        cum_pre[-1] = 1.0
        cum_post = np.cumsum(small_env.pmf_post)
        cum_post[-1] = 1.0
        expected = np.tile(np.where(post, demand_from_uniform(cum_post, demand_u),
                                    demand_from_uniform(cum_pre, demand_u)),
                           (n_cells, 1))
        assert batch.trace["demand"].shape == (n_cells * len(ids), 80)
        assert np.array_equal(batch.trace["demand"], expected)
        assert np.array_equal(batch.run_ids, np.tile(ids, n_cells))
        assert np.array_equal(batch.gamma, np.tile(gamma, n_cells))

    def test_setup_rejects_unusable_thresholds_and_rho(self, small_env, small_policies):
        # B > A, NaN, a negative Shiryaev/SR threshold, or rho outside [0, 1)
        # (0 for sr), in a scalar setup or in any one cell of a grid
        bad = [("tt", "shiryaev", 0.05, 1.0, 50.0), ("tt", "sr", 0.0, math.nan, 1.0),
               ("loc", "shiryaev", 0.05, math.nan, 0.0), ("tt", "cusum", 0.0, 5.0, math.nan),
               ("tt", "sr", 0.0, 5.0, -1.0), ("loc", "shiryaev", 0.05, -2.0, 0.0),
               ("tt", "shiryaev", 0.05, np.array([5.0, 1.0]), np.array([1.0, 3.0])),
               ("loc", "shiryaev", 1.5, 5.0, 5.0), ("oracle", "shiryaev", -0.1, math.inf, 0.0),
               ("loc", "sr", 0.1, 5.0, 5.0)]
        for kind, detector, rho, a, b in bad:
            with pytest.raises(ValueError, match="B <= A|NaN|non-negative|detector_rho"):
                make_setup(small_env, small_policies, kind, CHANGE, 10, 0.95,
                           detector_kind=detector, detector_rho=rho,
                           threshold_a=a, threshold_b=b)
        # loc forces B = A and kl puts B at the floor, so a larger B is unused;
        # CUSUM thresholds are log-domain and may be negative
        for kind, detector, a, b in (("loc", "sr", 1.0, 50.0), ("kl", "sr", 1.0, 50.0),
                                     ("tt", "cusum", -1.0, -2.0), ("kl", "cusum", -1.0, 0.0)):
            make_setup(small_env, small_policies, kind, CHANGE, 10, 0.95,
                       detector_kind=detector, threshold_a=a, threshold_b=b)

    def test_setup_rejects_mismatched_threshold_arrays(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt")
        for a, b in ((np.array([1.0, 2.0]), np.array([1.0])),
                     (np.array([1.0, 2.0]), 0.0),
                     (np.array([]), np.array([])),
                     (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(ValueError):
                replace(setup, threshold_a=a, threshold_b=b)


class TestCsvSurfaces:
    def test_runs_csv_format(self, tmp_path, small_env, small_policies):
        report = monte_carlo(small_setup(small_env, small_policies, "tt"), 5,
                             master_seed=0)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, list(report.runs))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("run_id,policy,gamma,tau_switch,horizon,"
                            "discounted_cost,detection_delay,premature_switch")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "tt"
        # floats carry at most 9 significant digits
        assert len(first[5].replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_summary_and_frontier_csv(self, tmp_path, small_env, small_policies):
        report = monte_carlo(small_setup(small_env, small_policies, "loc"), 3,
                             master_seed=1)
        spath = tmp_path / "summary.csv"
        write_summary_csv(spath, [report])
        header, row = spath.read_text().strip().splitlines()
        assert header == "policy,n_runs,mean_cost,stderr,mean_delay,A,B,seed"
        assert row.startswith("loc,3,")

        res = calibrate_nonbayes(
            small_setup(small_env, small_policies, "loc", detector="sr"),
            alpha=1e9, a_grid=[5.0], n_runs=4, master_seed=0)
        fpath = tmp_path / "frontier.csv"
        write_frontier_csv(fpath, [res])
        fheader = fpath.read_text().splitlines()[0]
        assert fheader == ("alpha,policy,A,B,e1_cost,e1_stderr,"
                           "einf_cost,einf_stderr,feasible")

    def test_infinite_gamma_serialized_as_inf(self, tmp_path, small_env,
                                              small_policies):
        setup = small_setup(small_env, small_policies, "oracle",
                            change=ChangeSpec(kind="never"))
        report = monte_carlo(setup, 2, master_seed=0)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, list(report.runs))
        assert ",inf," in path.read_text().splitlines()[1]

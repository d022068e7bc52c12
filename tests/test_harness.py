"""Tests for the Monte Carlo harness: determinism, episode accounting,
threshold optimization, calibration, and the CSV surfaces."""

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from nsmdp import engine, harness
from nsmdp.controllers import PHASES, SwitchController
from nsmdp.detectors import Detector, DetectorConfig
from nsmdp.engine import DETECTOR_KINDS, cell_paths, episode_paths, simulate_batch
from nsmdp.harness import (EvaluationReport, _switch_outcomes,
                           default_a_grid, default_b_grid,
                           delay_profile, estimate_nonbayes_grid,
                           calibrate_from_grid, frontier_sweep, make_setup,
                           monte_carlo, optimize_thresholds, solve_policies,
                           threshold_cells, write_frontier_csv, write_runs_csv,
                           write_summary_csv)
from nsmdp.inventory import ChangeSpec, InventoryParams, build_env
from nsmdp.mdp import info_number, log_ratio_table

from util import finite_horizon_policy_value, protocol_paths, runs_csv_oracle

CHANGE = ChangeSpec(kind="geometric", rho=0.05)


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
        assert r1.discounted_cost.tolist() == r2.discounted_cost.tolist()

    def test_single_run_report_equals_record(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "loc")
        report = monte_carlo(setup, 1, master_seed=9)
        assert report.mean_cost == report.discounted_cost[0]
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
        for cost in report.discounted_cost:
            assert cost == pytest.approx(expected, abs=1e-12)

    def test_never_change_loc_with_infinite_threshold_is_pure_pre_policy(
            self, small_env, small_policies):
        never = ChangeSpec(kind="never")
        loc = small_setup(small_env, small_policies, "loc", a=math.inf, change=never)
        oracle = small_setup(small_env, small_policies, "oracle", change=never)
        r_loc = monte_carlo(loc, 32, master_seed=4)
        r_oracle = monte_carlo(oracle, 32, master_seed=4)
        assert r_loc.mean_cost == r_oracle.mean_cost
        assert (r_loc.tau == -1).all()

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
        premature, delay = _switch_outcomes(report.gamma, report.tau)
        for tau, early, d in zip(report.tau, premature, delay):
            if tau == -1:
                assert math.isnan(d) and not early
            elif tau < 40:
                assert early and d == 0.0
            else:
                assert d == tau - 40
        assert report.premature_rate == premature.mean()
        assert report.mean_delay == delay[~np.isnan(delay)].mean()

    def test_object_path_matches_engine(self, small_env, small_policies):
        """Replay 20 traced engine runs per detector and kind through a
        SwitchController: the controller, fed each run's (s, a, s') path,
        must choose the engine's action and phase at every step and switch
        at its tau."""
        env, ps = small_env, small_policies
        horizon = 200
        for detector, a, b_tt in (("shiryaev", 50.0, 3.0), ("sr", 50.0, 3.0),
                                  ("cusum", 4.0, 1.0)):
            rho = 0.05 if detector == "shiryaev" else 0.0
            for kind, b in (("loc", 0.0), ("kl", 0.0), ("tt", b_tt)):
                setup = small_setup(env, ps, kind, horizon=horizon, a=a, b=b,
                                    detector=detector)
                batch = simulate_batch(setup, 0, np.arange(20), trace=True)
                phases = batch.trace["phase"]
                # the runs switch, and probe unless loc
                assert (batch.tau >= 0).any()
                assert (phases == 1).any() == (kind != "loc")
                for run in range(20):
                    states = batch.trace["state"][run].astype(int)
                    actions = batch.trace["action"][run].astype(int)
                    det = Detector(DetectorConfig(kind=detector, threshold=a, rho=rho,
                                                  window=setup.window),
                                   env.mdp_pre.kernel, env.mdp_post.kernel)
                    ctrl = SwitchController(kind, pi_pre=ps.pi_pre, pi_probe=ps.pi_probe,
                                            pi_post=ps.pi_post, detector=det,
                                            threshold_a=a, threshold_b=b)
                    for k in range(horizon):
                        feedback = ((states[k - 1], actions[k - 1], states[k])
                                    if k >= 1 else None)
                        assert ctrl.step(states[k], feedback, k) == actions[k]
                        assert PHASES[int(phases[run, k])] == ctrl.phase
                    tau = int(batch.tau[run]) if batch.tau[run] >= 0 else None
                    assert ctrl.tau_switch == tau

    def test_setup_rejects_bad_initial_state_and_window(self, small_env, small_policies):
        for initial_state in (-1, small_env.n_states):
            with pytest.raises(ValueError, match="initial_state"):
                make_setup(small_env, small_policies, "loc", CHANGE, 10, 0.95,
                           initial_state=initial_state)
        with pytest.raises(ValueError, match="window"):
            make_setup(small_env, small_policies, "loc", CHANGE, 10, 0.95,
                       detector_kind="cusum", window=0)

    @pytest.mark.parametrize("field, value", [("initial_state", 2.7), ("initial_state", True),
                                              ("horizon", 10.0), ("window", 5.5)])
    def test_setup_rejects_non_integer_fields(self, small_env, small_policies, field, value):
        # an initial_state of 2.7 would start every run at state 2
        setup = make_setup(small_env, small_policies, "loc", CHANGE, 10, 0.95)
        with pytest.raises(ValueError, match=field):
            replace(setup, **{field: value})
        assert getattr(replace(setup, **{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("change", ["never", None, (), [CHANGE], (CHANGE, "never"),
                                        (CHANGE, ChangeSpec(kind="geometric", rho=0.05))],
                             ids=["str", "none", "empty", "list", "mixed", "repeated"])
    def test_setup_rejects_bad_change(self, small_env, small_policies, change):
        # "never" used to pass here and fail in monte_carlo with an AttributeError
        setup = small_setup(small_env, small_policies, "loc")
        with pytest.raises(ValueError, match="^change"):
            replace(setup, change=change)
        changes = (CHANGE, ChangeSpec(kind="never"))
        assert replace(setup, change=changes).changes == changes
        assert setup.changes == (CHANGE,)

    @pytest.mark.parametrize("kind, field, damage", [
        ("oracle", "pi_pre", lambda p: {"pi_pre": np.r_[-1, p.pi_pre[1:]]}),
        ("tt", "pi_probe", lambda p: {"pi_probe": np.r_[p.pi_probe[0], 4, p.pi_probe[2:]]}),
        ("loc", "pi_post", lambda p: {"pi_post": p.pi_post[:3]}),
        ("loc", "pi_pre", lambda p: {"pi_pre": p.pi_pre.astype(float)}),
        ("momdp", "momdp.policy",
         lambda p: {"momdp": replace(p.momdp, policy=p.momdp.policy[:, :-1])}),
        ("momdp", "momdp.policy",
         lambda p: {"momdp": replace(p.momdp, policy=p.momdp.policy + 5)}),
    ], ids=["negative", "infeasible", "short", "float", "momdp-shape", "momdp-infeasible"])
    def test_setup_rejects_bad_policy_tables(self, kind, field, damage):
        # capacity 4: state 0 may order 0..4 units, state 1 only 0..3
        env = build_env(InventoryParams(capacity=4, order_cost=1.0, holding_cost=5.0,
                                        penalty=60.0, demand_rate=2.0))
        good = solve_policies(env, beta=0.95, momdp_grid=5, momdp_rho=0.05)
        make_setup(env, good, kind, CHANGE, 20, 0.95)
        with pytest.raises(ValueError, match=f"^{re.escape(field)}"):
            make_setup(env, replace(good, **damage(good)), kind, CHANGE, 20, 0.95)

    def test_oracle_lower_bound(self, small_env, small_policies):
        reports = {}
        for kind in ("oracle", "loc", "tt", "random"):
            setup = small_setup(small_env, small_policies, kind, a=30.0, b=3.0)
            reports[kind] = monte_carlo(setup, 400, master_seed=13)
        oracle = reports["oracle"]
        for kind in ("loc", "tt", "random"):
            other = reports[kind]
            assert oracle.mean_cost <= other.mean_cost + 2 * (oracle.stderr + other.stderr)

    @pytest.mark.parametrize("n_runs", [2.5, 300.0, True, 0])
    def test_n_runs_must_be_a_positive_integer(self, small_env, small_policies, n_runs):
        setup = small_setup(small_env, small_policies, "oracle", horizon=5)
        with pytest.raises(ValueError, match="n_runs"):
            monte_carlo(setup, n_runs, master_seed=0)

    def test_numpy_integer_n_runs_accepted(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "oracle", horizon=5)
        assert monte_carlo(setup, np.int64(3), master_seed=0) == monte_carlo(setup, 3, 0)


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

    def test_costs_one_ulp_apart_tie(self, small_env, small_policies):
        """A reordered float sum moves a cost by an ulp or so; that must not
        move the choice away from the smallest A."""
        cost = 4321.0
        costs = {2.0: float(np.nextafter(cost, math.inf)), 20.0: cost}

        report = monte_carlo(small_setup(small_env, small_policies, "tt"), 2, master_seed=0)

        def reports(setup, n_runs, master_seed):
            # the one grid call, under the setup's one spec
            return [[replace(report, mean_cost=costs[a], threshold_a=a, threshold_b=b)
                     for a, b in zip(setup.threshold_a.tolist(), setup.threshold_b.tolist())]]

        with mock.patch.object(harness, "monte_carlo", side_effect=reports) as calls:
            choice = optimize_thresholds(small_setup(small_env, small_policies, "loc"),
                                         a_grid=[20.0, 2.0], n_runs=8)
        assert calls.call_count == 1
        assert choice.threshold_a == 2.0 and choice.report.policy == "loc"


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

    def test_costs_one_ulp_apart_tie(self):
        cost, alpha = 4321.0, 10.0
        above = float(np.nextafter(cost, math.inf))
        grid = (harness.NonBayesCell(20.0, 5.0, cost, 1.0, alpha, 1.0),
                harness.NonBayesCell(2.0, 5.0, above, 1.0, alpha, 1.0))
        res = calibrate_from_grid("tt", alpha, grid)
        assert res.feasible and (res.threshold_a, res.e1_cost) == (2.0, above)
        # with no feasible cell, the change-never costs tie the same way
        grid = (harness.NonBayesCell(20.0, 5.0, cost, 1.0, alpha, 1.0),
                harness.NonBayesCell(2.0, 5.0, cost, 1.0, float(np.nextafter(alpha, math.inf)),
                                     1.0))
        res = calibrate_from_grid("tt", alpha / 2, grid)
        assert not res.feasible and res.threshold_a == 2.0
        # the cap itself is exact: one ulp above alpha is infeasible
        res = calibrate_from_grid("tt", alpha, grid)
        assert res.feasible and res.threshold_a == 20.0

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
            frontier_sweep(small_setup(small_env, small_policies, "loc"), [], a_grid=[1.0])

    def test_frontier_sweep_single_row(self, small_env, small_policies):
        rows = frontier_sweep(small_setup(small_env, small_policies, "loc", detector="sr"),
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


class TestKindGroups:
    """The policies of one instance, as a tuple of kinds, in one engine call,
    at scalar thresholds or at threshold cells, under one change spec or a
    tuple of them."""

    CELLS = ((50.0, 3.0), (8.0, 8.0), (300.0, 0.5))

    @pytest.mark.parametrize("detector", ["shiryaev", "sr", "cusum"])
    def test_reports_equal_each_kind_alone(self, small_env, small_policies, detector):
        kinds = ("tt", "random", "oracle", "kl", "loc")
        scalar = small_setup(small_env, small_policies, kinds, horizon=40, detector=detector)
        a, b = np.array(self.CELLS).T
        grid = replace(scalar, threshold_a=a, threshold_b=b,
                       change=(CHANGE, ChangeSpec(kind="never")))
        for setup, cells in ((scalar, self.CELLS[:1]), (grid, self.CELLS)):
            with mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as calls:
                entries = monte_carlo(setup, 300, master_seed=4)
            assert calls.call_count == 1
            # one list per spec, of one report per (kind, cell), each equal to
            # that cell alone under that spec
            entries = entries if setup is grid else [entries]
            for change, reports in zip(setup.changes, entries):
                assert [r.policy for r in reports] == [kind for kind in kinds for _ in cells]
                for report, (kind, (a, b)) in zip(reports, itertools.product(kinds, cells)):
                    alone = monte_carlo(replace(setup, policy_kind=kind, change=change,
                                                threshold_a=a, threshold_b=b), 300,
                                        master_seed=4)
                    assert report == alone
                    for name in ("gamma", "tau", "discounted_cost"):
                        assert (getattr(report, name).tobytes()
                                == getattr(alone, name).tobytes())
            # each kind reports its own thresholds, and the kinds that read
            # none report A = inf and B = 0
            floor = -math.inf if detector == "cusum" else 0.0
            assert [(r.threshold_a, r.threshold_b) for r in entries[0][::len(cells)]] == [
                (50.0, 3.0), (math.inf, 0.0), (math.inf, 0.0), (50.0, floor), (50.0, 50.0)]
        # the detector kinds share one action step, and so one merged grid
        detector_kinds = ("loc", "tt", "kl")
        with mock.patch.object(engine, "_CellIndex", wraps=engine._CellIndex) as index:
            merged = monte_carlo(replace(grid, policy_kind=detector_kinds), 300, master_seed=4)
        assert index.call_count == 1
        assert merged == [sorted((r for r in reports if r.policy in DETECTOR_KINDS),
                                 key=lambda r: detector_kinds.index(r.policy))
                          for reports in entries]

    def test_one_kind_functions_reject_a_kind_tuple(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, ("loc", "tt"), detector="sr")
        with pytest.raises(ValueError, match="policy_kind"):
            delay_profile(setup, [3.0, 40.0], n_runs=8)
        # the grid searches take a tuple of loc, kl and tt, and raise through
        # threshold_cells on a kind without thresholds
        setup = replace(setup, policy_kind=("oracle", "tt"))
        for search in (optimize_thresholds, estimate_nonbayes_grid):
            with pytest.raises(ValueError, match="threshold grid not applicable"):
                search(setup, [3.0, 40.0], [0.0, 1.0], n_runs=8)
        # and the Bayesian search needs one change spec
        setup = small_setup(small_env, small_policies, "tt",
                            change=(ChangeSpec(kind="fixed", gamma=1), ChangeSpec(kind="never")))
        with pytest.raises(ValueError, match="change"):
            optimize_thresholds(setup, [3.0, 40.0], [0.0, 1.0], n_runs=8)


class TestGridPass:
    """A threshold grid simulated in one engine pass over its change specs
    gives, cell for cell, the estimates of simulating that cell alone under
    each spec."""

    N_RUNS = 300    # more runs than one 256-run PATH_BLOCK of the draw

    @staticmethod
    def grids(detector):
        """A and B grids whose tt grid has several distinct pre-switch paths."""
        if detector == "cusum":
            return np.linspace(-1.0, 12.0, 8), [-math.inf, 0.5, 3.0]
        return np.geomspace(0.5, 1e5, 20), np.concatenate([[0.0], np.geomspace(0.6, 9e4, 12)])

    @pytest.mark.parametrize("detector", ["shiryaev", "sr", "cusum"])
    @pytest.mark.parametrize("kind", ["loc", "kl", "tt", ("loc", "kl", "tt")])
    def test_cells_equal_cell_by_cell(self, small_env, small_policies, kind, detector):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        setup = replace(small_setup(small_env, small_policies, kind, horizon=40,
                                    detector=detector), window=5)
        a_grid, b_grid = self.grids(detector)
        if "tt" in kinds:
            a_grid = a_grid[::3] if detector == "cusum" else a_grid[::6]
        if len(kinds) > 1:
            # without the statistic's floor in the B grid, kl's (A, floor)
            # cells are not tt's, and the one grid holds their union
            b_grid = b_grid[1:]
        with mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as calls:
            choices = optimize_thresholds(setup, a_grid, b_grid, n_runs=self.N_RUNS,
                                          master_seed=4)
            grids = estimate_nonbayes_grid(setup, a_grid, b_grid, n_runs=self.N_RUNS,
                                           master_seed=4)
        # one engine call per grid search, whatever the kinds
        assert calls.call_count == 2
        if len(kinds) == 1:
            choices, grids = [choices], [grids]
        else:
            n_union = len(calls.call_args.args[0].threshold_a)
            assert n_union > len(threshold_cells("tt", a_grid, b_grid))
        for kind, choice, grid in zip(kinds, choices, grids):
            one_kind = replace(setup, policy_kind=kind)
            if len(kinds) > 1:
                # each kind's results are those of the kind alone, field for
                # field and array for array
                alone = optimize_thresholds(one_kind, a_grid, b_grid, n_runs=self.N_RUNS,
                                            master_seed=4)
                assert choice == alone and len(choice.cells) == len(alone.cells)
                for cell, single in zip(choice.cells, alone.cells):
                    for name in ("gamma", "tau", "discounted_cost"):
                        assert getattr(cell, name).tobytes() == getattr(single, name).tobytes()
                assert grid == estimate_nonbayes_grid(one_kind, a_grid, b_grid,
                                                      n_runs=self.N_RUNS, master_seed=4)
            self.check_cells(one_kind, choice, grid, a_grid, b_grid)

    def check_cells(self, setup, choice, grid, a_grid, b_grid):
        """Each cell of one kind's grid search, Bayesian and non-Bayesian,
        equals that cell simulated alone."""
        kind = setup.policy_kind
        cells = threshold_cells(kind, a_grid, b_grid)
        a, b = np.array(cells).T
        paths = cell_paths(replace(setup, threshold_a=a, threshold_b=b))[2]
        if kind == "tt":    # loc's and kl's cells share one path
            assert len(paths) > 1
        assert len(choice.cells) == len(cells)
        for cell, nb, (a, b) in zip(choice.cells, grid, cells):
            one = replace(setup, threshold_a=a, threshold_b=b)
            # a cell reports its kind and effective (A, B): kl's B is the
            # statistic's floor; so do its non-Bayesian estimates and, where
            # it is chosen, the choice
            assert cell.policy == kind
            assert (cell.threshold_a, cell.threshold_b) == one.effective_thresholds()
            assert (nb.threshold_a, nb.threshold_b) == one.effective_thresholds()
            if cell is choice.report:
                assert (choice.threshold_a, choice.threshold_b) == one.effective_thresholds()
            alone = monte_carlo(one, self.N_RUNS, master_seed=4)
            assert (cell.mean_cost, cell.stderr) == (alone.mean_cost, alone.stderr)
            assert cell == alone and cell.tau.tolist() == alone.tau.tolist()
            for change, mean, err in ((ChangeSpec(kind="fixed", gamma=1),
                                       nb.e1_cost, nb.e1_stderr),
                                      (ChangeSpec(kind="never"),
                                       nb.einf_cost, nb.einf_stderr)):
                alone = monte_carlo(replace(one, change=change), self.N_RUNS,
                                    master_seed=4)
                assert (mean, err) == (alone.mean_cost, alone.stderr)
        best = min(choice.cells, key=lambda c: c.mean_cost)
        chosen = replace(setup, threshold_a=choice.threshold_a, threshold_b=choice.threshold_b)
        assert chosen.effective_thresholds() == (best.threshold_a, best.threshold_b)
        assert choice.report.mean_cost == best.mean_cost
        if kind != "kl":   # the toy instance's probe policy is its post policy
            assert len({c.mean_cost for c in choice.cells}) > 1

    def test_one_engine_call_per_chunk(self, small_env, small_policies):
        # every grid, a CUSUM one included, is one engine call over all runs
        for detector in ("shiryaev", "sr", "cusum"):
            setup = replace(small_setup(small_env, small_policies, "tt", horizon=40,
                                        detector=detector), window=5)
            a, b = np.array(threshold_cells("tt", *self.grids(detector))).T
            grid = replace(setup, threshold_a=a, threshold_b=b)
            assert len(cell_paths(grid)[2]) > 1
            with mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as engine:
                monte_carlo(grid, self.N_RUNS, master_seed=4)
            assert engine.call_count == 1, detector
            assert engine.call_args.args[0] is grid
            assert engine.call_args.args[2].tolist() == list(range(self.N_RUNS))

    def test_one_engine_call_per_scalar_estimate(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt", horizon=20)
        with mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as engine:
            report = monte_carlo(setup, self.N_RUNS, master_seed=4)
        assert engine.call_count == 1
        assert engine.call_args.args[2].tolist() == list(range(self.N_RUNS))
        assert len(report.discounted_cost) == self.N_RUNS

    def test_nonbayes_grid_and_delay_profile_make_one_engine_call(self, small_env,
                                                                   small_policies):
        # change-at-1 and change-never share one monte_carlo and one engine call
        e1_einf = (ChangeSpec(kind="fixed", gamma=1), ChangeSpec(kind="never"))
        grid_setup = replace(small_setup(small_env, small_policies, "tt", horizon=40,
                                         detector="cusum"), window=5)
        profile_setup = small_setup(small_env, small_policies, "loc", detector="sr",
                                    horizon=50)
        for run in (lambda: estimate_nonbayes_grid(grid_setup, *self.grids("cusum"),
                                                   n_runs=self.N_RUNS, master_seed=4),
                    lambda: delay_profile(profile_setup, [0.5, 3.0, 40.0],
                                          n_runs=self.N_RUNS, master_seed=8)):
            with mock.patch.object(harness, "monte_carlo", wraps=monte_carlo) as mc, \
                    mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as engine:
                run()
            assert mc.call_count == 1 and engine.call_count == 1
            assert engine.call_args.args[0].change == e1_einf
            assert engine.call_args.args[2].tolist() == list(range(self.N_RUNS))

    def test_spec_tuple_entries_equal_each_spec_alone(self, small_env, small_policies):
        # one entry per spec, equal to the call with that spec alone, with
        # bit-identical, read-only per-run arrays
        setup = small_setup(small_env, small_policies, "tt", horizon=60)
        changes = (ChangeSpec(kind="fixed", gamma=1), CHANGE, ChangeSpec(kind="never"))
        for a, b in ((50.0, 3.0), (np.array([5.0, 50.0, 50.0]), np.array([0.0, 3.0, 50.0]))):
            one = replace(setup, threshold_a=a, threshold_b=b)
            entries = monte_carlo(replace(one, change=changes), self.N_RUNS, master_seed=2)
            assert len(entries) == len(changes)
            for change, entry in zip(changes, entries):
                alone = monte_carlo(replace(one, change=change), self.N_RUNS, master_seed=2)
                assert entry == alone
                for report, single in zip(*(x if isinstance(x, list) else [x]
                                            for x in (entry, alone))):
                    for name in ("gamma", "tau", "discounted_cost"):
                        got, want = getattr(report, name), getattr(single, name)
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                        assert not got.flags.writeable

    def test_cusum_b_beyond_reach_joins_the_never_probe_path(self, small_env,
                                                              small_policies):
        # the windowed statistic sums at most window + 1 = 6 log ratios, so a
        # B above 6 times the largest one never probes, as on the B = +inf path
        setup = replace(small_setup(small_env, small_policies, "tt", horizon=80,
                                    detector="cusum"), window=5)
        reach = 6 * log_ratio_table(small_env.mdp_post.kernel, small_env.mdp_pre.kernel).max()
        a = np.array([2.0, 2.0, 3 * reach, 4 * reach, 4 * reach])
        b = np.array([0.5, 2.0, 1.5 * reach, 1.5 * reach, 2 * reach])
        beyond = b > reach
        n_runs = 40
        batch = simulate_batch(replace(setup, threshold_a=a, threshold_b=b), 6,
                               np.arange(n_runs))
        costs, taus = (x.reshape(len(a), n_runs) for x in (batch.discounted_cost, batch.tau))
        for c in range(len(a)):
            alone = monte_carlo(replace(setup, threshold_a=float(a[c]), threshold_b=float(b[c])),
                                n_runs, master_seed=6)
            assert costs[c].tolist() == alone.discounted_cost.tolist()
            assert taus[c].tolist() == alone.tau.tolist()
        assert (taus[1] >= 0).any() and (taus[beyond] == -1).all()

    def test_array_report_equals_scalar_report(self, small_env, small_policies):
        setup = small_setup(small_env, small_policies, "tt", horizon=60)
        cells = [(5.0, 0.0), (50.0, 3.0), (50.0, 50.0)]
        reports = monte_carlo(replace(setup, threshold_a=np.array([5.0, 50.0, 50.0]),
                                      threshold_b=np.array([0.0, 3.0, 50.0])),
                              self.N_RUNS, master_seed=2)
        for (a, b), report in zip(cells, reports):
            alone = monte_carlo(replace(setup, threshold_a=a, threshold_b=b),
                                self.N_RUNS, master_seed=2)
            for name in ("gamma", "tau", "discounted_cost"):
                cell, one = getattr(report, name), getattr(alone, name)
                assert len(one) == self.N_RUNS and cell.dtype == one.dtype
                assert cell.tobytes() == one.tobytes()
                assert not cell.flags.writeable and not one.flags.writeable
            assert report == alone

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
            delays = np.array([setup.horizon - 1 if tau == -1 else max(0, tau - 1)
                               for tau in e1.tau.tolist()])
            never = monte_carlo(replace(one, change=ChangeSpec(kind="never")),
                                self.N_RUNS, master_seed=8)
            assert row["mean_delay"] == float(delays.mean())
            assert row["false_switch_rate"] == never.premature_rate

    def test_cached_randomness_is_read_only(self, small_env):
        ids = np.arange(5)
        first = episode_paths(small_env, CHANGE, 30, 11, ids)
        copies = [block.copy() for block in first]
        for block in first:
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 1
        again = episode_paths(small_env, CHANGE, 30, 11, ids)
        assert all(np.array_equal(a, b) for a, b in zip(again, copies))

    @pytest.mark.parametrize("n_cells", [1, 3])
    def test_traced_demand_is_inverse_cdf_per_regime(self, small_env, small_policies,
                                                     n_cells):
        thresholds = np.geomspace(2.0, 200.0, n_cells)
        setup = small_setup(small_env, small_policies, "loc", horizon=80)
        if n_cells > 1:
            setup = replace(setup, threshold_a=thresholds, threshold_b=thresholds)
        ids = np.arange(40)
        batch = simulate_batch(setup, 6, ids, trace=True)
        gamma, post, demand, _ = protocol_paths(small_env, setup.change, 80, 6, ids)
        assert post.any() and (~post).any()
        expected = np.tile(demand.T, (n_cells, 1))
        assert batch.trace["demand"].shape == (n_cells * len(ids), 80)
        assert np.array_equal(batch.trace["demand"], expected)
        assert np.array_equal(batch.run_ids, np.tile(ids, n_cells))
        assert np.array_equal(batch.gamma, gamma)

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
        write_runs_csv(path, [report], 200)
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

        res = calibrate_from_grid("loc", 1e9, estimate_nonbayes_grid(
            small_setup(small_env, small_policies, "loc", detector="sr"),
            a_grid=[5.0], n_runs=4, master_seed=0))
        fpath = tmp_path / "frontier.csv"
        write_frontier_csv(fpath, [res])
        fheader = fpath.read_text().splitlines()[0]
        assert fheader == ("alpha,policy,A,B,e1_cost,e1_stderr,"
                           "einf_cost,einf_stderr,feasible")

    def test_runs_csv_equals_csv_writer(self, tmp_path, small_env, small_policies):
        # inf gammas, runs that never switch (so NaN delays), premature and
        # late switches, and costs across magnitudes
        reports = [monte_carlo(small_setup(small_env, small_policies, kind, a=a,
                                           change=change), 40, master_seed=3)
                   for kind, a, change in (("tt", 50.0, CHANGE),
                                           ("loc", 200.0, ChangeSpec(kind="never")),
                                           ("oracle", 50.0, ChangeSpec(kind="fixed", gamma=5)))]
        reports.append(replace(reports[0], policy="random",
                               discounted_cost=reports[0].discounted_cost * 1e-7 - 3e5))
        assert (reports[1].gamma == math.inf).all() and (reports[1].tau == -1).any()
        assert (reports[0].tau >= 0).any() and (reports[0].tau < reports[0].gamma).any()
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_runs_csv(new, reports, 200)
        runs_csv_oracle(old, reports, 200)
        assert new.read_bytes() == old.read_bytes()

    def test_runs_csv_with_shared_gamma_equals_csv_writer(self, tmp_path):
        # reports sharing one gamma array, a copy of it and a prefix of it,
        # zeros of both signs, taus that leave NaN delays, and costs repeated
        # within and across reports
        rng = np.random.default_rng(2)
        gamma = rng.choice([-0.0, 0.0, 1.0, 3.0, 7.0, math.inf], size=30)
        tau = rng.integers(-1, 9, size=30)
        cost = rng.choice([0.0, -0.0, 12.5, 1e300, 1 / 3, math.inf], size=30)

        def report(policy, gamma, tau, cost):
            return EvaluationReport(policy=policy, n_runs=len(tau), mean_cost=0.0, stderr=0.0,
                                    mean_delay=None, premature_rate=0.0, threshold_a=math.inf,
                                    threshold_b=0.0, seed=0, gamma=gamma, tau=tau,
                                    discounted_cost=cost)

        reports = [report("tt", gamma, tau, cost),
                   report("oracle", gamma, np.full(30, -1), cost[::-1]),
                   report("random", gamma.copy(), tau[::-1], cost),
                   report("loc", gamma[:12], tau[:12], cost[:12]),
                   report("kl", np.where(gamma == 0.0, 5.0, gamma), tau, cost)]
        assert np.isnan(_switch_outcomes(gamma, tau)[1]).any()
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_runs_csv(new, reports, 9)
        runs_csv_oracle(old, reports, 9)
        assert new.read_bytes() == old.read_bytes()
        assert {"0", "-0"} <= {line.split(",")[2] for line in new.read_text().splitlines()}

    def test_infinite_gamma_serialized_as_inf(self, tmp_path, small_env,
                                              small_policies):
        setup = small_setup(small_env, small_policies, "oracle",
                            change=ChangeSpec(kind="never"))
        report = monte_carlo(setup, 2, master_seed=0)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, [report], 200)
        assert ",inf," in path.read_text().splitlines()[1]

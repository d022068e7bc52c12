"""Tests for the switching controllers and probing policies."""

import math

import numpy as np
import pytest

from nsmdp.controllers import SwitchController, kl_policy
from nsmdp.detectors import Detector, DetectorConfig
from nsmdp.harness import make_setup, monte_carlo
from nsmdp.inventory import ChangeSpec
from util import kl_oracle, random_kernel


def make_detector(env, kind="shiryaev", rho=0.05, threshold=math.inf, window=200):
    return Detector(DetectorConfig(kind=kind, threshold=threshold, rho=rho,
                                   window=window),
                    env.mdp_pre.kernel, env.mdp_post.kernel)


def make_controller(env, policies, kind, a, b=0.0, detector_kind="shiryaev", rho=0.05):
    det = make_detector(env, detector_kind, rho, a)
    return SwitchController(kind, pi_pre=policies.pi_pre, pi_probe=policies.pi_probe,
                            pi_post=policies.pi_post, detector=det,
                            threshold_a=a, threshold_b=b)


class TestKlPolicy:
    def test_tie_break_on_identical_kernels(self, rng):
        kernel = random_kernel(4, 3, rng)
        assert kl_policy(kernel, kernel).tolist() == [0, 0, 0, 0]

    def test_prefers_informative_action(self):
        k0 = np.zeros((1, 2, 2))
        k1 = np.zeros((1, 2, 2))
        k0[0, 0] = k1[0, 0] = [0.5, 0.5]
        k0[0, 1] = [0.5, 0.5]
        k1[0, 1] = [0.9, 0.1]
        assert kl_policy(k0, k1).tolist() == [1]

    def test_matches_per_state_enumeration(self, rng):
        for _ in range(5):
            k0 = random_kernel(4, 3, rng)
            k1 = random_kernel(4, 3, rng)
            policy = kl_policy(k0, k1)
            for s in range(4):
                scores = [kl_oracle(k1[s, a], k0[s, a]) for a in range(3)]
                assert scores[policy[s]] == max(scores)
                assert all(scores[policy[s]] >= scores[a] for a in range(3))

    def test_respects_feasibility(self, rng):
        k0 = random_kernel(2, 3, rng)
        k1 = random_kernel(2, 3, rng)
        feasible = ((0, 1), (2,))
        policy = kl_policy(k0, k1, feasible)
        assert policy[0] in (0, 1) and policy[1] == 2


class TestPhaseMachine:
    def scripted_controller(self, b=1.0, a=5.0):
        """SR detector driven through statistic values 1.2, 0.4, 7 by
        transitions with hand-picked likelihood ratios."""
        # SR recursion: S_n = (1 + S_{n-1}) * lr_n
        lr_targets = [1.2, 0.4 / 2.2, 7.0 / 1.4]
        k0 = np.zeros((4, 1, 4))
        k1 = np.zeros((4, 1, 4))
        k0[:, 0, :] = 0.25
        for t, lr in enumerate(lr_targets, start=1):
            k1[:, 0, t] = 0.25 * lr
        k1[:, 0, 0] = 1.0 - k1[:, 0, 1:].sum(axis=1)
        det = Detector(DetectorConfig(kind="sr", threshold=a), k0, k1)
        return SwitchController("tt", pi_pre=np.zeros(4, int),
                                pi_probe=np.ones(4, int),
                                pi_post=np.full(4, 2),
                                detector=det, threshold_a=a, threshold_b=b)

    def test_banded_phase_walk(self):
        ctrl = self.scripted_controller()
        actions = [ctrl.step(0, None, 0)]
        phases = [ctrl.phase]
        for t in (1, 2, 3):
            actions.append(ctrl.step(0, (0, 0, t), t))
            phases.append(ctrl.phase)
        assert phases == ["pre", "probe", "pre", "post"]
        assert actions == [0, 1, 0, 2]
        assert ctrl.tau_switch == 3

    def test_statistic_values_as_designed(self):
        ctrl = self.scripted_controller(a=math.inf)
        ctrl.step(0, None, 0)
        values = []
        for t in (1, 2, 3):
            ctrl.step(0, (0, 0, t), t)
            values.append(ctrl.detector.state.statistic)
        np.testing.assert_allclose(values, [1.2, 0.4, 7.0], atol=1e-9)

    def test_malformed_thresholds_raise(self, small_env, small_policies):
        for a, b in ((10.0, 20.0), (math.nan, 1.0), (10.0, math.nan), (10.0, -1.0)):
            with pytest.raises(ValueError):
                make_controller(small_env, small_policies, "tt", a=a, b=b)

    @pytest.mark.parametrize("table", ["pi_pre", "pi_probe", "pi_post"])
    def test_bad_policy_table_rejected(self, small_env, small_policies, table):
        """A negative, non-integer, infeasible or wrongly sized table raises
        ValueError naming it, instead of wrapping or truncating."""
        ps, feasible = small_policies, small_env.mdp_pre.feasible
        tables = {"pi_pre": ps.pi_pre, "pi_probe": ps.pi_probe, "pi_post": ps.pi_post}
        n = len(feasible)
        infeasible = tables[table].copy()
        infeasible[n - 1] = n    # at most n - 1 - s units fit at stock s
        bad_values = [np.where(np.arange(n) == 2, -1, tables[table]),
                      tables[table] + 0.5, tables[table].astype(float)]
        for bad, given in ([(b, None) for b in bad_values]
                           + [(b, feasible) for b in bad_values]
                           + [(infeasible, feasible), (tables[table][:-1], feasible)]):
            det = make_detector(small_env, threshold=5.0)
            with pytest.raises(ValueError, match=table):
                SwitchController("tt", **{**tables, table: bad}, detector=det,
                                 threshold_a=5.0, threshold_b=1.0, feasible=given)
        SwitchController("tt", **tables, detector=make_detector(small_env, threshold=5.0),
                         threshold_a=5.0, threshold_b=1.0, feasible=feasible)
        with pytest.raises(ValueError, match="pi_pre"):
            SwitchController("loc", pi_pre=np.full(n, -1), pi_post=ps.pi_post,
                             detector=make_detector(small_env, threshold=5.0), threshold_a=5.0)

    @pytest.mark.parametrize("kind", ["oracle", "random"])
    def test_baseline_kinds_are_engine_only(self, small_env, small_policies, kind):
        with pytest.raises(ValueError, match="unknown controller kind"):
            make_controller(small_env, small_policies, kind, a=10.0)

    def test_feedback_required_after_first_step(self, small_env, small_policies):
        ctrl = make_controller(small_env, small_policies, "tt", a=10.0, b=1.0)
        ctrl.step(2, None, 0)
        with pytest.raises(ValueError):
            ctrl.step(2, None, 1)


class TestControllerEpisodes:
    CHANGE = ChangeSpec(kind="geometric", rho=0.05)

    def episode_outcomes(self, env, policies, kind, a, b=0.0, n_runs=20):
        """Per-run discounted costs and switch times of the engine's runs."""
        setup = make_setup(env, policies, kind, self.CHANGE, 120, 0.95,
                           detector_kind="shiryaev", detector_rho=0.05,
                           threshold_a=a, threshold_b=b)
        report = monte_carlo(setup, n_runs, master_seed=0)
        return (report.discounted_cost.tolist(),
                [tau if tau >= 0 else None for tau in report.tau.tolist()])

    def test_tt_equals_loc_when_thresholds_meet(self, small_env, small_policies):
        tt = self.episode_outcomes(small_env, small_policies, "tt", a=40.0, b=40.0)
        loc = self.episode_outcomes(small_env, small_policies, "loc", a=40.0)
        assert tt == loc
        assert any(tau is not None for tau in tt[1])

    def test_tt_with_floor_threshold_equals_kl(self, small_env, small_policies):
        tt = self.episode_outcomes(small_env, small_policies, "tt", a=40.0, b=0.0)
        kl = self.episode_outcomes(small_env, small_policies, "kl", a=40.0)
        assert tt == kl
        assert any(tau is not None for tau in tt[1])

    def test_absorption_and_pre_phase_actions(self, small_env, small_policies):
        env, ps = small_env, small_policies
        ctrl = make_controller(env, ps, "tt", a=20.0, b=2.0)
        gammas, demand_u, _ = None, None, None
        # manual episode so each emitted action can be matched to its phase
        rng = np.random.default_rng(11)
        s, s_prev, a_prev = 0, 0, 0
        switched_at = None
        for k in range(150):
            feedback = (s_prev, a_prev, s) if k >= 1 else None
            action = ctrl.step(s, feedback, k)
            if ctrl.phase == "post" and switched_at is None:
                switched_at = k
            if ctrl.phase == "post":
                assert action == ps.pi_post[s]
            elif ctrl.phase == "probe":
                assert action == ps.pi_probe[s]
            else:
                assert action == ps.pi_pre[s]
            s_prev, a_prev = s, action
            w = rng.integers(0, 5)
            s = max(0, min(env.params.capacity, s + action - w))
        assert switched_at is not None  # drove it with post-change-like noise

    def test_detector_in_controller_matches_standalone(self, small_env, small_policies):
        env, ps = small_env, small_policies
        ctrl = make_controller(env, ps, "tt", a=math.inf, b=3.0)
        standalone = make_detector(env, "shiryaev", 0.05, math.inf)
        rng = np.random.default_rng(5)
        s, s_prev, a_prev = 0, 0, 0
        for k in range(100):
            feedback = (s_prev, a_prev, s) if k >= 1 else None
            action = ctrl.step(s, feedback, k)
            if feedback is not None:
                standalone.update(*feedback)
                assert ctrl.detector.state.log_stat == standalone.state.log_stat
            s_prev, a_prev = s, action
            s = max(0, min(env.params.capacity, s + action - int(rng.integers(0, 5))))

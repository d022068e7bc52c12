"""Tests for the switching controllers and probing policies."""

import math

import numpy as np
import pytest

from nsmdp.controllers import (GlrController, SwitchController, glr_reset,
                               kl_policy, worst_case_kl_policy)
from nsmdp.detectors import Detector, DetectorConfig
from nsmdp.errors import StateError
from nsmdp.harness import make_setup, monte_carlo
from nsmdp.inventory import ChangeSpec
from nsmdp.mdp import TabularMdp, kl_step, value_iteration

from util import random_kernel


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
                scores = [kl_step(k1[s, a], k0[s, a]) for a in range(3)]
                assert scores[policy[s]] == max(scores)
                assert all(scores[policy[s]] >= scores[a] for a in range(3))

    def test_respects_feasibility(self, rng):
        k0 = random_kernel(2, 3, rng)
        k1 = random_kernel(2, 3, rng)
        feasible = ((0, 1), (2,))
        policy = kl_policy(k0, k1, feasible)
        assert policy[0] in (0, 1) and policy[1] == 2


class TestWorstCaseKlPolicy:
    def test_singleton_grid_equals_kl_policy(self, rng):
        k0 = random_kernel(3, 2, rng)
        k1 = random_kernel(3, 2, rng)
        np.testing.assert_array_equal(worst_case_kl_policy(k0, (k1,)),
                                      kl_policy(k0, k1))

    def test_matching_candidate_zeroes_an_action(self):
        # candidate equal to the pre-change kernel at action 0 makes that
        # action worthless; the policy must pick the informative action
        k0 = np.zeros((1, 2, 2))
        k0[0, 0] = [0.5, 0.5]
        k0[0, 1] = [0.5, 0.5]
        cand_a = np.array([[[0.5, 0.5], [0.9, 0.1]]])   # informative on action 1
        cand_b = np.array([[[0.5, 0.5], [0.8, 0.2]]])
        policy = worst_case_kl_policy(k0, (cand_a, cand_b))
        assert policy.tolist() == [1]
        zero_grid = (np.array([[[0.5, 0.5], [0.5, 0.5]]]),)
        assert worst_case_kl_policy(k0, zero_grid).tolist() == [0]

    def test_matches_full_tabulation(self, rng):
        k0 = random_kernel(2, 3, rng)
        grid = (random_kernel(2, 3, rng), random_kernel(2, 3, rng))
        policy = worst_case_kl_policy(k0, grid)
        for s in range(2):
            table = [min(kl_step(g[s, a], k0[s, a]) for g in grid) for a in range(3)]
            assert table[policy[s]] == max(table)

    def test_empty_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            worst_case_kl_policy(random_kernel(2, 2, rng), ())


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
        ctrl = make_controller(small_env, small_policies, "tt", a=10.0, b=1.0)
        ctrl.threshold_b = 20.0  # corrupt the state machine
        with pytest.raises(StateError):
            ctrl.step(0, None, 0)
        for a, b in ((10.0, 20.0), (math.nan, 1.0), (10.0, math.nan), (10.0, -1.0)):
            with pytest.raises(ValueError):
                make_controller(small_env, small_policies, "tt", a=a, b=b)

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
        return ([r.discounted_cost for r in report.runs],
                [r.tau_switch for r in report.runs])

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

    def test_oracle_switches_exactly_at_change(self, small_env, small_policies):
        ps = small_policies
        ctrl = SwitchController("oracle", pi_pre=ps.pi_pre, pi_post=ps.pi_post,
                                oracle_switch_time=4.0)
        for k in range(8):
            action = ctrl.step(1, None, k)
            expected = ps.pi_post[1] if k >= 4 else ps.pi_pre[1]
            assert action == expected

    def test_random_uniform_over_feasible(self, small_env):
        ctrl = SwitchController("random", feasible=small_env.mdp_pre.feasible)
        rng = np.random.default_rng(0)
        counts = np.zeros(small_env.params.capacity + 1)
        for _ in range(4000):
            counts[ctrl.step(2, None, 0, rng)] += 1
        n_feas = small_env.params.capacity - 2 + 1
        assert counts[n_feas:].sum() == 0
        expected = 4000 / n_feas
        assert np.all(np.abs(counts[:n_feas] - expected) < 4 * math.sqrt(expected))


def three_models(rng):
    """Well-separated 2-state models for multi-model tests."""
    base = [np.array([[[0.85, 0.15], [0.5, 0.5]], [[0.7, 0.3], [0.3, 0.7]]]),
            np.array([[[0.15, 0.85], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4]]]),
            np.array([[[0.5, 0.5], [0.05, 0.95]], [[0.9, 0.1], [0.45, 0.55]]])]
    costs = [rng.random((2, 2)) for _ in range(3)]
    return tuple(TabularMdp(kernel=k, cost=c) for k, c in zip(base, costs))


class _GlrEpisode:
    """Persistent episode driver stepping one controller on transitions
    sampled from whichever model kernel is currently active."""

    def __init__(self, ctrl, seed):
        self.ctrl = ctrl
        self.rng = np.random.default_rng(seed)
        self.s = 0
        self.s_prev = 0
        self.a_prev = 0
        self.k = 0

    def step(self, kernel):
        feedback = (self.s_prev, self.a_prev, self.s) if self.k >= 1 else None
        action = self.ctrl.step(self.s, feedback, self.k)
        self.s_prev, self.a_prev = self.s, action
        self.s = int(self.rng.random() < kernel[self.s, action, 1])
        self.k += 1
        return action

    def run_until_stop(self, kernel, max_steps):
        for _ in range(max_steps):
            if self.ctrl.phase == "post":
                return True
            self.step(kernel)
        return self.ctrl.phase == "post"


class TestGlrController:
    def test_reset_before_stop_raises(self, rng):
        models = three_models(rng)
        ctrl = GlrController(models, 0, threshold_a=8.0, threshold_b=1.0,
                             window=30, beta=0.9)
        with pytest.raises(StateError):
            glr_reset(ctrl)

    def test_two_change_points_resolved(self, rng):
        models = three_models(rng)
        ctrl = GlrController(models, 0, threshold_a=6.0, threshold_b=1.0,
                             window=40, beta=0.9)
        episode = _GlrEpisode(ctrl, seed=3)
        # segment under model 1: must stop and identify it
        assert episode.run_until_stop(models[1].kernel, 400)
        assert ctrl.estimated_index == 1
        first_tau = ctrl.tau_switch

        ctrl = glr_reset(ctrl)
        assert ctrl.pre_index == 1
        assert ctrl.detector.state.n == 0 and not ctrl.detector.stopped
        np.testing.assert_array_equal(
            ctrl.pi_pre, value_iteration(models[1], 0.9).policy)

        # second segment back under model 0: stops again on the new baseline
        episode2 = _GlrEpisode(ctrl, seed=4)
        assert episode2.run_until_stop(models[0].kernel, 400)
        assert ctrl.estimated_index == 0
        assert first_tau is not None and ctrl.tau_switch is not None

    def test_one_change_equivalent_to_non_reset(self, rng):
        models = three_models(rng)
        plain = GlrController(models, 0, 6.0, 1.0, 40, beta=0.9)
        episode = _GlrEpisode(plain, seed=9)
        assert episode.run_until_stop(models[1].kernel, 500)
        resetting = glr_reset(plain)
        # identical actions afterward as long as no second stop fires
        for s in (0, 1, 0, 1):
            assert plain.pi_post[s] == resetting.pi_pre[s]

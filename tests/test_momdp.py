"""Tests for the latent-regime POMDP construction and belief-grid solver."""

import math

import numpy as np
import pytest

from nsmdp.detectors import (log_likelihood_ratio, new_detector_state,
                             posterior_from_log_shiryaev, shiryaev_step)
from nsmdp.errors import ModelError, NumericalError
from nsmdp.mdp import TabularMdp, value_iteration
from nsmdp.momdp import (MomdpSolution, belief_grid_solve, belief_step,
                         belief_update, build_pomdp)

from util import random_kernel, random_mdp


def toy_pair(rng, n_states=2, n_actions=2):
    m0 = random_mdp(n_states, n_actions, rng, min_prob=0.15)
    m1 = TabularMdp(kernel=random_kernel(n_states, n_actions, rng, min_prob=0.15),
                    cost=rng.random((n_states, n_actions)) * 2.0)
    return m0, m1


class TestBuildPomdp:
    def test_rho_zero_reduces_to_standalone_models(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.0)
        # no cross-regime mass, each slice is the standalone kernel
        assert pomdp.t_joint[:, 0, :, :, 1].sum() == 0.0
        np.testing.assert_allclose(pomdp.t_joint[:, 0, :, :, 0], m0.kernel)
        np.testing.assert_allclose(pomdp.t_joint[:, 1, :, :, 1], m1.kernel)

    def test_post_change_regime_absorbing(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.3)
        assert pomdp.regime_matrix[1, 0] == 0.0
        assert pomdp.regime_matrix[1, 1] == 1.0
        assert pomdp.t_joint[:, 1, :, :, 0].sum() == 0.0

    def test_joint_rows_stochastic(self, rng):
        m0, m1 = toy_pair(rng, n_states=3, n_actions=2)
        pomdp = build_pomdp(m0, m1, rho=0.07)
        sums = pomdp.t_joint.sum(axis=(3, 4))
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_costs_follow_current_regime(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.1)
        np.testing.assert_allclose(pomdp.cost[:, 0, :], m0.cost)
        np.testing.assert_allclose(pomdp.cost[:, 1, :], m1.cost)

    def test_mismatched_spaces_rejected(self, rng):
        m0 = random_mdp(2, 2, rng)
        m1 = random_mdp(3, 2, rng)
        with pytest.raises(ModelError):
            build_pomdp(m0, m1, rho=0.1)


class TestBeliefUpdate:
    def test_absorbing_at_one(self, rng):
        m0, m1 = toy_pair(rng)
        b = belief_update(1.0, 0, 0, 1, m0.kernel, m1.kernel, rho=0.05)
        assert b == 1.0

    def test_belief_outside_unit_interval_rejected(self, rng):
        m0, m1 = toy_pair(rng)
        for b in (-0.1, 1.5):
            with pytest.raises(ValueError):
                belief_update(b, 0, 0, 1, m0.kernel, m1.kernel, rho=0.05)

    def test_pure_prior_drift_when_kernels_equal(self, rng):
        kernel = random_kernel(2, 2, rng)
        rho, b = 0.04, 0.3
        out = belief_update(b, 0, 1, 1, kernel, kernel, rho)
        assert out == pytest.approx(b + (1 - b) * rho, abs=1e-12)

    def test_drift_closed_form(self, rng):
        kernel = random_kernel(2, 1, rng)
        rho, b = 0.08, 0.0
        for n in range(1, 12):
            b = belief_update(b, 0, 0, 1, kernel, kernel, rho)
            assert b == pytest.approx(1 - (1 - rho) ** n, abs=1e-12)

    def test_matches_shiryaev_posterior(self, rng):
        # the belief filter and the running-statistic posterior are the same
        # Bayes computation; agreement must be at float accuracy
        rho = 0.02
        for _ in range(30):
            k0 = random_kernel(3, 2, rng)
            k1 = random_kernel(3, 2, rng)
            b = 0.0
            state = new_detector_state("shiryaev")
            for _ in range(15):
                s, a, s2 = (int(rng.integers(3)), int(rng.integers(2)),
                            int(rng.integers(3)))
                b = belief_update(b, s, a, s2, k0, k1, rho)
                lr = math.exp(log_likelihood_ratio(k0, k1, s, a, s2))
                state = shiryaev_step(state, lr, rho)
                assert b == pytest.approx(
                    posterior_from_log_shiryaev(state.log_stat, rho), abs=1e-9)

    def test_impossible_under_pre_model_drives_belief_up(self):
        k0 = np.array([[[1.0, 0.0]]])
        k1 = np.array([[[0.2, 0.8]]])
        b = belief_update(0.1, 0, 0, 1, k0, k1, rho=0.01)
        assert b > 1.0 - 1e-9

    def test_zero_normalizer_raises_without_flooring(self):
        k0 = np.array([[[1.0, 0.0]]])
        k1 = np.array([[[1.0, 0.0]]])
        with pytest.raises(NumericalError):
            belief_update(0.0, 0, 0, 1, k0, k1, rho=0.0, eps_prob=0.0)


class TestBeliefGridSolve:
    def test_zero_rho_grid_recovers_both_models(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.0)
        sol = belief_grid_solve(pomdp, grid_size=41, beta=0.9, tol=1e-9)
        v0 = value_iteration(m0, 0.9, 1e-11).value
        v1 = value_iteration(m1, 0.9, 1e-11).value
        np.testing.assert_allclose(sol.value[:, 0], v0, atol=1e-7)
        np.testing.assert_allclose(sol.value[:, -1], v1, atol=1e-7)

    def test_full_belief_recovers_post_model_any_rho(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.1)
        sol = belief_grid_solve(pomdp, grid_size=31, beta=0.9, tol=1e-9)
        v1 = value_iteration(m1, 0.9, 1e-11).value
        np.testing.assert_allclose(sol.value[:, -1], v1, atol=1e-7)
        np.testing.assert_array_equal(sol.policy[:, -1],
                                      value_iteration(m1, 0.9, 1e-11).policy)

    def test_bellman_residual_within_tolerance(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.05)
        tol = 1e-7
        sol = belief_grid_solve(pomdp, grid_size=21, beta=0.9, tol=tol)
        # recompute one Bellman sweep over the returned value function
        resid = _bellman_residual(sol, beta=0.9)
        assert resid <= tol

    def test_value_monotone_under_grid_refinement(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.05)
        sols = {g: belief_grid_solve(pomdp, grid_size=g, beta=0.9, tol=1e-10)
                for g in (11, 21, 41)}
        # compare on the shared coarse grid points
        d_coarse = np.max(np.abs(sols[11].value - sols[21].value[:, ::2]))
        d_fine = np.max(np.abs(sols[21].value - sols[41].value[:, ::2]))
        assert d_fine <= d_coarse + 1e-12

    def test_greedy_policy_near_exact_tree_optimum(self, rng):
        # exact 5-step enumeration over the (state, belief) tree is the oracle
        m0, m1 = toy_pair(rng)
        rho, beta, depth = 0.1, 0.9, 5
        pomdp = build_pomdp(m0, m1, rho)
        sol = belief_grid_solve(pomdp, grid_size=101, beta=beta, tol=1e-10)
        opt = _tree_value(pomdp, 0, 0.0, depth, beta, None)
        actual = _tree_value(pomdp, 0, 0.0, depth, beta, sol)
        assert actual <= opt * 1.02 + 1e-9
        assert actual >= opt - 1e-9

    def test_grid_size_validation(self, rng):
        m0, m1 = toy_pair(rng)
        with pytest.raises(ValueError):
            belief_grid_solve(build_pomdp(m0, m1, 0.1), grid_size=1)


def _expected_step(pomdp, s, b, a):
    rho = pomdp.rho
    pred = b + (1 - b) * rho
    cost = (1 - pred) * pomdp.mdp0.cost[s, a] + pred * pomdp.mdp1.cost[s, a]
    probs = (1 - pred) * pomdp.mdp0.kernel[s, a] + pred * pomdp.mdp1.kernel[s, a]
    return pred, cost, probs


def _tree_value(pomdp, s, b, depth, beta, solution):
    """Exact finite-horizon value by branching over next states; follows the
    gridded policy when `solution` is given, otherwise minimizes."""
    if depth == 0:
        return 0.0
    actions = (pomdp.mdp0.feasible[s] if solution is None
               else (solution.action(s, b),))
    best = math.inf
    for a in actions:
        pred, cost, probs = _expected_step(pomdp, s, b, a)
        total = cost
        for s2, p in enumerate(probs):
            if p <= 0:
                continue
            b2 = belief_update(b, s, a, s2, pomdp.mdp0.kernel, pomdp.mdp1.kernel,
                               pomdp.rho)
            total += beta * p * _tree_value(pomdp, s2, b2, depth - 1, beta, solution)
        best = min(best, total)
    return best


def _bellman_residual(sol: MomdpSolution, beta: float) -> float:
    pomdp = sol.pomdp
    n_s, g = sol.value.shape
    worst = 0.0
    for s in range(n_s):
        for gi, b in enumerate(sol.grid):
            best = math.inf
            for a in pomdp.mdp0.feasible[s]:
                pred, cost, probs = _expected_step(pomdp, s, b, a)
                total = cost
                for s2, p in enumerate(probs):
                    if p <= 0:
                        continue
                    b2 = belief_update(b, s, a, s2, pomdp.mdp0.kernel,
                                       pomdp.mdp1.kernel, pomdp.rho)
                    pos = b2 * (g - 1)
                    lo = min(int(pos), g - 2)
                    w = pos - lo
                    total += beta * p * ((1 - w) * sol.value[s2, lo]
                                         + w * sol.value[s2, lo + 1])
                best = min(best, total)
            worst = max(worst, abs(sol.value[s, gi] - best))
    return worst


class TestMomdpController:
    """The belief filter pins the belief at 0 (rho = 0) or 1, and the grid
    policy there is the pre- or post-change optimal policy."""

    def test_acts_as_pre_model_with_zero_belief(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.0)
        sol = belief_grid_solve(pomdp, grid_size=21, beta=0.9, tol=1e-9)
        pi0 = value_iteration(m0, 0.9, 1e-11).policy
        s, b = 0, 0.0
        for obs in (1, 0, 1, 1, 0):
            b = belief_update(b, s, int(pi0[s]), obs, m0.kernel, m1.kernel, 0.0)
            assert b == 0.0
            assert sol.action(obs, b) == pi0[obs]
            s = obs
        lr = np.exp(rng.uniform(-3.0, 3.0, 8))
        assert np.all(belief_step(np.zeros(8), lr, 0.0) == 0.0)
        np.testing.assert_array_equal(sol.action(np.array([0, 1]), np.zeros(2)), pi0)

    def test_acts_as_post_model_with_pinned_belief(self, rng):
        m0, m1 = toy_pair(rng)
        pomdp = build_pomdp(m0, m1, rho=0.2)
        sol = belief_grid_solve(pomdp, grid_size=21, beta=0.9, tol=1e-9)
        pi1 = value_iteration(m1, 0.9, 1e-11).policy
        s, b = 1, 1.0
        for obs in (0, 1, 0):
            b = belief_update(b, s, 0, obs, m0.kernel, m1.kernel, 0.2)
            assert b == 1.0
            assert sol.action(obs, b) == pi1[obs]
            s = obs
        lr = np.exp(rng.uniform(-3.0, 3.0, 8))
        assert np.all(belief_step(np.ones(8), lr, 0.2) == 1.0)
        np.testing.assert_array_equal(sol.action(np.array([0, 1]), np.ones(2)), pi1)

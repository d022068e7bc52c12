"""Tests for the latent-regime POMDP construction and belief-grid solver."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsmdp import momdp as momdp_module
from nsmdp.detectors import (log_likelihood_ratio, new_detector_state,
                             posterior_from_log_shiryaev, shiryaev_step)
from nsmdp.errors import ModelError, NumericalError
from nsmdp.inventory import InventoryParams, build_env
from nsmdp.mdp import TabularMdp, action_mask, value_iteration
from nsmdp.momdp import (MomdpSolution, belief_grid_solve, belief_step, belief_update,
                         build_pomdp)

from util import belief_grid_oracle, belief_grid_solve_frozen, random_kernel, random_mdp


def toy_pair(rng, n_states=2, n_actions=2):
    m0 = random_mdp(n_states, n_actions, rng, min_prob=0.15)
    m1 = TabularMdp(kernel=random_kernel(n_states, n_actions, rng, min_prob=0.15),
                    cost=rng.random((n_states, n_actions)) * 2.0)
    return m0, m1


def inventory_pomdp(capacity=5, penalty=100.0):
    """Capacity 5 by default: (s, a) pairs with one order-up-to level share
    their transition rows, and infeasible pairs (s + a > 5) have zero rows."""
    env = build_env(InventoryParams(capacity=capacity, order_cost=1.0, holding_cost=5.0,
                                    penalty=penalty, demand_rate=2.0))
    return build_pomdp(env.mdp_pre, env.mdp_post, rho=0.01)


@st.composite
def random_pomdps(draw):
    """Random two-regime models: each state allows a random non-empty subset
    of the actions (infeasible kernel rows all-zero), kernel rows are often
    near-sparse, costs come on two scales, and rho is 0, 0.05 or 0.3."""
    n_states, n_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feasible = tuple(tuple(sorted(draw(st.sets(st.integers(0, n_actions - 1), min_size=1))))
                     for _ in range(n_states))
    scale = draw(st.sampled_from((1.0, 100.0)))
    mdps = []
    for _ in range(2):
        kernel = rng.random((n_states, n_actions, n_states)) ** 3
        kernel /= kernel.sum(axis=2, keepdims=True)
        kernel[~action_mask(feasible, n_actions)] = 0.0
        mdps.append(TabularMdp(kernel=kernel, cost=rng.random((n_states, n_actions)) * scale,
                               feasible=feasible))
    return build_pomdp(*mdps, rho=draw(st.sampled_from((0.0, 0.05, 0.3))))


class TestBuildPomdp:
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

    @pytest.mark.parametrize("rho", [1.5, -3.0, 1.0, math.nan])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # the [0, 1] clamp would otherwise return 1.0, or let NaN through
        k0 = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
        k1 = np.array([[[0.2, 0.8]], [[0.5, 0.5]]])
        with pytest.raises(ValueError, match="rho"):
            belief_update(0.2, 0, 0, 1, k0, k1, rho)

    @pytest.mark.parametrize("s, a, s_next", [(-1, 0, 1), (2, 0, 1), (0, -1, 1),
                                              (0, 2, 1), (0, 0, -1), (0, 0, 2)])
    def test_index_outside_kernel_rejected(self, rng, s, a, s_next):
        # a negative index would otherwise wrap to the last state or action
        m0, m1 = toy_pair(rng)
        with pytest.raises(ValueError, match="outside the kernels"):
            belief_update(0.2, s, a, s_next, m0.kernel, m1.kernel, 0.01)

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_validation(self, rng, tol):
        m0, m1 = toy_pair(rng)
        with pytest.raises(ValueError, match="tol"):
            belief_grid_solve(build_pomdp(m0, m1, 0.1), grid_size=11, tol=tol)

    @pytest.mark.parametrize("model", ["toy_distinct_rows", "toy_rho_zero",
                                       "inventory_shared_rows", "inventory_benchmark_scale"])
    def test_matches_full_table_oracle(self, rng, model):
        if model == "inventory_shared_rows":
            pomdp, kwargs = inventory_pomdp(), dict(grid_size=41, beta=0.95, tol=1e-8)
        elif model == "inventory_benchmark_scale":    # one of the table instances
            pomdp = inventory_pomdp(capacity=10, penalty=300.0)
            kwargs = dict(grid_size=201, beta=0.99, tol=1e-6)
        else:
            m0, m1 = toy_pair(rng, n_states=3, n_actions=2)
            rho = 0.0 if model == "toy_rho_zero" else 0.05
            pomdp, kwargs = build_pomdp(m0, m1, rho), dict(grid_size=31, beta=0.9, tol=1e-9)
        k0, k1 = pomdp.mdp0.kernel, pomdp.mdp1.kernel
        n_states, n_actions = k0.shape[:2]
        _, row = np.unique(np.concatenate([k0, k1], axis=2).reshape(n_states * n_actions, -1),
                           axis=0, return_inverse=True)
        row = row.reshape(n_states, n_actions)
        assert (row.max() + 1 < row.size) == model.startswith("inventory")
        sol = assert_matches_oracle(pomdp, **kwargs)
        if model == "inventory_benchmark_scale":
            # the greedy policy's cells share (row pair, grid point) continuations
            grid_size = kwargs["grid_size"]
            cells = row[np.arange(n_states)[:, None], sol.policy] * grid_size + np.arange(grid_size)
            assert len(np.unique(cells)) < cells.size

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(pomdp=random_pomdps(), grid_size=st.integers(11, 101),
           beta=st.sampled_from((0.0, 0.5, 0.9, 0.99, 0.999)))
    def test_random_pomdps_match_oracle(self, pomdp, grid_size, beta):
        assert_matches_oracle(pomdp, grid_size, beta, tol=1e-8)

    def test_stalling_krylov_cycles_fall_back_to_sweeps(self):
        # near-deterministic transitions and rho = 0: GMRES restarted every
        # KRYLOV_DIM products stalls on some evaluations here, and only the
        # fixed-point sweeps that replace a stalled cycle let it finish
        feasible = ((0,), (0, 1))
        m0 = TabularMdp(kernel=np.array([[[0.1, 0.9], [0, 0]], [[0.07, 0.93], [0.13, 0.87]]]),
                        cost=np.array([[0.4, 0.0], [0.06, 0.87]]), feasible=feasible)
        m1 = TabularMdp(kernel=np.array([[[0.4, 0.6], [0, 0]], [[0.003, 0.997], [0.6, 0.4]]]),
                        cost=np.array([[0.39, 0.0], [0.8, 0.38]]), feasible=feasible)
        assert_matches_oracle(build_pomdp(m0, m1, 0.0), grid_size=101, beta=0.999, tol=1e-6)

    def test_iteration_cap_raises(self, monkeypatch, rng):
        monkeypatch.setattr(momdp_module, "PI_MAX_ITER", 0)
        with pytest.raises(NumericalError, match="did not settle"):
            belief_grid_solve(build_pomdp(*toy_pair(rng), 0.05), grid_size=11, beta=0.9)

    def test_unreachable_tol_raises_within_the_product_budget(self, rng):
        # no evaluation reaches a residual of tol / 10 = 1e-301; the products
        # run out at about twice the 1000 sweeps that would reach it at beta = 0.5
        with pytest.raises(NumericalError, match=r"evaluation residual .* after \d+ products"):
            belief_grid_solve(build_pomdp(*toy_pair(rng), 0.05), grid_size=11, beta=0.5,
                              tol=1e-300)

    def test_inventory_bellman_residual_within_tolerance(self):
        tol = 1e-7
        sol = belief_grid_solve(inventory_pomdp(), grid_size=41, beta=0.95, tol=tol)
        assert _bellman_residual(sol, beta=0.95) <= tol


def assert_bits_equal_frozen(pomdp, grid_size, beta, tol):
    """belief_grid_solve's value, policy and deltas have the bytes of the
    frozen solver's, or both raise the same error."""
    try:
        ref = belief_grid_solve_frozen(pomdp, grid_size=grid_size, beta=beta, tol=tol)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=re.escape(str(exc))):
            belief_grid_solve(pomdp, grid_size=grid_size, beta=beta, tol=tol)
        return
    sol = belief_grid_solve(pomdp, grid_size=grid_size, beta=beta, tol=tol)
    assert sol.value.tobytes() == ref.value.tobytes()
    assert sol.policy.tobytes() == ref.policy.tobytes()
    assert np.array(sol.deltas).tobytes() == np.array(ref.deltas).tobytes()


class TestBitsEqualFrozenSolver:
    """The fixed-policy product, the per-key grouping and the GMRES
    rotations may change how they work, never a bit of what they return."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(pomdp=random_pomdps(), grid_size=st.integers(2, 101),
           beta=st.sampled_from((0.0, 0.5, 0.9, 0.99, 0.999)),
           tol=st.sampled_from((1e-6, 1e-9)))
    def test_random_pomdps(self, pomdp, grid_size, beta, tol):
        assert_bits_equal_frozen(pomdp, grid_size, beta, tol)

    @pytest.mark.parametrize("capacity", (10, 20))
    @pytest.mark.parametrize("penalty", (100.0, 200.0, 300.0))
    def test_table_instances(self, capacity, penalty):
        assert_bits_equal_frozen(inventory_pomdp(capacity, penalty), 201, 0.99, 1e-6)


def assert_matches_oracle(pomdp, grid_size, beta, tol):
    """belief_grid_solve against the sweep loop it replaced: the same policy,
    a brute-force Bellman residual of at most tol, values within the loop's
    tolerance band tol / (1 - beta) widened by the band residual / (1 - beta)
    that this residual puts around the solver's own value, and one finite
    sup-norm change per policy evaluation."""
    sol = belief_grid_solve(pomdp, grid_size=grid_size, beta=beta, tol=tol)
    ref = belief_grid_oracle(pomdp, grid_size=grid_size, beta=beta, tol=tol)
    np.testing.assert_array_equal(sol.grid, ref.grid)
    np.testing.assert_array_equal(sol.policy, ref.policy)
    residual = _bellman_residual(sol, beta)
    assert residual <= tol
    assert np.max(np.abs(sol.value - ref.value)) <= (tol + residual) / (1 - beta)
    assert len(sol.deltas) >= 1 and np.all(np.isfinite(sol.deltas))
    return sol


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

    @pytest.mark.parametrize("s, b", [(-1, 0.0), (5, 0.0), (0, -0.3), (0, 1.7),
                                      (0, math.nan), (np.array([0, 5]), np.zeros(2)),
                                      (np.array([0, 1]), np.array([0.5, -0.01]))])
    def test_action_rejects_state_or_belief_out_of_range(self, s, b):
        # a bad index would otherwise wrap: s = -1 reads the last state's row
        # and b = -0.3 grid column -3; b = 1.7 raised a bare IndexError
        env = build_env(InventoryParams(capacity=4, order_cost=1.0, holding_cost=5.0,
                                        penalty=100.0, demand_rate=2.0))
        sol = belief_grid_solve(build_pomdp(env.mdp_pre, env.mdp_post, rho=0.01),
                                grid_size=11, beta=0.9)
        with pytest.raises(ValueError, match="states in"):
            sol.action(s, b)

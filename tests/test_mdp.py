"""Tests for the tabular MDP core: solvers, stationary distributions and
information numbers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsmdp import mdp as mdp_module
from nsmdp.errors import ModelError, NumericalError
from nsmdp.mdp import (TabularMdp, action_mask, info_number, kl_per_action,
                       max_info_number, policy_evaluation,
                       stationary_distribution, value_iteration)
from nsmdp.inventory import InventoryParams, build_env, build_inventory_mdp, demand_pmf

from util import (enumerate_policies, info_number_oracle, is_order_up_to, random_mdp,
                  value_iteration_oracle)


def chain_mdp():
    # deterministic chain s0 -> s1 -> s1 with costs 0, 1
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 1] = 1.0
    kernel[1, 0, 1] = 1.0
    return TabularMdp(kernel=kernel, cost=np.array([[0.0], [1.0]]))


class TestTabularMdp:
    def test_rejects_non_stochastic_kernel(self):
        kernel = np.ones((1, 1, 1)) * 0.5
        with pytest.raises(ModelError):
            TabularMdp(kernel=kernel, cost=np.zeros((1, 1)))

    def test_rejects_negative_probability(self):
        kernel = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
        with pytest.raises(ModelError):
            TabularMdp(kernel=kernel, cost=np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probability(self, bad):
        kernel = np.array([[[bad, 1.0]], [[0.5, 0.5]]])
        with pytest.raises(ModelError, match=r"s=0, a=0"):
            TabularMdp(kernel=kernel, cost=np.zeros((2, 1)))

    def test_rejects_state_without_actions(self):
        kernel = np.ones((1, 1, 1))
        with pytest.raises(ModelError):
            TabularMdp(kernel=kernel, cost=np.zeros((1, 1)), feasible=((),))

    def test_rejects_non_finite_cost(self):
        kernel = np.ones((1, 1, 1))
        with pytest.raises(ModelError):
            TabularMdp(kernel=kernel, cost=np.array([[np.inf]]))

    def test_infeasible_rows_ignored(self):
        kernel = np.zeros((1, 2, 1))
        kernel[0, 0, 0] = 1.0
        mdp = TabularMdp(kernel=kernel, cost=np.zeros((1, 2)), feasible=((0,),))
        assert mdp.feasible_mask().tolist() == [[True, False]]

    @pytest.mark.parametrize("damage, first", [
        # (bad (s, a) pairs, the error of the first in (s, a) order)
        ({(2, 0): "negative", (1, 1): "nan"},
         r"negative or NaN transition probability at \(s=1, a=1\)"),
        ({(2, 1): "sum", (1, 0): "sum", (0, 1): "cost"}, r"non-finite cost at \(s=0, a=1\)"),
        ({(1, 0): "sum", (1, 1): "negative"},
         r"kernel row \(s=1, a=0\) sums to 1\.500000000000, not 1"),
        ({(2, 1): "cost", (1, 1): "inf"}, r"kernel row \(s=1, a=1\) sums to inf, not 1"),
        ({(0, 0): "cost", (0, 1): "negative"}, r"non-finite cost at \(s=0, a=0\)"),
    ])
    def test_first_bad_pair_in_order_is_named(self, damage, first):
        kernel, cost = np.full((3, 2, 3), 0.5), np.zeros((3, 2))
        kernel[..., 2] = 0.0
        for (s, a), how in damage.items():
            if how == "negative":
                kernel[s, a] = [1.5, -0.5, 0.0]
            elif how == "nan":
                kernel[s, a, 1] = np.nan
            elif how == "inf":
                kernel[s, a, 2] = np.inf
            elif how == "sum":
                kernel[s, a, 2] = 0.5
            else:
                cost[s, a] = np.inf
        with pytest.raises(ModelError, match=f"^{first}$"):
            TabularMdp(kernel=kernel, cost=cost)

    def test_row_of_both_infinities_raises_without_warning(self):
        kernel = np.full((2, 1, 2), 0.5)
        kernel[1, 0] = [np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=r"negative or NaN .* \(s=1, a=0\)"):
                TabularMdp(kernel=kernel, cost=np.zeros((2, 1)))

    @pytest.mark.parametrize("row", [[np.inf, -np.inf], [np.nan, np.nan], [np.inf, np.inf],
                                     [-1.0, 3.0]])
    def test_bad_infeasible_rows_and_costs_ignored(self, row):
        kernel = np.full((2, 2, 2), 0.5)
        kernel[0, 1] = kernel[1, 0] = row
        cost = np.array([[0.0, np.nan], [np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mdp = TabularMdp(kernel=kernel, cost=cost, feasible=((0,), (1,)))
        assert mdp.feasible_mask().tolist() == [[True, False], [False, True]]

    def test_listing_error_after_a_bad_row_comes_second(self):
        kernel = np.full((2, 2, 2), 0.5)
        kernel[0, 0, 0] = np.nan
        with pytest.raises(ModelError, match=r"NaN .* \(s=0, a=0\)"):
            TabularMdp(kernel=kernel, cost=np.zeros((2, 2)), feasible=((0,), (5,)))
        kernel[0, 0, 0] = 0.5
        with pytest.raises(ModelError, match="^action 5 out of range at state 1$"):
            TabularMdp(kernel=kernel, cost=np.zeros((2, 2)), feasible=((0,), (1, 5)))
        with pytest.raises(ModelError, match="^state 1 has no feasible action$"):
            TabularMdp(kernel=kernel, cost=np.zeros((2, 2)), feasible=((0,), ()))


class TestValueIteration:
    def test_single_state_geometric_series(self):
        mdp = TabularMdp(kernel=np.ones((1, 1, 1)), cost=np.array([[1.0]]))
        value, policy, _ = value_iteration(mdp, beta=0.5, tol=1e-10)
        assert value[0] == pytest.approx(2.0, abs=1e-9)
        assert policy.tolist() == [0]

    def test_two_state_chain(self):
        value, policy, _ = value_iteration(chain_mdp(), beta=0.9, tol=1e-10)
        assert value[1] == pytest.approx(10.0, abs=1e-8)
        assert value[0] == pytest.approx(9.0, abs=1e-8)

    def test_argument_errors(self):
        mdp = chain_mdp()
        with pytest.raises(ValueError):
            value_iteration(mdp, beta=0.9, tol=0.0)
        with pytest.raises(ValueError):
            value_iteration(mdp, beta=1.0)

    def test_bellman_residual_bound(self, rng):
        mdp = random_mdp(5, 3, rng)
        value, policy, _ = value_iteration(mdp, beta=0.9, tol=1e-8)
        q = mdp.cost + 0.9 * mdp.kernel @ value
        residual = np.max(np.abs(value - q.min(axis=1)))
        assert residual <= 1e-8
        assert np.array_equal(policy, q.argmin(axis=1))

    def test_contraction_of_iterates(self, rng):
        mdp = random_mdp(6, 2, rng)
        beta = 0.85
        _, _, deltas = value_iteration(mdp, beta=beta, tol=1e-9)
        for prev, cur in zip(deltas, deltas[1:]):
            assert cur <= beta * prev + 1e-12

    def test_greedy_beats_enumerated_policies(self, rng):
        for _ in range(5):
            mdp = random_mdp(3, 3, rng)
            value, _, _ = value_iteration(mdp, beta=0.9, tol=1e-10)
            for policy in enumerate_policies(mdp.feasible):
                v_pi = policy_evaluation(mdp, policy, beta=0.9)
                assert np.all(value <= v_pi + 1e-7)


def assert_matches_oracle(mdp, beta, tol=1e-8):
    """value_iteration against the sweep loop it replaced: the same policy,
    values within the loop's tolerance band tol / (1 - beta), and a Bellman
    residual of at most tol."""
    value, policy, _ = value_iteration(mdp, beta, tol=tol)
    v_oracle, pi_oracle = value_iteration_oracle(mdp, beta, tol=tol)
    np.testing.assert_array_equal(policy, pi_oracle)
    assert np.max(np.abs(value - v_oracle)) <= tol / (1 - beta)
    q = np.where(mdp.feasible_mask(), mdp.cost + beta * mdp.kernel @ value, np.inf)
    assert np.max(np.abs(value - q.min(axis=1))) <= tol


@st.composite
def partial_mdps(draw):
    """Random MDPs where each state allows a random non-empty subset of the
    actions; infeasible kernel rows are left all-zero."""
    n_states, n_actions = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feasible = tuple(tuple(sorted(draw(st.sets(st.integers(0, n_actions - 1), min_size=1))))
                     for _ in range(n_states))
    kernel = rng.random((n_states, n_actions, n_states)) ** 3   # some rows near-sparse
    kernel /= kernel.sum(axis=2, keepdims=True)
    kernel[~action_mask(feasible, n_actions)] = 0.0
    cost = rng.normal(size=(n_states, n_actions)) * draw(st.sampled_from((1.0, 100.0)))
    return TabularMdp(kernel=kernel, cost=cost, feasible=feasible)


class TestPolicyIterationAgainstOracle:
    @pytest.mark.parametrize("beta", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("capacity, penalty", [
        (10, 100.0), (10, 200.0), (10, 300.0), (20, 100.0), (20, 200.0), (20, 300.0),
        (6, 100.0)])   # the criterion-5 table rows and the golden-digest instance
    def test_inventory_instances(self, capacity, penalty, beta):
        env = build_env(InventoryParams(capacity=capacity, order_cost=1.0, holding_cost=5.0,
                                        penalty=penalty, demand_rate=2.0))
        for mdp in (env.mdp_pre, env.mdp_post):
            assert_matches_oracle(mdp, beta)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mdp=partial_mdps(), beta=st.sampled_from((0.0, 0.5, 0.9, 0.99)))
    def test_random_partial_mdps(self, mdp, beta):
        assert_matches_oracle(mdp, beta)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mdp_module, "PI_MAX_ITER", 0)
        with pytest.raises(NumericalError, match="did not settle"):
            value_iteration(chain_mdp(), beta=0.9)

    def test_residual_above_tol_raises(self, paper_env):
        # the exact solve leaves a residual of about 1e-12 at these values
        with pytest.raises(NumericalError, match="residual"):
            value_iteration(paper_env.mdp_pre, beta=0.99, tol=1e-300)


class TestPolicyEvaluation:
    def test_single_state(self):
        mdp = TabularMdp(kernel=np.ones((1, 1, 1)), cost=np.array([[1.0]]))
        v = policy_evaluation(mdp, np.array([0]), beta=0.5)
        assert v[0] == pytest.approx(2.0, abs=1e-10)

    def test_fixed_point_of_greedy_policy(self, rng):
        mdp = random_mdp(4, 2, rng)
        tol = 1e-9
        value, policy, _ = value_iteration(mdp, beta=0.9, tol=tol)
        v_eval = policy_evaluation(mdp, policy, beta=0.9)
        assert np.max(np.abs(v_eval - value)) <= 2 * tol / (1 - 0.9)

    def test_matches_direct_linear_solve(self, rng):
        mdp = random_mdp(3, 2, rng)
        policy = np.array([1, 0, 1])
        v = policy_evaluation(mdp, policy, beta=0.8)
        # independent dense-solve oracle
        idx = np.arange(3)
        p = mdp.kernel[idx, policy]
        c = mdp.cost[idx, policy]
        expected = np.linalg.inv(np.eye(3) - 0.8 * p) @ c
        np.testing.assert_allclose(v, expected, atol=1e-10)

    def test_infeasible_action_error(self):
        kernel = np.zeros((1, 2, 1))
        kernel[0, 0, 0] = 1.0
        mdp = TabularMdp(kernel=kernel, cost=np.zeros((1, 2)), feasible=((0,),))
        with pytest.raises(ValueError):
            policy_evaluation(mdp, np.array([1]), beta=0.5)


class TestStationaryDistribution:
    def test_single_state(self):
        mu = stationary_distribution(np.ones((1, 1, 1)), np.array([0]))
        np.testing.assert_allclose(mu, [1.0])

    def test_symmetric_two_state(self):
        kernel = np.full((2, 1, 2), 0.5)
        mu = stationary_distribution(kernel, np.array([0, 0]))
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_asymmetric_two_state(self):
        kernel = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
        mu = stationary_distribution(kernel, np.array([0, 0]))
        np.testing.assert_allclose(mu, [2 / 3, 1 / 3], atol=1e-12)

    def test_residual_invariant(self, rng):
        kernel = random_mdp(5, 2, rng).kernel
        policy = np.array([0, 1, 0, 1, 0])
        mu = stationary_distribution(kernel, policy)
        p = kernel[np.arange(5), policy]
        assert np.max(np.abs(mu @ p - mu)) <= 1e-9
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reducible_chain_raises(self):
        # two disconnected self-loop states: no unique stationary law
        kernel = np.zeros((2, 1, 2))
        kernel[0, 0, 0] = 1.0
        kernel[1, 0, 1] = 1.0
        with pytest.raises(NumericalError):
            stationary_distribution(kernel, np.array([0, 0]))


def kl_one(p, q) -> float:
    """KL(p || q) through `kl_per_action` on one (1, 1, n) row pair."""
    return float(kl_per_action(np.reshape(p, (1, 1, -1)), np.reshape(q, (1, 1, -1)))[0, 0])


class TestKlStep:
    """One transition row's KL, through `kl_per_action`."""

    def test_identical_distributions(self):
        assert kl_one([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_hand_computed_value(self):
        # 0.9 ln 1.8 + 0.1 ln 0.2
        assert kl_one([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.368, abs=1e-3)

    def test_degenerate_distribution(self):
        assert kl_one([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_non_negative_and_zero_iff_equal(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_one(p, q) >= 0.0
            assert kl_one(p, p) == 0.0
            if np.max(np.abs(p - q)) > 0.05:
                assert kl_one(p, q) > 0.0

    def test_support_mismatch_is_finite(self):
        val = kl_one([0.5, 0.5], [1.0, 0.0])
        assert np.isfinite(val) and val > 10


class TestInfoNumber:
    def test_zero_when_kernels_equal(self, rng):
        kernel = random_mdp(3, 2, rng).kernel
        for policy in enumerate_policies(((0, 1),) * 3):
            assert info_number(kernel, kernel, policy) == 0.0

    def test_iid_rows_equal_kl(self):
        # every state behaves identically, so the stationary weighting is moot
        k1 = np.tile(np.array([0.9, 0.1]), (2, 1, 1)).reshape(2, 1, 2)
        k0 = np.tile(np.array([0.5, 0.5]), (2, 1, 1)).reshape(2, 1, 2)
        val = info_number(k0, k1, np.array([0, 0]))
        assert val == pytest.approx(0.368, abs=1e-3)

    def test_matches_power_iteration_oracle(self, rng):
        k0 = random_mdp(4, 2, rng).kernel
        k1 = random_mdp(4, 2, rng).kernel
        policy = np.array([0, 1, 1, 0])
        expected = info_number_oracle(k0, k1, policy)
        assert info_number(k0, k1, policy) == pytest.approx(expected, abs=1e-9)


class TestMaxInfoNumber:
    def test_zero_when_kernels_equal(self, rng):
        kernel = random_mdp(3, 3, rng).kernel
        gain, _ = max_info_number(kernel, kernel)
        assert abs(gain) <= 1e-8

    def test_two_action_selector(self):
        # action 0 carries no information, action 1 carries 0.368 nats
        k0 = np.zeros((2, 2, 2))
        k1 = np.zeros((2, 2, 2))
        for s in range(2):
            k0[s, 0] = k1[s, 0] = [0.5, 0.5]
            k0[s, 1] = [0.5, 0.5]
            k1[s, 1] = [0.9, 0.1]
        gain, policy = max_info_number(k0, k1)
        assert gain == pytest.approx(0.368, abs=1e-3)
        assert policy.tolist() == [1, 1]

    def test_matches_policy_enumeration(self, rng):
        for n_states, n_actions in ((2, 2), (3, 3)):
            k0 = random_mdp(n_states, n_actions, rng).kernel
            k1 = random_mdp(n_states, n_actions, rng).kernel
            gain, policy = max_info_number(k0, k1)
            feasible = tuple(tuple(range(n_actions)) for _ in range(n_states))
            best = max(info_number(k0, k1, pi) for pi in enumerate_policies(feasible))
            assert gain == pytest.approx(best, abs=1e-6)
            assert info_number(k0, k1, policy) == pytest.approx(best, abs=1e-6)

    def test_dominates_random_policies(self, paper_env, paper_policies, rng):
        k0, k1 = paper_env.mdp_pre.kernel, paper_env.mdp_post.kernel
        feasible = paper_env.mdp_pre.feasible
        gain, _ = max_info_number(k0, k1, feasible)
        for policy in (paper_policies.pi_pre, paper_policies.pi_post,
                       paper_policies.pi_probe):
            assert gain >= info_number(k0, k1, policy) - 1e-8
        for _ in range(100):
            policy = np.array([acts[rng.integers(len(acts))] for acts in feasible])
            assert gain >= info_number(k0, k1, policy) - 1e-8


class TestInventoryPolicyStructure:
    def test_miniature_brute_force_is_order_up_to(self):
        params = InventoryParams(capacity=3, order_cost=1.0, holding_cost=5.0,
                                 penalty=100.0, demand_rate=2.0)
        mdp = build_inventory_mdp(params, demand_pmf("poisson", rate=params.demand_rate))
        value, policy, _ = value_iteration(mdp, beta=0.9, tol=1e-10)
        best_cost, best_policy = math.inf, None
        for candidate in enumerate_policies(mdp.feasible):
            cost = policy_evaluation(mdp, candidate, beta=0.9).sum()
            if cost < best_cost - 1e-9:
                best_cost, best_policy = cost, candidate
        assert np.array_equal(policy, best_policy)
        assert is_order_up_to(best_policy)

    def test_full_instance_policy_monotone(self):
        params = InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                                 penalty=100.0, demand_rate=2.0)
        mdp = build_inventory_mdp(params, demand_pmf("poisson", rate=params.demand_rate))
        _, policy, _ = value_iteration(mdp, beta=0.99, tol=1e-9)
        assert np.all(np.diff(policy) <= 0)
        assert is_order_up_to(policy)

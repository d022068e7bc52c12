"""Tests for the inventory environment: pmfs, kernels, costs, simulation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsmdp.engine import EpisodeSetup, simulate_batch
from nsmdp.inventory import (GUIDE_BUCKETS, ChangeSpec, InventoryParams, build_env,
                             build_inventory_mdp, demand_from_uniform, demand_pmf,
                             poisson_cap, sample_change_point)

from util import inventory_mdp_oracle


class TestDemandPmf:
    def test_uniform_two_atoms(self):
        np.testing.assert_allclose(demand_pmf("uniform", u_max=1), [0.5, 0.5])

    def test_poisson_at_zero(self):
        pmf = demand_pmf("poisson", rate=2.0)
        assert pmf[0] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_poisson_recurrence_matches_closed_form(self):
        pmf = demand_pmf("poisson", rate=2.0)
        for k in range(10):
            expected = math.exp(-2.0) * 2.0 ** k / math.factorial(k)
            assert pmf[k] == pytest.approx(expected, rel=1e-12)

    def test_truncated_pmf_sums_to_one_exactly(self):
        for rate in (0.5, 2.0, 9.0):
            assert demand_pmf("poisson", rate=rate).sum() == 1.0

    def test_cap_grows_with_rate(self):
        assert poisson_cap(2.0) == 60
        assert poisson_cap(100.0) == 200

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            demand_pmf("poisson", rate=-1.0)
        with pytest.raises(ValueError):
            demand_pmf("uniform", u_max=-1)
        with pytest.raises(ValueError):
            demand_pmf("normal", rate=1.0)


def miniature_params():
    return InventoryParams(capacity=3, order_cost=1.0, holding_cost=5.0,
                           penalty=100.0, demand_rate=2.0)


class TestBuildInventoryMdp:
    def test_kernel_matches_convolution_oracle(self):
        mdp = build_inventory_mdp(miniature_params(), "poisson")
        pmf = demand_pmf("poisson", rate=2.0)
        for s in range(4):
            for a in range(4 - s):
                y = s + a
                for j in range(4):
                    if j == 0:
                        expected = sum(pmf[w] for w in range(len(pmf)) if w >= y)
                    elif j <= y:
                        expected = pmf[y - j] if y - j < len(pmf) else 0.0
                    else:
                        expected = 0.0
                    assert mdp.kernel[s, a, j] == pytest.approx(expected, abs=1e-12)

    def test_cost_matches_brute_force_expectation(self):
        params = miniature_params()
        for kind in ("poisson", "uniform"):
            mdp = build_inventory_mdp(params, kind)
            pmf = (demand_pmf("poisson", rate=2.0) if kind == "poisson"
                   else demand_pmf("uniform", u_max=params.uniform_max))
            for s in range(4):
                for a in range(4 - s):
                    y = s + a
                    expected = sum(
                        p * (1.0 * a + 5.0 * max(0, y - w) + 100.0 * max(0, w - y))
                        for w, p in enumerate(pmf))
                    assert mdp.cost[s, a] == pytest.approx(expected, abs=1e-10)

    def test_empty_stock_cost_is_penalty_times_mean_demand(self):
        mdp = build_inventory_mdp(miniature_params(), "poisson")
        assert mdp.cost[0, 0] == pytest.approx(100.0 * 2.0, abs=1e-9)

    def test_zero_demand_regime_is_deterministic(self):
        # uniform with u_max = 0 puts all mass on zero demand
        params = InventoryParams(capacity=3, order_cost=1.0, holding_cost=5.0,
                                 penalty=100.0, demand_rate=2.0, uniform_max=0)
        mdp = build_inventory_mdp(params, "uniform")
        s, a = 1, 2      # fill to capacity
        assert mdp.kernel[s, a, 3] == 1.0
        assert mdp.cost[s, a] == pytest.approx(1.0 * a + 5.0 * 3, abs=1e-12)

    def test_kernels_stochastic_both_regimes(self):
        params = InventoryParams(capacity=10, order_cost=1.0, holding_cost=5.0,
                                 penalty=100.0, demand_rate=2.0)
        for kind in ("poisson", "uniform"):
            mdp = build_inventory_mdp(params, kind)
            sums = mdp.kernel.sum(axis=2)[mdp.feasible_mask()]
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_default_uniform_support_is_capacity(self):
        params = miniature_params()
        assert params.uniform_max == params.capacity


@st.composite
def inventory_params(draw):
    """Capacity 1 to 40, u_max 0, below, at or above it, a range of demand
    rates (the Poisson cap moves with the rate) and of costs."""
    capacity = draw(st.integers(1, 40))
    uniform_max = draw(st.one_of(st.just(0), st.integers(0, capacity - 1),
                                 st.just(capacity), st.integers(capacity + 1, 120)))
    cost = st.floats(0.0, 1e4, allow_subnormal=False)
    return InventoryParams(capacity=capacity, order_cost=draw(cost), holding_cost=draw(cost),
                           penalty=draw(cost), demand_rate=draw(st.floats(0.01, 150.0)),
                           uniform_max=uniform_max)


class TestBuildMatchesLoopOracle:
    @settings(max_examples=60, deadline=None)
    @given(params=inventory_params())
    def test_kernel_cost_and_feasible_bit_for_bit(self, params):
        for kind in ("poisson", "uniform"):
            mdp = build_inventory_mdp(params, kind)
            kernel, cost, feasible = inventory_mdp_oracle(params, kind)
            assert mdp.kernel.tobytes() == kernel.tobytes()
            assert mdp.cost.tobytes() == cost.tobytes()
            assert mdp.feasible == feasible


def traced_runs(env, kind, n_runs, horizon, pi=None, seed=0):
    """Traced engine runs under the pre-change demand law."""
    setup = EpisodeSetup(env=env, policy_kind=kind, change=ChangeSpec(kind="never"),
                         horizon=horizon, beta=0.9, pi_pre=pi, pi_post=pi)
    return simulate_batch(setup, seed, np.arange(n_runs), trace=True).trace


class TestSimulateStep:
    """The engine's transition step: s' = max(0, s + a - w)."""

    def test_zero_demand_keeps_order(self):
        env = replace(build_env(miniature_params()), pmf_pre=np.array([1.0]))
        tr = traced_runs(env, "oracle", 2, 6, pi=np.array([1, 1, 1, 0]))
        assert np.all(tr["demand"] == 0)
        np.testing.assert_array_equal(tr["state"][:, 1:],
                                      tr["state"][:, :-1] + tr["action"][:, :-1])
        assert tr["state"][0].tolist() == [0, 1, 2, 3, 3, 3]

    def test_excess_demand_floors_at_zero(self):
        # demand always 4, above any stock level of the capacity-3 instance
        env = replace(build_env(miniature_params()),
                      pmf_pre=np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        tr = traced_runs(env, "random", 4, 10)
        assert np.all(tr["demand"] == 4)
        assert np.any(tr["action"] > 0)
        assert np.all(tr["state"] == 0)

    def test_frequencies_match_kernel(self):
        env = build_env(miniature_params())
        tr = traced_runs(env, "random", 1000, 200, seed=42)
        s = tr["state"][:, :-1].astype(int).ravel()
        a = tr["action"][:, :-1].astype(int).ravel()
        s_next = tr["state"][:, 1:].astype(int).ravel()
        counts = np.zeros((4, 4, 4))
        np.add.at(counts, (s, a, s_next), 1)
        for s0 in range(4):
            for a0 in range(4 - s0):
                n = counts[s0, a0].sum()
                assert n >= 1000
                for j in range(4):
                    p = env.mdp_pre.kernel[s0, a0, j]
                    sigma = math.sqrt(p * (1 - p) / n)
                    assert abs(counts[s0, a0, j] / n - p) <= 4 * sigma + 1e-6


@st.composite
def cdfs_and_uniforms(draw):
    """A CDF of a random pmf with zero-mass atoms and atoms far below one
    bucket's width, and uniforms on its entries, just beside them, on bucket
    edges and at random."""
    weights = draw(st.lists(st.sampled_from((0.0, 1e-12, 1e-4, 0.3, 1.0, 7.0)),
                            min_size=1, max_size=80).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = np.array(weights) * rng.random(len(weights))
    cdf = np.cumsum(pmf / pmf.sum())
    if draw(st.booleans()):
        # as the engine does, keeping the CDF sorted
        cdf = np.minimum(cdf, 1.0)
        cdf[-1] = 1.0
    u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        rng.integers(0, GUIDE_BUCKETS, 20) / GUIDE_BUCKETS, [0.0, 1.0],
                        rng.random(200)))
    return cdf, rng.permutation(u)


class TestDemandFromUniform:
    """The guide-table inverse CDF against np.searchsorted."""

    @settings(max_examples=200, deadline=None)
    @given(case=cdfs_and_uniforms())
    def test_equals_searchsorted(self, case):
        cdf, u = case
        expected = np.searchsorted(cdf, u, side="right")
        got = demand_from_uniform(cdf, u)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(demand_from_uniform(cdf, u[:12].reshape(3, 4)),
                                      expected[:12].reshape(3, 4))

    def test_scalar_and_empty_uniforms(self):
        cdf = np.cumsum(demand_pmf("uniform", u_max=3))
        for u in (0.0, 0.25, 0.2499, 0.75, 0.999):
            got = demand_from_uniform(cdf, u)
            assert np.ndim(got) == 0 and got == np.searchsorted(cdf, u, side="right")
        assert demand_from_uniform(cdf, np.empty((0, 3))).shape == (0, 3)


class TestChangeSpec:
    def test_fixed_change_point(self):
        rng = np.random.default_rng(0)
        spec = ChangeSpec(kind="fixed", gamma=7)
        assert all(sample_change_point(spec, rng) == 7.0 for _ in range(5))

    def test_never_returns_infinity(self):
        rng = np.random.default_rng(0)
        assert math.isinf(sample_change_point(ChangeSpec(kind="never"), rng))

    def test_geometric_mean(self):
        rng = np.random.default_rng(7)
        spec = ChangeSpec(kind="geometric", rho=0.01)
        draws = [sample_change_point(spec, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(100.0, abs=2.0)
        assert min(draws) >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangeSpec(kind="geometric", rho=0.0)
        with pytest.raises(ValueError):
            ChangeSpec(kind="fixed", gamma=0)
        with pytest.raises(ValueError):
            ChangeSpec(kind="sometimes")

    @pytest.mark.parametrize("gamma", [1.5, 2.0, True, "3"])
    def test_non_integer_gamma_rejected(self, gamma):
        # a float gamma would simulate as its ceiling while runs.csv reports
        # it as given
        with pytest.raises(ValueError, match="gamma"):
            ChangeSpec(kind="fixed", gamma=gamma)
        spec = ChangeSpec(kind="fixed", gamma=np.int64(3))
        assert sample_change_point(spec, np.random.default_rng(0)) == 3.0


class TestParamsValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            InventoryParams(capacity=0, order_cost=1, holding_cost=1,
                            penalty=1, demand_rate=1)
        with pytest.raises(ValueError):
            InventoryParams(capacity=2, order_cost=-1, holding_cost=1,
                            penalty=1, demand_rate=1)
        with pytest.raises(ValueError):
            InventoryParams(capacity=2, order_cost=1, holding_cost=1,
                            penalty=1, demand_rate=0.0)

    @pytest.mark.parametrize("name, value", [
        ("capacity", True), ("capacity", 2.0), ("capacity", "3"), ("uniform_max", False),
        ("uniform_max", 2.5)])
    def test_non_integer_sizes_rejected(self, name, value):
        fields = {"capacity": 3, "order_cost": 1.0, "holding_cost": 5.0, "penalty": 100.0,
                  "demand_rate": 2.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            InventoryParams(**fields)

    @pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_sizes_accepted(self, value):
        params = InventoryParams(capacity=value, order_cost=1.0, holding_cost=5.0,
                                 penalty=100.0, demand_rate=2.0, uniform_max=value)
        assert type(params.capacity) is int and type(params.uniform_max) is int
        assert build_env(params).n_states == 4

    @pytest.mark.parametrize("name", ["order_cost", "holding_cost", "penalty", "demand_rate"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_costs_and_rate_rejected(self, name, value):
        fields = {"capacity": 3, "order_cost": 1.0, "holding_cost": 5.0, "penalty": 100.0,
                  "demand_rate": 2.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be .*finite"):
            InventoryParams(**fields)

    def test_env_bundles_consistent_pieces(self):
        env = build_env(miniature_params())
        assert env.n_states == 4
        assert env.pmf_pre.sum() == 1.0
        np.testing.assert_allclose(env.pmf_post, 0.25)

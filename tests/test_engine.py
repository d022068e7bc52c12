"""Property tests: `simulate_batch`, which runs the detector once per distinct
pre-switch path, against `util.engine_oracle`, the one-row-per-cell loop it
replaced, bit for bit on random small inventory instances, policies,
threshold grids, detectors, change points, horizons and run counts."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nsmdp import harness
from nsmdp.engine import BATCHABLE_KINDS, EpisodeSetup, simulate_batch
from nsmdp.harness import CHUNK_SIZE, threshold_cells
from nsmdp.inventory import ChangeSpec, InventoryParams, build_env
from nsmdp.momdp import belief_grid_solve, build_pomdp

from util import engine_oracle

# candidate thresholds: linear for shiryaev/sr, whose floor is 0, and
# log-domain for cusum, whose floor is -inf
LINEAR = (0.0, 0.3, 1.0, 2.0, 8.0, 50.0, 1e3)
LOG = (-math.inf, -1.0, 0.0, 0.5, 2.0, 5.0, 12.0)
CHANGES = (ChangeSpec("geometric", rho=0.05), ChangeSpec("geometric", rho=0.3),
           ChangeSpec("fixed", gamma=1), ChangeSpec("fixed", gamma=7),
           ChangeSpec("never"))


@st.composite
def setups(draw, kinds=BATCHABLE_KINDS):
    """A setup with random feasible policies and, unless scalar, a two-
    threshold grid: every B = A cell, the floor B, and several A per B."""
    capacity = draw(st.integers(2, 6))
    env = build_env(InventoryParams(
        capacity=capacity, order_cost=draw(st.sampled_from((0.0, 1.0, 2.5))),
        holding_cost=draw(st.sampled_from((1.0, 5.0))),
        penalty=draw(st.sampled_from((10.0, 100.0))),
        demand_rate=draw(st.sampled_from((0.5, 1.5, 3.0)))))
    pi_pre, pi_probe, pi_post = (
        np.array([draw(st.sampled_from(acts)) for acts in env.mdp_pre.feasible])
        for _ in range(3))
    kind = draw(st.sampled_from(kinds))
    detector = draw(st.sampled_from(("shiryaev", "sr", "cusum")))
    values = LOG if detector == "cusum" else LINEAR
    a_grid = draw(st.lists(st.sampled_from(values), min_size=1, max_size=4, unique=True))
    b_grid = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
    a, b = np.array(threshold_cells("tt", a_grid, [values[0], *b_grid])).T
    if draw(st.booleans()):
        a, b = float(a[-1]), float(b[-1])
    beta = draw(st.sampled_from((0.0, 0.6, 0.95)))
    momdp = None
    if kind == "momdp":
        momdp = belief_grid_solve(build_pomdp(env.mdp_pre, env.mdp_post, rho=0.05),
                                  grid_size=draw(st.integers(2, 21)), beta=beta)
    return EpisodeSetup(
        env=env, policy_kind=kind, change=draw(st.sampled_from(CHANGES)),
        horizon=draw(st.integers(1, 60)), beta=beta, pi_pre=pi_pre,
        pi_probe=pi_probe, pi_post=pi_post, detector_kind=detector,
        detector_rho=draw(st.sampled_from((0.01, 0.3))) if detector == "shiryaev" else 0.0,
        window=draw(st.integers(1, 8)), threshold_a=a, threshold_b=b, momdp=momdp,
        initial_state=draw(st.integers(0, capacity)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(setup=setups(), first_id=st.integers(0, 1000), n_runs=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_batch_and_trace_equal_oracle(setup, first_id, n_runs, seed):
    ids = np.arange(first_id, first_id + n_runs)
    for trace in (False, True):
        new = simulate_batch(setup, seed, ids, trace=trace)
        old = engine_oracle(setup, seed, ids, trace=trace)
        for name in ("run_ids", "gamma", "tau", "discounted_cost"):
            np.testing.assert_array_equal(getattr(new, name), getattr(old, name))
            assert getattr(new, name).dtype == getattr(old, name).dtype
        assert new.trace.keys() == old.trace.keys()
        for name, values in old.trace.items():
            np.testing.assert_array_equal(new.trace[name], values, err_msg=name)
            assert new.trace[name].dtype == values.dtype


@settings(max_examples=15, derandomize=True, deadline=None)
@given(setup=setups(kinds=("loc", "kl", "tt")),
       n_runs=st.integers(CHUNK_SIZE + 1, CHUNK_SIZE + 40), seed=st.integers(0, 2**16))
def test_packed_chunks_equal_oracle(setup, n_runs, seed):
    gamma, tau, cost = harness._batched_costs(setup, n_runs, seed)
    n_cells = np.size(setup.threshold_a)
    for lo in range(0, n_runs, CHUNK_SIZE):
        ids = np.arange(lo, min(lo + CHUNK_SIZE, n_runs))
        old = engine_oracle(setup, seed, ids)
        for new, name in ((np.tile(gamma, (n_cells, 1)), "gamma"), (tau, "tau"),
                          (cost, "discounted_cost")):
            np.testing.assert_array_equal(new[:, lo:lo + len(ids)],
                                          getattr(old, name).reshape(n_cells, -1))
            assert new.dtype == getattr(old, name).dtype

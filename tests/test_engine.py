"""Property tests: `simulate_batch`, which merges a grid's cells into one row
per distinct trajectory, against `util.engine_oracle`, the one-row-per-cell
loop it replaced, bit for bit on random small inventory instances,
policies, threshold grids, detectors, change points, horizons and run
counts; on grids built for the edge cases of cells leaving a row (several
cells passed on one step, equal A on one block, a statistic equal to A, no
passes) and of rows splitting (A repeated across blocks, the floor B, B =
A, B beyond the CUSUM reach, a statistic equal to a block's B, a side
holding only passed cells); a CUSUM grid whose rows split past the buffer's
first width and retire before a block boundary; a grid on the capacity-20
instance, whose post-switch table indices exceed uint8; the growth of the
CUSUM buffer and the event arrays, which stays within what the call can
need; a batch over several change specs against each spec's own batch, and
one over a tuple of policy kinds, with threshold cells and change specs,
against each (spec, kind, cell)'s own batch; the dense next-A table against
brute force, and its size on the protocol's default tt grid; the table that
finds each cell's holder against brute force, past uint8 and on a cell no
row passes; the cache of per-draw paths that `simulate_batch` reads; and
the bulk draw of those paths against `util.protocol_randomness`, numpy's
own per-run seeding, over one- and multi-word seeds and run ids."""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsmdp import engine, harness
from nsmdp.controllers import switch_action
from nsmdp.engine import (BATCHABLE_KINDS, DETECTOR_KINDS, PATH_BLOCK, PATH_CACHE_RUNS,
                          EpisodeSetup, cell_paths, draw_episode_randomness, episode_paths,
                          simulate_batch)
from nsmdp.errors import NumericalError
from nsmdp.harness import make_setup, threshold_cells
from nsmdp.inventory import ChangeSpec, InventoryParams, build_env
from nsmdp.mdp import log_ratio_table
from nsmdp.momdp import belief_grid_solve, build_pomdp

from util import engine_oracle, protocol_paths, protocol_randomness

# candidate thresholds: linear for shiryaev/sr, whose floor is 0, and
# log-domain for cusum, whose floor is -inf
LINEAR = (0.0, 0.3, 1.0, 2.0, 8.0, 50.0, 1e3)
LOG = (-math.inf, -1.0, 0.0, 0.5, 2.0, 5.0, 12.0)
CHANGES = (ChangeSpec("geometric", rho=0.05), ChangeSpec("geometric", rho=0.3),
           ChangeSpec("fixed", gamma=1), ChangeSpec("fixed", gamma=7),
           ChangeSpec("never"))


def random_env_and_policies(draw):
    """A random small inventory instance and three random feasible policies."""
    capacity = draw(st.integers(2, 6))
    env = build_env(InventoryParams(
        capacity=capacity, order_cost=draw(st.sampled_from((0.0, 1.0, 2.5))),
        holding_cost=draw(st.sampled_from((1.0, 5.0))),
        penalty=draw(st.sampled_from((10.0, 100.0))),
        demand_rate=draw(st.sampled_from((0.5, 1.5, 3.0)))))
    return env, *(np.array([draw(st.sampled_from(acts)) for acts in env.mdp_pre.feasible])
                  for _ in range(3))


@st.composite
def setups(draw, kinds=BATCHABLE_KINDS, detectors=("shiryaev", "sr", "cusum")):
    """A setup with random feasible policies and, unless scalar, a two-
    threshold grid: every B = A cell, the floor B, and several A per B."""
    env, pi_pre, pi_probe, pi_post = random_env_and_policies(draw)
    kind = draw(st.sampled_from(kinds))
    detector = draw(st.sampled_from(detectors))
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
        initial_state=draw(st.integers(0, env.params.capacity)))


def assert_equal_oracle(setup, seed, ids):
    """`simulate_batch` equals `engine_oracle` bit for bit, with and without
    trace; returns the oracle's untraced result."""
    for trace in (True, False):
        new = simulate_batch(setup, seed, ids, trace=trace)
        old = engine_oracle(setup, seed, ids, trace=trace)
        for name in ("run_ids", "gamma", "tau", "discounted_cost"):
            np.testing.assert_array_equal(getattr(new, name), getattr(old, name))
            assert getattr(new, name).dtype == getattr(old, name).dtype
        assert new.trace.keys() == old.trace.keys()
        for name, values in old.trace.items():
            np.testing.assert_array_equal(new.trace[name], values, err_msg=name)
            assert new.trace[name].dtype == values.dtype
    return old


@settings(max_examples=120, derandomize=True, deadline=None)
@given(setup=setups(), first_id=st.integers(0, 1000), n_runs=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_batch_and_trace_equal_oracle(setup, first_id, n_runs, seed):
    assert_equal_oracle(setup, seed, np.arange(first_id, first_id + n_runs))


@st.composite
def split_grids(draw):
    """A two-threshold grid whose merged rows split: B drawn from the floor,
    interior values and, under CUSUM, a value beyond the statistic's reach
    and the exact one-step statistics (the log ratios); A drawn from few
    values, so that A repeats across blocks and B = A occurs; small A, so
    that one side of a split may hold only passed cells."""
    env, pi_pre, pi_probe, pi_post = random_env_and_policies(draw)
    detector = draw(st.sampled_from(("shiryaev", "sr", "cusum")))
    if detector == "cusum":
        lr = np.unique(log_ratio_table(env.mdp_post.kernel, env.mdp_pre.kernel))
        lr = [float(x) for x in lr[np.isfinite(lr)]]
        b_values = [-math.inf, 0.0, 1e3, *draw(st.lists(st.sampled_from(lr), max_size=3))]
        a_values = [*b_values[1:], 0.5, 2.0, 5.0]
    else:
        b_values = [0.0, 0.3, 1.0, 2.0, 8.0]
        a_values = [0.3, 1.0, 2.0, 8.0, 50.0, 1e3]
    cells = draw(st.lists(st.tuples(st.sampled_from(a_values), st.sampled_from(b_values)),
                          min_size=2, max_size=10))
    a, b = np.array([(max(a, b), min(a, b)) for a, b in cells]).T
    return EpisodeSetup(
        env=env, policy_kind="tt", change=draw(st.sampled_from(CHANGES)),
        horizon=draw(st.integers(1, 60)), beta=draw(st.sampled_from((0.0, 0.6, 0.95))),
        pi_pre=pi_pre, pi_probe=pi_probe, pi_post=pi_post, detector_kind=detector,
        detector_rho=draw(st.sampled_from((0.01, 0.3))) if detector == "shiryaev" else 0.0,
        window=draw(st.integers(1, 8)), threshold_a=a, threshold_b=b,
        initial_state=draw(st.integers(0, env.params.capacity)))


def rows_per_step(setup, seed, run_id):
    """The number of rows that one run, simulated alone, holds at each step:
    the rows whose action the phase rule picks."""
    rows = []

    def count(policies, switched, stat, log_b, s):
        rows.append(len(s))
        return switch_action(policies, switched, stat, log_b, s)

    with mock.patch.object(engine, "switch_action", side_effect=count):
        simulate_batch(setup, seed, [run_id])
    return rows


@settings(max_examples=80, derandomize=True, deadline=None)
@given(setup=split_grids(), first_id=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1))
def test_row_splits_equal_oracle(setup, first_id, seed):
    ids = np.arange(first_id, first_id + 12)
    old = assert_equal_oracle(setup, seed, ids)
    # one cell alone keeps its row and switches in place, with the same bits
    n_blocks = len(cell_paths(setup)[2])
    for c in (0, len(setup.threshold_a) - 1):
        one = simulate_batch(replace(setup, threshold_a=setup.threshold_a[c],
                                     threshold_b=setup.threshold_b[c]), seed, ids)
        np.testing.assert_array_equal(one.tau, old.tau.reshape(-1, len(ids))[c])
        np.testing.assert_array_equal(one.discounted_cost,
                                      old.discounted_cost.reshape(-1, len(ids))[c])
    # a run never holds more rows than blocks
    for run_id in ids[:3]:
        assert max(rows_per_step(setup, seed, run_id)) <= n_blocks


def grid(small_env, small_policies, kind, a, b, detector="shiryaev", horizon=60):
    return make_setup(small_env, small_policies, kind, ChangeSpec("fixed", gamma=1), horizon,
                      0.95, detector_kind=detector,
                      detector_rho=0.05 if detector == "shiryaev" else 0.0,
                      threshold_a=np.asarray(a, dtype=float),
                      threshold_b=np.asarray(b, dtype=float), window=2)


def joined_cells(setup, tau):
    """Per run, how many cells joined a path row, and at how many distinct
    steps: every cell but those at their path's largest A."""
    log_a, cell_path, _ = cell_paths(setup)
    extra = log_a < np.array([log_a[cell_path == p].max() for p in cell_path])
    tau = tau.reshape(len(log_a), -1)[extra]
    return ((tau >= 0).sum(axis=0),
            np.array([len(set(col[col >= 0])) for col in tau.T]))


def test_cells_passing_a_on_one_step_equal_oracle(small_env, small_policies):
    # A spaced far finer than one step's log ratio, on two paths
    a, b = np.array(threshold_cells("tt", np.geomspace(2.0, 2.6, 8), [0.0, 1.5])).T
    setup = grid(small_env, small_policies, "tt", a, b)
    joins, steps = joined_cells(setup, assert_equal_oracle(setup, 3, np.arange(40)).tau)
    assert (joins > steps).any()


def test_duplicate_a_on_one_path_equal_oracle(small_env, small_policies):
    # repeated cells on one path, all passed on one step
    setup = grid(small_env, small_policies, "tt", [2.0, 2.0, 2.0, 8.0], [0.5] * 4)
    joins, steps = joined_cells(setup, assert_equal_oracle(setup, 3, np.arange(40)).tau)
    assert (joins == 3).any() and (steps <= 1).all()
    # under CUSUM, (30, 25), whose B is beyond the window-2 statistic's reach,
    # shares its A with (30, 30) on the +inf path, below that path's A = 40
    setup = grid(small_env, small_policies, "tt", [0.5, 1.0, 30.0, 30.0, 40.0],
                 [0.5, 1.0, 25.0, 30.0, 40.0], detector="cusum")
    joins, _ = joined_cells(setup, assert_equal_oracle(setup, 3, np.arange(40)).tau)
    assert joins.any()


def test_statistic_equal_to_a_does_not_pass_it(small_env, small_policies):
    # every log ratio is an A, and the CUSUM after one step is one log ratio,
    # exactly; a cell switches only once its statistic exceeds A
    lr = np.unique(log_ratio_table(small_env.mdp_post.kernel, small_env.mdp_pre.kernel))
    a = np.append(lr[np.isfinite(lr)], 1e3)
    setup = grid(small_env, small_policies, "loc", a, a, detector="cusum")
    old = assert_equal_oracle(setup, 3, np.arange(40))
    first = engine_oracle(setup, 3, np.arange(40), trace=True).trace["statistic"][-40:, 1]
    equal = a[:, None] == first     # (cell, run): the statistic at step 1 is A
    assert equal[1:-1].any()        # with a smaller A passed on that step
    assert (old.tau.reshape(len(a), -1)[equal] != 1).all()


def test_grid_without_join_events_equals_oracle(small_env, small_policies):
    # cells below their path's A, but no statistic reaches any A in 30 steps
    setup = grid(small_env, small_policies, "loc", [1e200, 1e250, 1e300],
                 [1e200, 1e250, 1e300], horizon=30)
    assert len(cell_paths(setup)[2]) == 1
    assert (assert_equal_oracle(setup, 3, np.arange(40)).tau == -1).all()


@pytest.mark.parametrize("n_blocks", [1, 2, 5, 17, 19, 40])
def test_cell_index_equals_brute_force(n_blocks):
    # every block range and A index of a random grid with repeated A, empty
    # blocks and blocks of many cells
    rng = np.random.default_rng(n_blocks)
    log_a = rng.choice([-math.inf, -1.0, 0.0, 0.5, 2.0, 7.5, math.inf], 3 * n_blocks)
    cell_block = rng.integers(0, n_blocks, len(log_a))
    index = engine._CellIndex(log_a, cell_block, n_blocks)
    cell_j = np.searchsorted(index.a, log_a)
    los, his = np.triu_indices(n_blocks + 1, 1)
    for j0 in range(index.m + 1):
        j = np.full(len(los), j0)
        inside = [np.flatnonzero((cell_block >= lo) & (cell_block < hi) & (cell_j >= j0))
                  for lo, hi in zip(los, his)]
        np.testing.assert_array_equal(index.nxt[los, his, j],
                                      [cell_j[c].min(initial=index.m) for c in inside])
    # entries (run, blocks [lo, hi), j) at distinct (run, block, j) on three
    # columns: a cell's holder is the last entry on its column whose blocks
    # hold its block and whose j is at or below its A index
    n_cols, taken, entries = 3, set(), []
    for _ in range(8 * n_blocks):
        run, lo, j = rng.integers(n_cols), rng.integers(n_blocks), rng.integers(index.m)
        hi = rng.integers(lo + 1, n_blocks + 1)
        spots = {(run, b, j) for b in range(lo, hi)}
        if not spots & taken:
            taken |= spots
            entries.append((run, lo, hi, j))
    held = index.holders(*np.array(entries).T, n_cols)
    assert held.dtype == np.min_scalar_type(len(entries) - 1)
    np.testing.assert_array_equal(held, [[max(
        (i for i, (r, lo, hi, j) in enumerate(entries)
         if r == col and lo <= cell_block[c] < hi and j <= cell_j[c]), default=0)
        for col in range(n_cols)] for c in range(len(log_a))])


def test_holders_past_uint8_equal_oracle(small_env, small_policies):
    # more than 256 events and final rows, so the holders' table steps from
    # uint8 to uint16
    a, b = np.array(threshold_cells("tt", [0.3, 1.0, 2.0, 8.0, 50.0], [0.0, 1.0, 8.0])).T
    setup = grid(small_env, small_policies, "tt", a, b)
    held, holders = [], engine._CellIndex.holders

    def keep(self, *args):
        held.append(holders(self, *args))
        return held[-1]

    with mock.patch.object(engine._CellIndex, "holders", keep):
        assert_equal_oracle(setup, 3, np.arange(60))
    assert [table.dtype for table in held] == [np.uint16]


def test_a_side_holding_only_passed_cells_leaves_no_row(small_env, small_policies):
    # with a large A on both blocks, every run's row splits once the statistic
    # lies between the two B; with A = 0.5 on the B = 0 block, that block's
    # cell has passed by then, and the row keeps only the other block
    most_rows = {}
    for a0 in (1e3, 0.5):
        setup = grid(small_env, small_policies, "tt", [a0, 1e3], [0.0, 2.0])
        assert len(cell_paths(setup)[2]) == 2
        assert_equal_oracle(setup, 3, np.arange(20))
        most_rows[a0] = max(max(rows_per_step(setup, 3, r)) for r in range(20))
    assert most_rows == {1e3: 2, 0.5: 1}


def test_statistic_equal_to_b_stays_pre(small_env, small_policies):
    # every log ratio is a B, and the CUSUM after one step is one log ratio,
    # exactly; a block whose B equals the statistic stays pre
    lr = np.unique(log_ratio_table(small_env.mdp_post.kernel, small_env.mdp_pre.kernel))
    b = lr[np.isfinite(lr)]
    setup = grid(small_env, small_policies, "tt", np.full(len(b), 1e3), b, detector="cusum")
    assert_equal_oracle(setup, 3, np.arange(40))
    first = engine_oracle(setup, 3, np.arange(40), trace=True).trace["statistic"][:, 1]
    assert (first.reshape(len(b), -1) == b[:, None]).any()


@pytest.mark.parametrize("window", [1, 2, 3])
def test_cusum_columns_follow_split_and_retired_rows(small_env, small_policies, window):
    # the CUSUM buffer starts one column per run; rows split past that width,
    # so it grows, and retire early enough that the columns moved into their
    # places cross a block boundary (every window + 1 steps) afterwards
    a, b = np.array(threshold_cells("tt", [0.5, 1.0, 2.0, 3.0], [-math.inf, 0.0, 0.5, 1.0])).T
    setup = replace(grid(small_env, small_policies, "tt", a, b, detector="cusum"),
                    window=window)
    ids = np.arange(8)
    rows = []

    def count(policies, switched, stat, log_b, s):
        rows.append(len(s))
        return switch_action(policies, switched, stat, log_b, s)

    with mock.patch.object(engine, "switch_action", side_effect=count):
        simulate_batch(setup, 3, ids)
    assert max(rows) > len(ids)
    retired = [k for k in range(1, len(rows)) if rows[k] < rows[k - 1]]
    assert retired and retired[0] < setup.horizon - (window + 1) and rows[retired[0]] > 0
    old = assert_equal_oracle(setup, 3, ids)
    for c in range(len(a)):
        one = simulate_batch(replace(setup, threshold_a=a[c], threshold_b=b[c]), 3, ids)
        np.testing.assert_array_equal(one.tau, old.tau.reshape(len(a), -1)[c])
        np.testing.assert_array_equal(one.discounted_cost,
                                      old.discounted_cost.reshape(len(a), -1)[c])


E1_EINF = (ChangeSpec("fixed", gamma=1), ChangeSpec("never"))


@pytest.mark.parametrize("change", [ChangeSpec("never"), E1_EINF], ids=["never", "e1-einf"])
def test_grown_arrays_stay_within_their_bounds(small_env, small_policies, change):
    # a column (spec, run) holds at most n_blocks rows, and every event and
    # final row reports a distinct (cell, column); the CUSUM buffer and the
    # event arrays grow past their first width here, but never past that
    a, b = np.array(threshold_cells("tt", [1.0, 3.0], [-math.inf, 0.0, 0.5])).T
    setup = replace(grid(small_env, small_policies, "tt", a, b, detector="cusum"),
                    change=change)
    n_cols, n_blocks = 8 * np.size(change), len(cell_paths(setup)[2])
    grown = []

    def room(array, *args, **kwargs):
        out = real_room(array, *args, **kwargs)
        if out is not array:
            grown.append(out)
        return out

    real_room = engine._room
    with mock.patch.object(engine, "_room", side_effect=room):
        simulate_batch(setup, 3, np.arange(8))
    # the buffer is (window + 3, rows) floats, the packed event block
    # (EV_TAU + 1, events) narrow signed ints, and the rest 1-D
    buffers = [g for g in grown if g.ndim == 2 and g.dtype == float]
    events = [g for g in grown if g.ndim == 2 and g.dtype.kind == "i"]
    assert buffers and events
    assert all(g.shape[0] == engine.EV_TAU + 1 and g.dtype.itemsize < 8 for g in events)
    for g in grown:
        bound = n_blocks if any(g is buffer for buffer in buffers) else len(a)
        assert g.shape[-1] <= bound * n_cols


def assert_bits_equal(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(setup=setups(), changes=st.lists(st.sampled_from(CHANGES), min_size=2, max_size=3,
                                        unique=True),
       first_id=st.integers(0, 1000), n_runs=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_specs_in_one_batch_equal_each_spec_alone(setup, changes, first_id, n_runs, seed):
    # the batch's columns are (spec, run) pairs, and its outcomes are each
    # spec's own batch, in spec order, bit for bit
    ids = np.arange(first_id, first_id + n_runs)
    for trace in (False, True):
        joint = simulate_batch(replace(setup, change=tuple(changes)), seed, ids, trace=trace)
        alone = [simulate_batch(replace(setup, change=c), seed, ids, trace=trace)
                 for c in changes]
        for name in ("run_ids", "gamma", "tau", "discounted_cost"):
            assert_bits_equal(getattr(joint, name),
                              np.concatenate([getattr(r, name) for r in alone]), name)
        assert joint.trace.keys() == alone[0].trace.keys()
        for name in joint.trace:
            assert_bits_equal(joint.trace[name],
                              np.concatenate([r.trace[name] for r in alone]), name)


@st.composite
def kind_tuples(draw):
    """A setup over a tuple of distinct kinds in a random order: all six, a
    few, or a few of the detector kinds, which share one merged grid. It has
    one change spec or a tuple of them, and scalar thresholds or a few
    threshold cells, each A = inf with B = 0, B = A, or a two-threshold
    cell."""
    env, pi_pre, pi_probe, pi_post = random_env_and_policies(draw)
    detector = draw(st.sampled_from(("shiryaev", "sr", "cusum")))
    values = LOG if detector == "cusum" else LINEAR
    cells = st.one_of(st.just((math.inf, 0.0)), st.sampled_from(values).map(lambda a: (a, a)),
                      st.sampled_from(threshold_cells("tt", values, values)))
    a, b = (np.array(draw(st.lists(cells, min_size=2, max_size=3))).T if draw(st.booleans())
            else draw(cells))
    change = (tuple(draw(st.lists(st.sampled_from(CHANGES), min_size=2, max_size=3,
                                  unique=True))) if draw(st.booleans())
              else draw(st.sampled_from(CHANGES)))
    kinds = draw(st.permutations(draw(st.sampled_from((BATCHABLE_KINDS, DETECTOR_KINDS)))))
    beta = draw(st.sampled_from((0.0, 0.6, 0.95)))
    return EpisodeSetup(
        env=env, policy_kind=tuple(kinds[:draw(st.one_of(st.just(6),
                                                        st.integers(2, len(kinds))))]),
        change=change, horizon=draw(st.integers(1, 40)), beta=beta,
        pi_pre=pi_pre, pi_probe=pi_probe, pi_post=pi_post, detector_kind=detector,
        detector_rho=draw(st.sampled_from((0.01, 0.3))) if detector == "shiryaev" else 0.0,
        window=draw(st.integers(1, 8)), threshold_a=a, threshold_b=b,
        momdp=belief_grid_solve(build_pomdp(env.mdp_pre, env.mdp_post, rho=0.05),
                                grid_size=draw(st.integers(2, 21)), beta=beta),
        initial_state=draw(st.integers(0, env.params.capacity)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(setup=kind_tuples(), first_id=st.integers(0, 1000),
       n_runs=st.one_of(st.integers(1, 30), st.integers(PATH_BLOCK + 1, PATH_BLOCK + 30)),
       seed=st.integers(0, 2**32 - 1))
def test_kinds_in_one_batch_equal_each_kind_alone(setup, first_id, n_runs, seed):
    # the batch's rows are (kind, cell, column) pairs, and its outcomes are
    # each (spec, kind, cell)'s own batch, in the tuple's order, bit for bit;
    # the draw is built in more than one PATH_BLOCK when there are more runs
    # than one holds
    ids = np.arange(first_id, first_id + n_runs)
    cells = list(zip(*(np.broadcast_to(t, np.size(setup.threshold_a)).tolist()
                       for t in (setup.threshold_a, setup.threshold_b))))
    for trace in (False, True) if n_runs <= 30 else (False,):
        joint = simulate_batch(setup, seed, ids, trace=trace)
        alone = [simulate_batch(replace(setup, change=change, policy_kind=kind, threshold_a=a,
                                        threshold_b=b), seed, ids, trace=trace)
                 for change in setup.changes for kind in setup.kinds for a, b in cells]
        assert_bits_equal(joint.gamma, np.concatenate(
            [r.gamma for r in alone[::len(alone) // len(setup.changes)]]), "gamma")
        for name in ("run_ids", "tau", "discounted_cost"):
            assert_bits_equal(getattr(joint, name),
                              np.concatenate([getattr(r, name) for r in alone]), name)
        assert joint.trace.keys() == alone[0].trace.keys()
        for name in joint.trace:
            assert_bits_equal(joint.trace[name],
                              np.concatenate([r.trace[name] for r in alone]), name)


def test_setup_rejects_bad_kind_tuples(small_env, small_policies):
    setup = make_setup(small_env, small_policies, ("oracle", "tt"), ChangeSpec("fixed", gamma=1),
                       10, 0.95, threshold_a=50.0, threshold_b=3.0)
    # empty, repeated, unknown or list-typed kinds
    for kinds in ((), ("tt", "oracle", "tt"), ("oracle", "glr"), ["oracle", "tt"],
                  ("oracle", ["tt"]), ["tt"]):
        with pytest.raises(ValueError, match="policy_kind"):
            replace(setup, policy_kind=kinds)


def test_kind_tuple_thresholds_need_a_kind(small_env, small_policies):
    # a tuple's kinds apply their own degeneracies, so no kind's (A, B)
    # stands for the setup's
    setup = make_setup(small_env, small_policies, ("oracle", "loc"), ChangeSpec("fixed", gamma=1),
                       10, 0.95, threshold_a=50.0, threshold_b=3.0)
    with pytest.raises(ValueError, match="policy_kind"):
        setup.effective_thresholds()
    assert setup.effective_thresholds("oracle") == (math.inf, 0.0)
    assert setup.effective_thresholds("loc") == (50.0, 50.0)


@pytest.mark.parametrize("detector, a_grid, b_grid", [
    ("shiryaev", (10.0, 1e3, 1e5), (1.0, 100.0)),
    ("cusum", (2.0, 6.0, 15.0), (0.5, 4.0))])
def test_protocol_instance_grid_equals_oracle(paper_env, paper_policies, detector, a_grid,
                                              b_grid):
    # the post-switch table of the capacity-20 instance has 2 regimes x 61
    # demands x 21 states entries, so its flat indices exceed uint8, unlike
    # those of the small random instances above
    a, b = np.array(threshold_cells("tt", a_grid, b_grid)).T
    setup = make_setup(paper_env, paper_policies, "tt", ChangeSpec("fixed", gamma=1), 60,
                       0.99, detector_kind=detector,
                       detector_rho=0.01 if detector == "shiryaev" else 0.0,
                       threshold_a=a, threshold_b=b, window=20)
    tau = assert_equal_oracle(setup, 3, np.arange(16)).tau.reshape(len(a), -1)
    # some run's cells switch on different steps, so accumulators run for a while
    switched = np.where(tau >= 0, tau, setup.horizon)
    assert (switched.min(axis=0) < switched.max(axis=0)).any()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(setup=split_grids(), seed=st.integers(0, 2**32 - 1))
def test_group_merging_is_invisible(setup, seed):
    # accumulator groups merging on every event step, or never, give the
    # default's bits, on the drawn change and on change-at-1 / change-never
    ids = np.arange(12)
    for case in (setup, replace(setup, change=E1_EINF)):
        default = simulate_batch(case, seed, ids)
        for slack in (0, 10**9):
            with mock.patch.object(engine, "GROUP_SLACK", slack):
                got = simulate_batch(case, seed, ids)
            for name in ("run_ids", "gamma", "tau", "discounted_cost"):
                assert_bits_equal(getattr(got, name), getattr(default, name), name)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(setup=split_grids(), seed=st.integers(0, 2**32 - 1))
def test_cells_listed_in_blocks_equal_one_listing(setup, seed):
    # every cell finds its holder, an A = inf cell too, which no row ever
    # passes, so that its final row reports it
    setup = replace(setup, threshold_a=np.append(setup.threshold_a, math.inf),
                    threshold_b=np.append(setup.threshold_b, setup.threshold_b[0]))
    ids = np.arange(12)
    whole = simulate_batch(setup, seed, ids)
    assert (whole.tau.reshape(-1, len(ids))[-1] == -1).all()
    old = engine_oracle(setup, seed, ids)
    for name in ("tau", "discounted_cost"):
        assert_bits_equal(getattr(whole, name), getattr(old, name), name)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(setup=st.one_of(setups(), setups(kinds=("loc", "kl", "tt"), detectors=("cusum",))),
       n_runs=st.integers(PATH_BLOCK + 1, PATH_BLOCK + 40), seed=st.integers(0, 2**16))
def test_packed_chunks_equal_oracle(setup, n_runs, seed):
    # every estimate, a CUSUM grid included, is one engine call over all runs,
    # whose paths are drawn in more than one PATH_BLOCK
    with mock.patch.object(harness, "simulate_batch", wraps=simulate_batch) as calls:
        reports = harness.monte_carlo(setup, n_runs, seed)
    assert calls.call_count == 1
    reports = reports if np.ndim(setup.threshold_a) else [reports]
    n_cells = np.size(setup.threshold_a)
    old = engine_oracle(setup, seed, np.arange(n_runs))
    np.testing.assert_array_equal(reports[0].gamma, old.gamma)
    for name in ("tau", "discounted_cost"):
        new = np.stack([getattr(r, name) for r in reports])
        np.testing.assert_array_equal(new, getattr(old, name).reshape(n_cells, -1))
        assert new.dtype == getattr(old, name).dtype


def test_path_cache_keys_on_the_demand_pmfs():
    change, ids = ChangeSpec("geometric", rho=0.1), np.arange(7)
    envs = [build_env(InventoryParams(capacity=4, order_cost=1.0, holding_cost=5.0,
                                      penalty=60.0, demand_rate=rate))
            for rate in (0.5, 3.0)]
    paths = [episode_paths(env, change, 40, 3, ids)[2] for env in envs]
    assert not np.array_equal(paths[0], paths[1])
    for env, path in zip(envs, paths):
        np.testing.assert_array_equal(path, protocol_paths(env, change, 40, 3, ids)[2])
        assert path.dtype == np.uint8


def test_path_cache_hit_returns_the_same_read_only_arrays():
    env = build_env(InventoryParams(capacity=3, order_cost=1.0, holding_cost=1.0,
                                    penalty=10.0, demand_rate=1.5))
    first = episode_paths(env, CHANGES[0], 12, 5, np.arange(9))
    again = episode_paths(env, CHANGES[0], 12, 5, np.arange(9))
    assert all(a is b and not a.flags.writeable for a, b in zip(first, again))


def test_path_cache_is_bounded_by_runs_held():
    env = build_env(InventoryParams(capacity=2, order_cost=1.0, holding_cost=1.0,
                                    penalty=10.0, demand_rate=1.0))
    for lo, hi in ((0, 1000), (0, 256), (256, 512), (512, 768), (768, 1024), (1000, 2000)):
        paths = episode_paths(env, CHANGES[2], 2, 0, np.arange(lo, hi))
        assert sum(len(entry[0]) for entry in engine._PATH_CACHE.values()) <= PATH_CACHE_RUNS
    # the oldest entries went, the newest draw stays
    assert episode_paths(env, CHANGES[2], 2, 0, np.arange(1000, 2000))[0] is paths[0]


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)
RUN_IDS = np.array([0, 1, 255, 2**32 - 1, 2**32, 2**40])
DRAW_CHANGES = (ChangeSpec("geometric", rho=0.05), ChangeSpec("fixed", gamma=3),
                ChangeSpec("never"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("change", DRAW_CHANGES, ids=lambda c: c.kind)
def test_draw_equals_numpy_seeding(seed, change):
    # one- and two-word ids in one draw, and each id first in a draw of its
    # own; a run's demand and action blocks are drawn as one row
    for horizon, ids in itertools.product((1, 9, 250), (RUN_IDS, RUN_IDS[::-1],
                                                        *RUN_IDS[:, None])):
        for new, old in zip(draw_episode_randomness(change, horizon, seed, ids),
                            protocol_randomness(change, horizon, seed, ids)):
            assert new.shape == old.shape
            np.testing.assert_array_equal(new, old)


@pytest.mark.parametrize("uniform_max", (None, 3))
@pytest.mark.parametrize("change", DRAW_CHANGES, ids=lambda c: c.kind)
def test_paths_equal_protocol(uniform_max, change):
    # Poisson before the change; Uniform{0..3} after it puts every post-change
    # CDF entry exactly on a guide-table bucket edge
    env = build_env(InventoryParams(capacity=6, order_cost=1.0, holding_cost=2.0,
                                    penalty=30.0, demand_rate=2.0, uniform_max=uniform_max))
    ids = np.arange(PATH_BLOCK + 9)
    for new, old in zip(episode_paths(env, change, 60, 4, ids),
                        protocol_paths(env, change, 60, 4, ids)):
        np.testing.assert_array_equal(new, old)


def test_negative_seed_or_run_id_raises():
    change = ChangeSpec("never")
    with pytest.raises(ValueError, match="non-negative"):
        draw_episode_randomness(change, 3, -1, np.arange(2))
    with pytest.raises(ValueError, match="non-negative"):
        draw_episode_randomness(change, 3, 0, np.array([0, -1]))
    with pytest.raises(ValueError, match="non-negative"):
        draw_episode_randomness(change, 3, 0, np.array([-2**32]))


def test_bulk_seeding_is_checked_against_numpy():
    with mock.patch.object(engine, "_pcg64_states", return_value=[(1, 1), (1, 1)]):
        with pytest.raises(NumericalError, match="SeedSequence"):
            draw_episode_randomness(ChangeSpec("never"), 3, 0, np.arange(2))


@pytest.mark.parametrize("kinds, a, b, change", [
    (("tt", "loc"), 50.0, 3.0, ChangeSpec("fixed", gamma=1)),
    (("random", "oracle"), 50.0, 3.0, ChangeSpec("fixed", gamma=1)),
    (("tt", "oracle", "loc"), np.array([50.0, 20.0]), np.array([3.0, 20.0]),
     (ChangeSpec("fixed", gamma=1), ChangeSpec("never")))])
def test_zero_runs_with_kinds_out_of_group_order(small_env, small_policies, kinds, a, b,
                                                  change):
    # the kinds go back into the tuple's order on zero columns too
    setup = make_setup(small_env, small_policies, kinds, change, 10, 0.95,
                       threshold_a=a, threshold_b=b)
    result = simulate_batch(setup, 0, np.arange(0))
    for values in (result.run_ids, result.gamma, result.tau, result.discounted_cost):
        assert values.shape == (0,)


def test_empty_draw():
    gamma, demand_u, action_u = draw_episode_randomness(ChangeSpec("never"), 4, 0, np.arange(0))
    assert gamma.shape == (0,) and demand_u.shape == action_u.shape == (0, 4)


@pytest.mark.parametrize("detector", ["shiryaev", "sr", "cusum"])
def test_default_tt_grid_table_is_small(paper_env, paper_policies, detector):
    # the protocol's default tt grid has at most 17 blocks, so its dense
    # next-A table is uint8 and under 10 KB; the blocks read only the
    # transition kernels, which the penalty does not change
    a, b = np.array(threshold_cells("tt", harness.default_a_grid(),
                                    harness.default_b_grid())).T
    setup = make_setup(paper_env, paper_policies, "tt", ChangeSpec("geometric", rho=0.01),
                       1000, 0.99, detector_kind=detector,
                       detector_rho=0.01 if detector == "shiryaev" else 0.0,
                       threshold_a=a, threshold_b=b, window=200)
    log_a, cell_block, block_b = cell_paths(setup)
    index = engine._CellIndex(log_a, cell_block, len(block_b))
    assert len(block_b) <= 17
    assert index.nxt.dtype == np.uint8 and index.nxt.nbytes < 10_000
    # the holders' table at 1000 runs: (distinct A, blocks, columns), fewer
    # entries than twice the (cell, column) outputs, and under 2 MB even at
    # the widest dtype that one entry per output could need
    n_entries = index.m * len(block_b) * 1000
    assert n_entries <= 2 * len(log_a) * 1000
    assert n_entries * np.min_scalar_type(len(log_a) * 1000).itemsize < 2_000_000

"""Vectorized episode simulation.

Episodes are simulated in batches: one numpy-level loop over time steps, with
every per-run quantity held in arrays across runs. Demands are exogenous
inverse-CDF draws, so runs with the same seed share demand paths across
policies and threshold settings (common random numbers). A draw's (horizon,
runs) regime and demand paths are built once and cached (`episode_paths`), so
the policies and threshold grids of one instance share them. A setup's change
may be a tuple of specs, its policy kind a tuple of kinds and its thresholds
arrays, one threshold cell per entry, in any combination: the batch's columns
are (spec, run) pairs, each reading its spec's paths, and its cells (kind,
cell) pairs, the kinds in GROUP_ORDER. If the kinds share one action step (one
kind, or loc, kl and tt, which share one detector update and switch) and there
is more than one cell, the cells form one merged grid, below. Otherwise, and
when traced, each (kind, cell, column) has a row, which switches in place;
each kind's rows take only its own action step, and the rest of the step runs
once over all rows. Either way each (spec, kind, cell)'s outcomes are those of
a batch over it alone.

A merged grid's cells fall into blocks, one per distinct B (`cell_paths`), and
share a row for as long as their pre-switch paths agree. A row is a run, a
contiguous range of blocks and the index of the first distinct A it has not
passed. Every run starts with all its blocks in one row; a row splits only
when its statistic lies between two of its blocks' B, the pre and probe
actions differ at its state, and both sides still hold cells it has not
passed, so a run never holds more rows than blocks. A row's next A is one
gather from a dense (LO, HI, A index) table sized for <= 17 blocks. The cells
whose A a row's statistic passes on one step leave it for one post-switch
accumulator, which keeps the row's run, state and discounted cost and follows
pi_post. Accumulators on one (column, state) share their group's lookup of the
cost and successor in one (regime, demand, state) table of pi_post, and stay
together from then on; each adds the group's cost to its own discounted cost.
Groups that reach one (column, state) merge once the group count passes twice
the last distinct count plus GROUP_SLACK. A row whose last cells pass is gone
from the step loop. An accumulator records only its row's run, block range
and first passed A index; after the step loop, one running maximum finds
each cell's accumulator or remaining row (`_CellIndex.holders`). Rows and
accumulators do the float operations, and so give the bits, of each of their
cells simulated alone.

A merged row never switches, so `switch_action` reads no switched mask for
it: its action is the flat (pre, probe, post) policy stack at (statistic >
the B of its block LO) * n_states + state, one `take`. An event's integer
fields (run, LO, HI, first passed A index, switch step) are one (5, events)
block of the narrowest signed dtype that holds them, its group index an int
array, its discounted cost a float array; all grow together, checked once
per step that passes cells. The accumulators' table index
before the state, (post * n_demands + demand) * n_states, is one
(horizon, columns) path of the narrowest unsigned dtype, built once per call.

Randomness protocol, fixed per run: seed the generator from
SeedSequence(master_seed, spawn_key=(run_id,)), draw the change point (one
geometric variate, if the change spec is random), then a horizon-length
block of demand uniforms, then a horizon-length block of action uniforms
(consumed only by the random policy but always drawn, so every policy sees
identical demand paths). Each demand is the inverse CDF of its step's
regime at its uniform. The engine reproduces this bit for bit in bulk: it
derives every run's PCG64 state with numpy arithmetic over the runs,
instead of building a SeedSequence and a PCG64 per run, loads the states
one after another into one generator that fills preallocated rows, and
inverts each uniform once, under its own regime, through a guide table
(`demand_from_uniform`).

A step at 0-indexed time k consumes the transition realized at k-1 (for
k >= 1) before choosing the action, runs under the post-change regime iff
k >= gamma - 1, pays the active regime's exact expected cost, and then
realizes the next transition. Stopping times are transition indices: the
transition realized between times k-1 and k has index k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .controllers import check_thresholds, kind_thresholds, switch_action
from .detectors import cusum_buffer, shiryaev_log_update, threshold_domain, windowed_cusum
from .errors import NumericalError
from .inventory import ChangeSpec, InventoryEnv, demand_from_uniform, sample_change_point
from .mdp import log_ratio_table, validate_policy
from .momdp import MomdpSolution, belief_step

BATCHABLE_KINDS = ("oracle", "random", "loc", "kl", "tt", "momdp")
DETECTOR_KINDS = ("loc", "kl", "tt")
# the order in which a kind tuple's groups take their rows: the rows that
# update a detector lead, then the momdp rows, so that the rows which read
# the transition are one leading range
GROUP_ORDER = ("loc", "kl", "tt", "momdp", "oracle", "random")


@dataclass(frozen=True)
class EpisodeSetup:
    """Everything needed to simulate episodes of one policy on one instance,
    or of several policies on shared draws: `policy_kind` may be a tuple of
    distinct kinds, which share the thresholds, scalars or one entry per
    cell, and each apply their own degeneracies to them (`kind_thresholds`)."""

    env: InventoryEnv
    policy_kind: str | tuple[str, ...]             # a tuple: one group of rows per kind
    change: ChangeSpec | tuple[ChangeSpec, ...]   # a tuple: one batch column per (spec, run)
    horizon: int
    beta: float
    pi_pre: np.ndarray | None = None
    pi_probe: np.ndarray | None = None
    pi_post: np.ndarray | None = None
    detector_kind: str = "shiryaev"      # shiryaev | sr | cusum
    detector_rho: float = 0.0
    window: int = 200
    threshold_a: float | np.ndarray = math.inf   # or one entry per cell
    threshold_b: float | np.ndarray = 0.0
    momdp: MomdpSolution | None = None
    initial_state: int = 0

    def __post_init__(self):
        changes, kinds = self.changes, self.kinds
        if (not changes or not all(isinstance(c, ChangeSpec) for c in changes)
                or len(set(changes)) < len(changes)):
            raise ValueError("change must be a ChangeSpec or a nonempty tuple of distinct "
                             f"ChangeSpecs, got {self.change!r}")
        if (not kinds or not all(isinstance(k, str) and k in BATCHABLE_KINDS for k in kinds)
                or len(set(kinds)) < len(kinds)):
            raise ValueError(f"policy_kind must be one of {', '.join(BATCHABLE_KINDS)} or a "
                             f"nonempty tuple of distinct ones, got {self.policy_kind!r}")
        for name in ("horizon", "window", "initial_state"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.initial_state < self.env.n_states:
            raise ValueError(f"initial_state must be in [0, {self.env.n_states - 1}], "
                             f"got {self.initial_state}")
        if self.detector_kind == "cusum" and self.window < 1:
            raise ValueError(f"window must be >= 1 for cusum, got {self.window}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        for kind in kinds:
            if kind in ("oracle", *DETECTOR_KINDS) and (
                    self.pi_pre is None or self.pi_post is None):
                raise ValueError(f"{kind} needs pi_pre and pi_post")
            if kind in ("kl", "tt") and self.pi_probe is None:
                raise ValueError(f"{kind} needs pi_probe")
            if kind in DETECTOR_KINDS and self.detector_kind not in ("shiryaev", "sr", "cusum"):
                raise ValueError(f"unsupported detector kind {self.detector_kind!r}")
            if kind == "momdp" and self.momdp is None:
                raise ValueError("momdp needs a solved belief-grid policy")
        # every given table, so that no bad action index wraps in the step loop
        mask, n = self.env.mdp_pre.feasible_mask(), self.env.n_states
        for name in ("pi_pre", "pi_probe", "pi_post"):
            if getattr(self, name) is not None:
                validate_policy(mask, getattr(self, name), (n,), name)
        if self.momdp is not None:
            validate_policy(mask, self.momdp.policy, (n, self.momdp.grid_size), "momdp.policy")
        a, b = np.shape(self.threshold_a), np.shape(self.threshold_b)
        if a != b or len(a) > 1 or a == (0,):
            raise ValueError("thresholds must be two scalars or two nonempty 1-D arrays "
                             f"of equal length, got shapes {a} and {b}")
        for kind in kinds:
            check_thresholds(self.detector_kind, self.detector_rho,
                             *self.effective_thresholds(kind))

    @property
    def changes(self) -> tuple[ChangeSpec, ...]:
        """The change specs, one per block of the batch's columns."""
        return self.change if isinstance(self.change, tuple) else (self.change,)

    @property
    def kinds(self) -> tuple[str, ...]:
        """The policy kinds, one per group of the batch's rows."""
        return self.policy_kind if isinstance(self.policy_kind, tuple) else (self.policy_kind,)

    def effective_thresholds(self, kind: str | None = None) -> tuple[float, float]:
        """(A, B) of `kind`, by default the setup's one kind, after applying
        the kind's degeneracies (per cell for threshold arrays; kl's B stays
        a scalar). A setup with a kind tuple needs `kind`."""
        if kind is None and isinstance(self.policy_kind, tuple):
            raise ValueError(f"name one kind of the policy_kind tuple {self.policy_kind!r}")
        return kind_thresholds(self.policy_kind if kind is None else kind,
                               self.detector_kind, self.threshold_a, self.threshold_b)


@dataclass
class BatchResult:
    """Outcomes of a simulated batch. The batch's columns are (change spec,
    run) pairs, spec-major, and gamma has one entry per column. tau,
    discounted_cost and the traces have one per (spec, kind, cell, run), in
    that order with the kinds in the tuple's, aligned with run_ids, which
    repeats the run ids once per (spec, kind, threshold cell); so each
    (spec, kind, cell)'s entries are those of a batch over it alone."""

    run_ids: np.ndarray
    gamma: np.ndarray              # float, inf = never; one per column
    tau: np.ndarray                # int, -1 = no switch
    discounted_cost: np.ndarray
    trace: dict[str, np.ndarray] = field(default_factory=dict)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h), from which a run's generator
# state is derived without building its SeedSequence and PCG64 in Python
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence coerces it: little-endian 32-bit words."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: per hash, the value it is
    xored with and the one it is then multiplied by."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def _pcg64_states(master_seed: int, run_ids: np.ndarray) -> list[tuple[int, int]]:
    """Per run, the (state, inc) of PCG64(SeedSequence(master_seed,
    spawn_key=(run_id,))): SeedSequence's pool mixing and
    generate_state(4, uint64) in uint32 arithmetic, vectorized over the
    runs that share an entropy length, then PCG64's two seeding steps."""
    seed_words = _uint32_words(master_seed)
    # a spawned sequence pads its own entropy to the pool size
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    low, high = (run_ids & _MASK32).astype(np.uint32), (run_ids >> 32).astype(np.uint32)
    pool_state = np.empty((len(run_ids), 8), dtype=np.uint32)
    for rows, id_words in ((high == 0, (low,)), (high != 0, (low, high))):
        rows = np.flatnonzero(rows)
        entropy = ([np.full(len(rows), w, dtype=np.uint32) for w in seed_words]
                   + [w[rows] for w in id_words])
        consts = _hash_constants(_INIT_A, _MULT_A)
        mixer = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], consts))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                mixer[dst] = _mix(mixer[dst], _hashmix(word, consts))
        consts = _hash_constants(_INIT_B, _MULT_B)
        for i in range(8):
            pool_state[rows, i] = _hashmix(mixer[i % _POOL_SIZE], consts)
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in pool_state.astype("<u4").view("<u8").tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def draw_episode_randomness(change: ChangeSpec, horizon: int, master_seed: int,
                            run_ids: np.ndarray):
    """Per-run change points and (runs, horizon) uniform blocks under the
    fixed protocol, drawn afresh on every call; `episode_paths` caches what
    the engine builds from them.

    Every run's PCG64 state is derived in bulk (`_pcg64_states`) and loaded
    into one generator, which then draws exactly what a generator seeded
    from the run's own SeedSequence would. A run's action uniforms follow
    its demand uniforms in the stream, so both fill one (runs, 2 * horizon)
    row at once, and the blocks returned are its two halves. The first
    run's state is checked against numpy's own seeding."""
    master_seed = operator.index(master_seed)
    run_ids = np.asarray(run_ids, dtype=np.int64)
    if master_seed < 0 or (run_ids < 0).any():
        raise ValueError("the master seed and run ids must be non-negative")
    n = len(run_ids)
    gamma, uniforms = np.empty(n), np.empty((n, 2 * horizon))
    if n:
        states = _pcg64_states(master_seed, run_ids)
        bit_gen = np.random.PCG64(np.random.SeedSequence(master_seed,
                                                         spawn_key=(int(run_ids[0]),)))
        if bit_gen.state["state"] != dict(zip(("state", "inc"), states[0])):
            raise NumericalError("bulk PCG64 seeding disagrees with numpy's SeedSequence")
        rng = np.random.Generator(bit_gen)
        state = {}
        loaded = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        for i, (pcg_state, inc) in enumerate(states):
            state["state"], state["inc"] = pcg_state, inc
            bit_gen.state = loaded
            gamma[i] = sample_change_point(change, rng)
            rng.random(out=uniforms[i])
    return gamma, uniforms[:, :horizon], uniforms[:, horizon:]


PATH_BLOCK = 256          # runs drawn at a time, which bounds the build's temporaries
PATH_CACHE_RUNS = 2048    # runs the path cache holds at most


def episode_paths(env: InventoryEnv, change: ChangeSpec, horizon: int, master_seed: int,
                  run_ids: np.ndarray):
    """Per-run change points and the (horizon, runs) regime, demand and
    action-uniform paths of one draw, read-only.

    Paths are cached on (change, horizon, seed, ids, demand pmfs), so the
    policies and threshold cells of one instance share one build. The
    demand path has the narrowest unsigned dtype that holds the pmf
    length. The cache evicts its oldest entries to hold at most
    PATH_CACHE_RUNS runs; a larger draw is built but not kept.
    """
    run_ids = np.asarray(run_ids, dtype=int)
    key = (change, horizon, int(master_seed), run_ids.tobytes(),
           env.pmf_pre.tobytes(), env.pmf_post.tobytes())
    cached = _PATH_CACHE.get(key)
    if cached is not None:
        return cached
    n = len(run_ids)
    cum_pre, cum_post = np.cumsum(env.pmf_pre), np.cumsum(env.pmf_post)
    cum_pre[-1] = cum_post[-1] = 1.0
    gamma = np.empty(n)
    post_path = np.empty((horizon, n), dtype=bool)
    demand_path = np.empty((horizon, n),
                           dtype=np.min_scalar_type(max(len(cum_pre), len(cum_post))))
    action_path = np.empty((horizon, n))
    steps = np.arange(horizon)
    for lo in range(0, n, PATH_BLOCK):
        block = slice(lo, lo + PATH_BLOCK)
        gamma[block], demand_u, action_u = draw_episode_randomness(
            change, horizon, master_seed, run_ids[block])
        # run-major views; each uniform is inverted once, by its own regime's CDF
        post, demand = steps >= gamma[block, None] - 1.0, demand_path[:, block].T
        demand[post] = demand_from_uniform(cum_post, demand_u[post])
        pre = ~post
        demand[pre] = demand_from_uniform(cum_pre, demand_u[pre])
        post_path[:, block] = post.T
        action_path[:, block] = action_u.T
    paths = (gamma, post_path, demand_path, action_path)
    for block in paths:
        block.flags.writeable = False
    if n <= PATH_CACHE_RUNS:
        while sum(len(entry[0]) for entry in _PATH_CACHE.values()) + n > PATH_CACHE_RUNS:
            _PATH_CACHE.pop(next(iter(_PATH_CACHE)))
        _PATH_CACHE[key] = paths
    return paths


_PATH_CACHE: dict = {}


def cell_paths(setup: EpisodeSetup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (kind, cell), with the setup's kinds in GROUP_ORDER, A in the
    statistic's domain and the index of its block; per block, in ascending
    order, B in that domain, or +inf for the cells that never probe: those
    with B >= A, which switch wherever their statistic exceeds B. The cells
    of a block share one pre-switch path."""
    n_cells = np.size(setup.threshold_a)
    # (kind, A or B, cell)
    thresholds = np.array([[np.broadcast_to(t, n_cells) for t in setup.effective_thresholds(kind)]
                           for kind in sorted(setup.kinds, key=GROUP_ORDER.index)], dtype=float)
    log_a, log_b = (np.array([threshold_domain(setup.detector_kind, t) for t in thr.tolist()])
                    for thr in thresholds.swapaxes(0, 1).reshape(2, -1))
    block_b, cell_block = np.unique(np.where(log_b >= log_a, math.inf, log_b),
                                    return_inverse=True)
    return log_a, cell_block, block_b


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [start, start + count), concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts + counts - ends, counts)


class _CellIndex:
    """A grid's cells by distinct A (index j, ascending) and block (index b),
    for the merged rows of `simulate_batch`. The next-A lookup is one dense
    (n_blocks + 1, n_blocks + 1, m + 1) table, `nxt[lo, hi, j]`: per row, the
    least A index >= j among the cells of blocks [lo, hi), or m if there is
    none. It is quadratic in the B grid (`thresholds.b_grid`): sized for the
    package's at most 17 blocks (16 for the default tt grid, 1 for loc and
    kl), it is 9 KB of uint8 there."""

    def __init__(self, log_a: np.ndarray, cell_block: np.ndarray, n_blocks: int):
        self.a, self.cell_j = np.unique(log_a, return_inverse=True)
        self.cell_block, self.n_blocks = cell_block, n_blocks
        m = self.m = len(self.a)
        self.a_next = np.append(self.a, math.inf)     # indexed by nxt
        # least[b, j]: nxt over block b alone; nxt[lo, hi, j] over [lo, hi)
        least = np.full((n_blocks, m + 1), m, dtype=np.min_scalar_type(m))
        least[cell_block, self.cell_j] = self.cell_j
        least = np.minimum.accumulate(least[:, ::-1], axis=1)[:, ::-1]
        self.nxt = np.full((n_blocks + 1, n_blocks + 1, m + 1), m, dtype=least.dtype)
        for lo in range(n_blocks):
            np.minimum.accumulate(least[lo:], axis=0, out=self.nxt[lo, lo + 1:])

    def holders(self, run, lo, hi, j, n_cols: int) -> np.ndarray:
        """Per (cell, column), the last of the entries (run, blocks [lo, hi), A
        indices from j) that holds it, 0 if none does; no two entries share a
        (run, block, j). Each paints its number at (j, b, run) for its blocks b,
        and a running maximum along A (np.maximum per row: accumulate took 25
        times as long) carries it up: an (m, n_blocks, n_cols) table of the
        narrowest unsigned dtype, 30 x 16 per column for the default tt grid."""
        counts = hi - lo
        paint = np.zeros((self.m, self.n_blocks, n_cols), dtype=np.min_scalar_type(len(run) - 1))
        paint[np.repeat(j, counts), _ranges(lo, counts), np.repeat(run, counts)] = np.repeat(
            np.arange(len(run), dtype=paint.dtype), counts)
        for below, row in zip(paint, paint[1:]):
            np.maximum(below, row, out=row)
        return paint[self.cell_j, self.cell_block]


GROUP_SLACK = 64          # accumulator groups past twice the distinct count that merge


# a row's integer fields: its run, its blocks [LO, HI), the index of the
# first distinct A it has not passed, its state, its previous state-action
# pair, and its switch step if it switches in place; and its float fields:
# its statistic, its discounted cost, the A of its next unpassed cell, and
# the B of its blocks LO and HI - 1. Row i is column i of the field arrays
# and of the CUSUM buffer, so rows move with all their columns.
RUN, LO, HI, NEXT_J, STATE, SA_PREV, TAU = range(7)
STAT, DISC, NEXT_A, LO_B, HI_B = range(5)
# an event's integer fields, one narrow signed block: the row's RUN, LO, HI
# and NEXT_J when it passed, and its switch step EV_TAU
EV_TAU = NEXT_J + 1
# a splitting row's edges: its LO, its split point (first its HI), its HI
# and its NEXT_J, one gather; [LO, split) and [split, HI) are its two sides
_EDGE_FIELDS = np.array([[LO], [HI], [HI], [NEXT_J]])


def _room(array: np.ndarray, size: int, limit: int, growth: float = 2.0) -> np.ndarray:
    """`array` if its last axis holds `size` entries, else a copy of it
    grown along that axis to `growth` times `size`, but to no more than
    `limit`, the most the call can need; the new entries are unset."""
    if array.shape[-1] >= size:
        return array
    grown = np.empty((*array.shape[:-1], min(int(growth * size), limit)), dtype=array.dtype)
    grown[..., :array.shape[-1]] = array
    return grown


def simulate_batch(setup: EpisodeSetup, master_seed: int, run_ids,
                   trace: bool = False) -> BatchResult:
    """Simulate one batch of episodes for every change spec, policy kind
    and threshold cell of the setup; deterministic in (setup, seed, ids).

    The batch's columns are (spec, run) pairs, spec-major, which the step
    loop treats as runs: each spec's paths come from `episode_paths`, and
    only the paths the kinds read are joined across specs. Rows are (kind,
    cell, column) triples, the kinds in GROUP_ORDER, unless merged; both
    routes map back through one (cell, column) reference array."""
    run_ids = np.asarray(run_ids, dtype=int)
    env, horizon = setup.env, setup.horizon
    paths = [episode_paths(env, change, horizon, master_seed, run_ids)
             for change in setup.changes]

    def joined(i: int) -> np.ndarray:
        return paths[0][i] if len(paths) == 1 else np.concatenate([p[i] for p in paths], -1)

    gamma, post_path, demand_path = joined(0), joined(1), joined(2)
    # flat tables: costs at post * n_pairs + sa, log ratios at sa_prev * n_states + s,
    # where sa = s * n_actions + a indexes a state-action pair
    n_states, n_actions = env.mdp_pre.cost.shape
    n_pairs = n_states * n_actions
    costs = np.stack((env.mdp_pre.cost, env.mdp_post.cost)).reshape(-1)

    # the kinds in step order; n_cells counts the (kind, cell) pairs
    kinds = sorted(setup.kinds, key=GROUP_ORDER.index)
    log_a, cell_block, block_b = cell_paths(setup)
    n_cells, n_runs, n_blocks = len(log_a), len(run_ids), len(block_b)
    n_specs = len(paths)
    n_cols = n_specs * n_runs
    n_det_kinds = sum(kind in DETECTOR_KINDS for kind in kinds)
    uses_detector, uses_belief = n_det_kinds > 0, "momdp" in kinds
    # the action steps, each over its rows: one switch step over the rows of
    # the detector kinds, and one step per other kind. The rows the detector
    # updates, and after them those of momdp, lead, so that the rows which
    # read the transition are the first n_read; the last kind's end at None
    per_kind = n_cells // len(kinds) * n_cols
    ends = [per_kind * (g + 1) for g in range(len(kinds) - 1)] + [None]
    n_det = ends[n_det_kinds - 1] if uses_detector else 0
    n_read = ends[kinds.index("momdp")] if uses_belief else n_det
    steps = [("switch", slice(0, n_det))] if uses_detector else []
    steps += [(kind, slice(start, end)) for kind, start, end in zip(kinds, [0, *ends], ends)
              if kind not in DETECTOR_KINDS]
    # the kinds that share one action step share one merged grid
    merged = len(steps) == 1 and n_cells > 1 and not trace
    # the rows are the first n_rows columns of ints and floats, whose rows
    # are the fields; a row's RUN is its batch column, and a merged column
    # holds at most n_blocks rows
    n_rows = n_cols if merged else n_cells * n_cols
    capacity = n_blocks * n_cols if merged else n_rows
    ints, floats = np.zeros((7, capacity), dtype=int), np.zeros((5, capacity))
    if merged:
        # one row per column, holding every block
        cells = _CellIndex(log_a, cell_block, n_blocks)
        ints[RUN, :n_rows], ints[HI] = np.arange(n_cols), n_blocks
        floats[NEXT_A] = cells.a_next[cells.nxt[0, n_blocks, 0]]
        floats[LO_B], floats[HI_B] = block_b[0], block_b[-1]
    else:
        # one row per (kind, cell, column), in that order, with the cell's A and B
        ints[RUN] = np.tile(np.arange(n_cols), n_cells)
        floats[NEXT_A] = np.repeat(log_a, n_cols)
        floats[LO_B] = np.repeat(block_b[cell_block], n_cols)
    ints[STATE], ints[TAU], floats[STAT] = setup.initial_state, -1, -math.inf
    # a one-cell setup's rows are its columns, in order, and read the paths as they are
    by_run, rows_are_cols = ints[RUN, :n_rows], n_cells == 1

    if uses_detector or uses_belief:
        log_lr = log_ratio_table(env.mdp_post.kernel, env.mdp_pre.kernel).reshape(-1)
    if uses_detector:
        log1m_rho = float(np.log1p(-setup.detector_rho))
        if setup.detector_kind == "cusum":
            # its columns grow as splits need them: sized at capacity, the
            # step-major buffer would keep every page of its rows resident
            buf = cusum_buffer(n_rows if n_det is None else n_det, setup.window)
        pi_probe = setup.pi_pre if setup.pi_probe is None else setup.pi_probe
        policies = np.stack((setup.pi_pre, pi_probe, setup.pi_post))
        # a merged row whose blocks disagree on the phase splits only where
        # the phases' actions differ
        probe_differs = setup.pi_pre != pi_probe
    n_events = 0
    if merged:
        # per (cell, run), the event or final row it reports, numbered in that
        # order. An event is the cells one row passes on one step: an
        # accumulator that follows pi_post from the row's run, state and
        # discounted cost, and the row's blocks [LO, HI) and first A index
        # NEXT_J passed, from which its cells are found after the loop.
        # Each event and final row reports at least one (cell, run), so there
        # are at most n_events_max; the event arrays grow as events come.
        # An event's column and state are those of its group (ev_group),
        # which events on one (column, state) come to share. The group index
        # stays int, since a narrow `take` index is cast on every step; groups
        # never outnumber events, so the group arrays share the events' capacity
        n_events_max = n_cells * n_cols
        ev = np.empty((EV_TAU + 1, n_cols), dtype=np.min_scalar_type(
            -max(n_cols, n_blocks + 1, cells.m, horizon)))
        ev_group, ev_disc = np.empty(n_cols, dtype=int), np.empty(n_cols)
        group_col, group_state = np.empty(n_cols, dtype=int), np.empty(n_cols, dtype=int)
        n_groups = n_distinct = 0
    if merged and uses_detector:
        # pi_post's cost and successor state at (regime, demand, state), flat
        # at (post * n_demands + demand) * n_states + s; the part before s is
        # one (horizon, columns) path, built once per call
        n_demands = max(len(env.pmf_pre), len(env.pmf_post))
        states = np.arange(n_states)
        post_cost = costs.reshape(2, n_pairs)[:, states * n_actions + setup.pi_post]
        post_succ = np.maximum(0, states + setup.pi_post - np.arange(n_demands)[:, None])
        joint_cost = np.broadcast_to(post_cost[:, None], (2, n_demands, n_states)).reshape(-1)
        joint_succ = np.broadcast_to(post_succ, (2, n_demands, n_states)).reshape(-1)
        code_path = np.multiply(post_path, n_demands,
                                dtype=np.min_scalar_type(len(joint_cost)))
        code_path += demand_path
        code_path *= n_states
    if uses_belief:
        lr_lin = np.exp(log_lr)
        belief = np.zeros(n_rows)[n_det:n_read]      # one per row of momdp
        grid = setup.momdp.grid_size
    if "random" in kinds:
        action_path = joined(3)
        if any(acts != tuple(range(len(acts))) for acts in env.mdp_pre.feasible):
            raise ValueError("random policy requires contiguous feasible actions")
        n_feas = np.array([len(acts) for acts in env.mdp_pre.feasible])

    beta_pow = 1.0
    traces = {name: np.zeros((n_rows, horizon)) for name in
              ("state", "action", "demand", "statistic", "phase", "cost")} if trace else {}

    for k in range(horizon):
        rows_i, rows_f = ints[:, :n_rows], floats[:, :n_rows]
        if k >= 1 and n_read != 0:
            transition = rows_i[SA_PREV, :n_read] * n_states + rows_i[STATE, :n_read]
            if uses_detector:
                stat = rows_f[STAT, :n_det]
                live = slice(0, n_rows) if merged else (rows_i[TAU, :n_det] < 0).nonzero()[0]
                step_lr = log_lr.take(transition[live])
                if setup.detector_kind == "cusum":
                    stat[live] = windowed_cusum(buf, live, step_lr, k)
                else:
                    stat[live] = shiryaev_log_update(stat[live], step_lr, log1m_rho)
                h = (stat > rows_f[NEXT_A, :n_det]).nonzero()[0]     # rows passing cells now
                if len(h) and not merged:
                    rows_i[TAU, h], rows_f[NEXT_A, h] = k, math.inf
                elif len(h):
                    fields = rows_i[:STATE + 1, h]              # RUN .. NEXT_J, STATE
                    j1 = cells.a.searchsorted(stat.take(h))     # the cells whose A < stat
                    new = slice(n_events, n_events + len(h))
                    if new.stop > len(ev_disc):
                        ev, ev_group, ev_disc, group_col, group_state = (
                            _room(x, new.stop, n_events_max)
                            for x in (ev, ev_group, ev_disc, group_col, group_state))
                    # each event starts a group of its own, merged into
                    # the others on its (column, state) below
                    grp = slice(n_groups, n_groups + len(h))
                    group_col[grp], group_state[grp] = fields[RUN], fields[STATE]
                    ev[:EV_TAU, new], ev[EV_TAU, new] = fields[:EV_TAU], k
                    ev_group[new], ev_disc[new] = np.arange(grp.start, grp.stop), rows_f[DISC, h]
                    n_events, n_groups = new.stop, grp.stop
                    nxt = cells.nxt[fields[LO], fields[HI], j1]
                    rows_i[NEXT_J, h], rows_f[NEXT_A, h] = j1, cells.a_next.take(nxt)
                    gone = h[nxt == cells.m]            # rows whose last cells passed
                    if len(gone):
                        # the rows left at the end move into the holes below it
                        n_rows -= len(gone)
                        n_holes = gone.searchsorted(n_rows)
                        moves = np.ones(len(gone), dtype=bool)
                        moves[gone[n_holes:] - n_rows] = False
                        holes, movers = gone[:n_holes], n_rows + moves.nonzero()[0]
                        ints[:, holes], floats[:, holes] = ints[:, movers], floats[:, movers]
                        if setup.detector_kind == "cusum":
                            buf[:, holes] = buf[:, movers]
                        rows_i, rows_f = ints[:, :n_rows], floats[:, :n_rows]
                if merged and n_blocks > 1:
                    stat = rows_f[STAT]
                    h = ((stat > rows_f[LO_B]) & (stat <= rows_f[HI_B])).nonzero()[0]
                    if len(h):
                        h = h[probe_differs.take(rows_i[STATE].take(h))]
                    if len(h):
                        # blocks below c probe, and blocks from c on stay pre:
                        # edges[:2] and edges[1:3] bound the two sides
                        edges = rows_i[_EDGE_FIELDS, h]
                        c = edges[1] = block_b.searchsorted(stat.take(h))
                        below, above = cells.nxt[edges[:2], edges[1:3], edges[3]]
                        # a row keeps its probing blocks if they hold cells, else
                        # the others; where both sides do, the others split off
                        keeps = below < cells.m
                        split = (keeps & (above < cells.m)).nonzero()[0]
                        if len(split):
                            hs, cs = h.take(split), c.take(split)
                            to = slice(n_rows, n_rows + len(split))
                            ints[:, to], floats[:, to] = rows_i[:, hs], rows_f[:, hs]
                            ints[LO, to], floats[LO_B, to] = cs, block_b.take(cs)
                            floats[NEXT_A, to] = cells.a_next.take(above.take(split))
                            if setup.detector_kind == "cusum":
                                # a column is window + 3 floats, so it grows by
                                # less: at twice, the protocol CUSUM tt grid
                                # peaked 10 MB higher
                                buf = _room(buf, to.stop, capacity, growth=1.5)
                                buf[:, to] = buf[:, hs]
                            n_rows = to.stop
                        # the side a row keeps, its B at LO and HI - 1, its next A
                        lo_hi = np.where(keeps, edges[:2], edges[1:3])
                        rows_i[LO:HI + 1, h] = lo_hi
                        lo_hi[1] -= 1
                        rows_f[LO_B:HI_B + 1, h] = block_b.take(lo_hi)
                        rows_f[NEXT_A, h] = cells.a_next.take(np.where(keeps, below, above))
                        rows_i, rows_f = ints[:, :n_rows], floats[:, :n_rows]
            if uses_belief:
                step_lr = lr_lin[transition[n_det:]]
                belief = belief_step(belief, step_lr, setup.momdp.pomdp.rho)

        s, stat = rows_i[STATE], rows_f[STAT]
        if merged:
            by_run = rows_i[RUN]
        post = post_path[k] if rows_are_cols else post_path[k].take(by_run)
        actions = []
        for kind, rows in steps:
            s_k = s[rows]
            if kind == "oracle":
                a = np.where(post[rows], setup.pi_post[s_k], setup.pi_pre[s_k])
            elif kind == "random":
                # rows as many as the columns are the columns in order
                u = action_path[k] if len(s_k) == n_cols else action_path[k][by_run[rows]]
                a = (u * n_feas[s_k]).astype(int)
            elif kind == "momdp":
                a = np.take(setup.momdp.policy,
                            s_k * grid + np.rint(belief * (grid - 1)).astype(int))
            else:
                # a merged row never switches: its cells leave it instead
                phase, a = switch_action(policies, None if merged else rows_i[TAU, rows] >= 0,
                                         stat[rows], rows_f[LO_B, rows], s_k)
            actions.append(a)
        a = actions[0] if len(actions) == 1 else np.concatenate(actions)

        sa = np.multiply(s, n_actions, out=rows_i[SA_PREV])
        sa += a
        cost = costs.take(post * n_pairs + sa)
        rows_f[DISC] += beta_pow * cost
        w = demand_path[k] if rows_are_cols else demand_path[k].take(by_run)
        if n_events:
            if n_groups > 2 * n_distinct + GROUP_SLACK:
                # groups on one (column, state) merge; their events follow pi_post
                # from there on the same demands, so they stay together
                distinct, merged_into = np.unique(
                    group_col[:n_groups] * n_states + group_state[:n_groups], return_inverse=True)
                n_groups = n_distinct = len(distinct)
                group_col[:n_groups], group_state[:n_groups] = np.divmod(distinct, n_states)
                ev_group[:n_events] = merged_into.take(ev_group[:n_events])
            # each event adds its group's cost, as it would have looked it up itself
            idx = code_path[k].take(group_col[:n_groups]) + group_state[:n_groups]
            ev_disc[:n_events] += (beta_pow * joint_cost).take(idx).take(ev_group[:n_events])
            joint_succ.take(idx, out=group_state[:n_groups])
        beta_pow *= setup.beta

        if trace:
            traces["state"][:, k] = s
            traces["action"][:, k] = a
            traces["demand"][:, k] = w
            traces["cost"][:, k] = cost
            if uses_detector:
                traces["statistic"][:n_det, k] = stat[:n_det]
                traces["phase"][:n_det, k] = phase
            if uses_belief:
                traces["statistic"][n_det:n_read, k] = belief
        np.maximum(np.subtract(s + a, w, out=s), 0, out=s)

    # the step loop alone reads the paths: a joined or code path goes before
    # the holders' table and the outcomes take their memory
    post_path = demand_path = code_path = None
    if merged:
        # the rows follow the events, each reporting the cells it still holds
        # (a merged row never switches). On one (column, block) the events and
        # then the row, numbered in order of NEXT_J from 0, each hold the A
        # indices up to the next one's NEXT_J: a cell's is the last at or below it
        last = slice(n_events, n_events + n_rows)
        ev, ev_disc = (_room(x, last.stop, n_events_max) for x in (ev, ev_disc))
        ev[:EV_TAU, last], ev[EV_TAU, last] = ints[:EV_TAU, :n_rows], -1
        ev_disc[last] = floats[DISC, :n_rows]
        ref = cells.holders(*ev[:EV_TAU, :last.stop].astype(int), n_cols)
        taus, discs = ev[EV_TAU, :last.stop].astype(int), ev_disc
    else:
        ref = np.arange(n_rows).reshape(n_cells, n_cols)
        taus, discs = ints[TAU], floats[DISC]
    # per (cell, column), its row or event: the kinds back in the tuple's
    # order, then in (spec, kind, cell, run) order
    if kinds != list(setup.kinds):
        ref = ref.reshape(len(kinds), per_kind)[[kinds.index(kind) for kind in setup.kinds]]
    by_spec = ref.reshape(n_cells, n_specs, n_runs).transpose(1, 0, 2)
    tau, disc = taus.take(by_spec), discs.take(by_spec)
    traces = {name: t[by_spec.reshape(-1)] for name, t in traces.items()}
    return BatchResult(run_ids=np.tile(run_ids, n_specs * n_cells), gamma=gamma.copy(),
                       tau=tau.reshape(-1), discounted_cost=disc.reshape(-1),
                       trace=traces)

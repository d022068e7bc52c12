"""In-memory span recorder that traces nsmdp from outside the package.

Every public module-level function of the traced modules is replaced, in
every namespace that binds it, by a wrapper that records one span per call:
name, start, end, parent span and thread. `from x import y` gives the
importing module its own binding, so patching only the defining module would
miss calls such as `nsmdp.engine.demand_from_uniform` or
`nsmdp.cli.value_iteration`; the wrapper is installed under every binding
found in `nsmdp` and its submodules. Spans live in flat arrays while the run
goes on and are written out once, after it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("inventory", "mdp", "detectors", "controllers", "momdp", "engine",
          "harness", "cli")
_NO_PARENT = -1


class SpanRecorder:
    """Flat, thread-safe span store plus the counters that need call
    arguments or results (run-steps, VI sweeps, cache hits, cells, bytes)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.thread = array("i")
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._threads: dict[int, int] = {}
        self._seen_draws: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to whatever the submitting
            # main thread is inside (the executor does not carry context over)
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = _NO_PARENT
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.thread.append(tid)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def note_draw(self, result) -> None:
        """A draw is a hit when it hands back arrays an earlier call already
        returned, i.e. the engine served it without regenerating."""
        gamma = result[0]
        with self._lock:
            if self._seen_draws.get(id(gamma)) is gamma:
                self.counters["draw_hits"] = self.counters.get("draw_hits", 0.0) + 1
            else:
                self._seen_draws[id(gamma)] = gamma

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "thread": np.frombuffer(self.thread, dtype=np.int32).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (sum of durations) and self
        seconds (duration minus the part of it that child spans cover)."""
        a = self.arrays()
        n = len(a["start"])
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        covered = _child_coverage(a["start"], a["end"], a["parent"], a["thread"])
        self_s = dur - covered
        out = {}
        n_names = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        busy = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        for nid, name in enumerate(self.names):
            out[name] = {"calls": int(calls[nid]), "busy_s": float(busy[nid]),
                         "self_s": float(own[nid])}
        return out

    @staticmethod
    def span_cost_s(n: int = 100_000) -> float:
        """Seconds one open/close pair costs, timed on a scratch recorder."""
        scratch = SpanRecorder()
        t0 = time.perf_counter()
        for _ in range(n):
            scratch.close(scratch.open("calibration"))
        return (time.perf_counter() - t0) / n

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _child_coverage(start, end, parent, thread) -> np.ndarray:
    """Length of each span's interval covered by its children.

    Children on one thread never overlap, so their durations add up; only
    parents whose children ran on several threads need an interval union.
    """
    n = len(start)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=(end - start)[has_parent],
                          minlength=n)[:n]
    t_min = np.full(n, np.iinfo(np.int32).max)
    t_max = np.full(n, -1)
    np.minimum.at(t_min, parent[has_parent], thread[has_parent])
    np.maximum.at(t_max, parent[has_parent], thread[has_parent])
    for p in np.flatnonzero(t_max > t_min):
        kids = np.flatnonzero(parent == p)
        kids = kids[np.argsort(start[kids])]
        total, cur_lo, cur_hi = 0.0, None, None
        for k in kids:
            lo, hi = start[k], end[k]
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo
        covered[p] = total
    return covered


# -- counters that read call arguments or results ---------------------------

def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _after_simulate_batch(rec, fn, args, kwargs, result):
    setup = _bound(fn, args, kwargs)["setup"]
    rec.count("run_steps", len(result.run_ids) * setup.horizon)


def _after_draw(rec, fn, args, kwargs, result):
    rec.note_draw(result)


def _after_value_iteration(rec, fn, args, kwargs, result):
    rec.count("vi_sweeps", len(result.deltas))


def _after_belief_grid_solve(rec, fn, args, kwargs, result):
    # one (S, A, G, S') float64 table, computed from the shapes
    n_s, n_a, _ = result.pomdp.mdp0.kernel.shape
    rec.count("belief_table_bytes", n_s * n_a * result.grid_size * n_s * 8)


def _after_grid(rec, fn, args, kwargs, result):
    cells = result.cells if hasattr(result, "cells") else result
    rec.count("cells", len(cells))


def _after_write_csv(rec, fn, args, kwargs, result):
    rec.count("csv_bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


AFTER = {
    "engine.simulate_batch": _after_simulate_batch,
    "engine.draw_episode_randomness": _after_draw,
    "mdp.value_iteration": _after_value_iteration,
    "momdp.belief_grid_solve": _after_belief_grid_solve,
    "harness.optimize_thresholds": _after_grid,
    "harness.estimate_nonbayes_grid": _after_grid,
    "harness.write_runs_csv": _after_write_csv,
    "harness.write_summary_csv": _after_write_csv,
    "harness.write_frontier_csv": _after_write_csv,
}


def _wrap(rec: SpanRecorder, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(rec, fn, args, kwargs, result)
        return result
    return traced


def public_functions(modules) -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every public function
    defined at module level in the layer modules."""
    found = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                found[id(val)] = (f"{layer}.{attr}", val)
    return found


@contextmanager
def traced(rec: SpanRecorder):
    """Install wrappers for the duration of the block, then restore every
    original binding."""
    pkg = importlib.import_module("nsmdp")
    layers = [importlib.import_module(f"nsmdp.{name}") for name in LAYERS]
    targets = public_functions(layers)
    wrappers = {key: _wrap(rec, name, fn) for key, (name, fn) in targets.items()}
    patched = []
    for mod in [pkg, *layers]:
        for attr, val in list(vars(mod).items()):
            wrapper = wrappers.get(id(val))
            if wrapper is not None and targets[id(val)][1] is val:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, val))
    try:
        yield patched
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)

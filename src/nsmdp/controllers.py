"""Runtime switching controllers mapping (state, detector state) to actions.

Every thresholded kind shares one phase machine: play the pre-change-optimal
policy while the statistic is at or below B, probe with the information-
maximizing policy while it sits in (B, A], and switch absorbingly to the
post-change-optimal policy once it exceeds A. Degenerate thresholds recover
the named baselines: B = A is the single-threshold switch-on-detection
policy, B at the statistic floor probes from the start.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .detectors import Detector, threshold_domain
from .errors import StateError
from .mdp import action_mask, kl_per_action, validate_policy

PHASES = ("pre", "probe", "post")


def kind_thresholds(kind: str, detector_kind: str, threshold_a: float,
                    threshold_b: float | None) -> tuple[float, float | None]:
    """(A, B) after the kind's degeneracies: loc forces B = A, kl puts B at
    the statistic floor (0 for shiryaev/sr, -inf for cusum/glr), tt keeps
    both as given, and the kinds that read no thresholds (oracle, random,
    momdp) have A = inf and B = 0, so that kinds sharing thresholds each
    report their own."""
    if kind == "loc":
        return threshold_a, threshold_a
    if kind == "kl":
        return threshold_a, 0.0 if detector_kind in ("shiryaev", "sr") else -math.inf
    if kind in ("oracle", "random", "momdp"):
        return math.inf, 0.0
    return threshold_a, threshold_b


def check_thresholds(detector_kind: str, detector_rho: float, threshold_a,
                     threshold_b) -> None:
    """Raise ValueError unless the detector can use these thresholds: every
    A and B passes `threshold_domain` (not NaN, non-negative for shiryaev/sr),
    B <= A in every cell, and `detector_rho` is in [0, 1), and 0 for sr. A
    and B may be per-cell arrays."""
    if not 0.0 <= detector_rho < 1.0 or (detector_kind == "sr" and detector_rho != 0.0):
        raise ValueError(f"detector_rho must be in [0, 1), and 0 for sr, got {detector_rho}")
    a, b = (t.reshape(-1) for t in np.broadcast_arrays(np.asarray(threshold_a, dtype=float),
                                                      np.asarray(threshold_b, dtype=float)))
    for threshold in np.unique(np.concatenate([a, b])).tolist():
        threshold_domain(detector_kind, threshold)
    over = np.flatnonzero(b > a)
    if over.size:
        raise ValueError(f"need B <= A, got B={b[over[0]]:g}, A={a[over[0]]:g}")


def switch_action(policies: np.ndarray, switched, log_stat, log_b, s):
    """The two-threshold rule: (phase, action) where the phase indexes PHASES
    (post once switched, probe while the statistic exceeds B, pre otherwise)
    and the action is that phase's policy at state s.

    `policies` stacks the pre, probe and post policies as rows; `log_b` is B
    in the statistic's domain (see `threshold_domain`). Works elementwise
    on arrays of runs; `switched` is None for runs that never switch, whose
    phase is then pre or probe.
    """
    phase = log_stat > log_b
    if switched is not None:
        phase = np.maximum(2 * np.asarray(switched), phase)
    return phase, policies.reshape(-1).take(phase * policies.shape[1] + s)


def kl_policy(kernel0: np.ndarray, kernel1: np.ndarray,
              feasible: tuple[tuple[int, ...], ...] | None = None) -> np.ndarray:
    """Per-state action maximizing KL(T1(s,a,.) || T0(s,a,.)).

    Ties break toward the lowest action index, so identical kernels give the
    all-zeros policy.
    """
    kl = kl_per_action(kernel1, kernel0)
    if feasible is not None:
        kl = np.where(action_mask(feasible, kl.shape[1]), kl, -np.inf)
    return np.argmax(kl, axis=1).astype(int)


def _policy_table(table, feasible, name: str) -> np.ndarray:
    """A controller's policy table, checked by `validate_policy` against the
    feasible action sets, or without them, for non-negative integers."""
    if feasible is not None:
        mask = action_mask(feasible, 1 + max(max(acts) for acts in feasible))
        return validate_policy(mask, table, (len(feasible),), name).astype(int)
    table = np.asarray(table)
    if table.ndim != 1 or table.dtype.kind not in "iu" or (table < 0).any():
        raise ValueError(f"{name} must be a 1-D array of non-negative integers, got {table!r}")
    return table.astype(int)


class SwitchController:
    """Per-episode state machine for the single-threshold (loc),
    probe-always (kl) and two-threshold (tt) policies; the oracle and
    random baselines are engine policy kinds.

    kind='tt' takes both thresholds; 'loc' forces B = A and 'kl' forces B to
    the statistic floor (0 for shiryaev/sr, -inf for cusum), so the
    reductions hold action-for-action by construction. A policy table must
    be an integer array of non-negative actions, and with `feasible` given,
    of one feasible action per state (ValueError naming the table).
    """

    def __init__(self, kind: str, pi_pre: np.ndarray | None = None,
                 pi_probe: np.ndarray | None = None,
                 pi_post: np.ndarray | None = None,
                 detector: Detector | None = None,
                 threshold_a: float = math.inf,
                 threshold_b: float | None = None,
                 feasible: tuple[tuple[int, ...], ...] | None = None):
        if kind not in ("loc", "kl", "tt"):
            raise ValueError(f"unknown controller kind {kind!r}")
        self.kind = kind
        self.pi_pre, self.pi_probe, self.pi_post = (
            None if table is None else _policy_table(table, feasible, name)
            for table, name in ((pi_pre, "pi_pre"), (pi_probe, "pi_probe"),
                                (pi_post, "pi_post")))
        self.detector = detector
        self.phase = "pre"
        self.tau_switch: int | None = None
        if self.pi_pre is None or self.pi_post is None or detector is None:
            raise ValueError(f"{kind} controller needs pi_pre, pi_post and a detector")
        threshold_a, threshold_b = kind_thresholds(kind, detector.config.kind,
                                                   threshold_a, threshold_b)
        if threshold_b is None:
            raise ValueError("tt controller needs threshold_b")
        if kind in ("kl", "tt") and self.pi_probe is None:
            raise ValueError(f"{kind} controller needs pi_probe")
        if self.pi_probe is None:
            self.pi_probe = self.pi_pre  # loc never probes
        check_thresholds(detector.config.kind, detector.config.rho, threshold_a, threshold_b)
        self.threshold_a = float(threshold_a)
        self.threshold_b = float(threshold_b)
        self._log_b = threshold_domain(detector.config.kind, self.threshold_b)
        self._policies = np.stack((self.pi_pre, self.pi_probe, self.pi_post))
        # the detector's stopping threshold is the controller's A
        detector.config = replace(detector.config, threshold=self.threshold_a)

    def step(self, s: int, transition_feedback: tuple[int, int, int] | None,
             now: int) -> int:
        """Consume the just-realized transition, update the phase, and emit
        the action for the current state."""
        if self.threshold_b > self.threshold_a:
            raise StateError("malformed controller: B > A")
        switched = self.phase == "post"
        if not switched:
            if transition_feedback is not None:
                state = self.detector.update(*transition_feedback)
                if state.stopped:
                    switched = True
                    self.tau_switch = state.stopped_at
            elif now >= 1:
                raise ValueError("transition_feedback required for now >= 1")
        phase, action = switch_action(self._policies, switched,
                                      self.detector.state.log_stat, self._log_b, s)
        self.phase = PHASES[phase]
        return int(action)

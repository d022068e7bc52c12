"""Runtime switching controllers mapping (state, detector state) to actions.

All controllers share the same phase machine: play the pre-change-optimal
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

from .detectors import Detector, DetectorConfig, DetectorState, threshold_domain
from .errors import StateError
from .mdp import EPS_PROB, TabularMdp, action_mask, kl_per_action, value_iteration

PHASES = ("pre", "probe", "post")


def kind_thresholds(kind: str, detector_kind: str, threshold_a: float,
                    threshold_b: float | None) -> tuple[float, float | None]:
    """(A, B) after the kind's degeneracies: loc forces B = A, kl puts B at
    the statistic floor (0 for shiryaev/sr, -inf for cusum/glr), and every
    other kind keeps B as given."""
    if kind == "loc":
        return threshold_a, threshold_a
    if kind == "kl":
        return threshold_a, 0.0 if detector_kind in ("shiryaev", "sr") else -math.inf
    return threshold_a, threshold_b


def check_thresholds(detector_kind: str, detector_rho: float, threshold_a,
                     threshold_b) -> None:
    """Raise ValueError unless the detector can use these thresholds: no A
    or B is NaN, B <= A in every cell, both are non-negative for shiryaev/sr
    (whose thresholds are linear), and `detector_rho` is in [0, 1), and 0
    for sr. A and B may be per-cell arrays."""
    if not 0.0 <= detector_rho < 1.0 or (detector_kind == "sr" and detector_rho != 0.0):
        raise ValueError(f"detector_rho must be in [0, 1), and 0 for sr, got {detector_rho}")
    a, b = (t.reshape(-1) for t in np.broadcast_arrays(np.asarray(threshold_a, dtype=float),
                                                      np.asarray(threshold_b, dtype=float)))
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("thresholds must not be NaN")
    over = np.flatnonzero(b > a)
    if over.size:
        raise ValueError(f"need B <= A, got B={b[over[0]]:g}, A={a[over[0]]:g}")
    if detector_kind in ("shiryaev", "sr") and (b < 0).any():
        raise ValueError("thresholds must be non-negative for shiryaev/sr")


def switch_action(policies: np.ndarray, switched, log_stat, log_b, s):
    """The two-threshold rule: (phase, action) where the phase indexes PHASES
    (post once switched, probe while the statistic exceeds B, pre otherwise)
    and the action is that phase's policy at state s.

    `policies` stacks the pre, probe and post policies as rows; `log_b` is B
    in the statistic's domain (see `threshold_domain`). Works elementwise
    on arrays of runs.
    """
    phase = np.maximum(2 * np.asarray(switched), log_stat > log_b)
    return phase, policies.reshape(-1)[phase * policies.shape[1] + s]


def kl_policy(kernel0: np.ndarray, kernel1: np.ndarray,
              feasible: tuple[tuple[int, ...], ...] | None = None,
              eps_prob: float = EPS_PROB) -> np.ndarray:
    """Per-state action maximizing KL(T1(s,a,.) || T0(s,a,.)).

    Ties break toward the lowest action index, so identical kernels give the
    all-zeros policy.
    """
    kl = kl_per_action(kernel1, kernel0, eps_prob)
    return _masked_argmax(kl, feasible)


def worst_case_kl_policy(kernel0: np.ndarray,
                         theta_grid: tuple[np.ndarray, ...],
                         feasible: tuple[tuple[int, ...], ...] | None = None,
                         eps_prob: float = EPS_PROB) -> np.ndarray:
    """Probing policy for an unknown post-change model: maximize the worst-case
    KL divergence over the candidate grid."""
    if len(theta_grid) == 0:
        raise ValueError("theta_grid must be nonempty")
    worst = None
    for kernel_theta in theta_grid:
        kl = kl_per_action(np.asarray(kernel_theta, dtype=float), kernel0, eps_prob)
        worst = kl if worst is None else np.minimum(worst, kl)
    return _masked_argmax(worst, feasible)


def _masked_argmax(score: np.ndarray, feasible) -> np.ndarray:
    if feasible is not None:
        score = np.where(action_mask(feasible, score.shape[1]), score, -np.inf)
    return np.argmax(score, axis=1).astype(int)


class SwitchController:
    """Per-episode state machine for the oracle, random, single-threshold,
    probe-always and two-threshold policies.

    kind='tt' takes both thresholds; 'loc' forces B = A and 'kl' forces B to
    the statistic floor (0 for shiryaev/sr, -inf for cusum), so the
    reductions hold action-for-action by construction.
    """

    def __init__(self, kind: str, pi_pre: np.ndarray | None = None,
                 pi_probe: np.ndarray | None = None,
                 pi_post: np.ndarray | None = None,
                 detector: Detector | None = None,
                 threshold_a: float = math.inf,
                 threshold_b: float | None = None,
                 oracle_switch_time: float = math.inf,
                 feasible: tuple[tuple[int, ...], ...] | None = None):
        if kind not in ("oracle", "loc", "kl", "tt", "random"):
            raise ValueError(f"unknown controller kind {kind!r}")
        self.kind = kind
        self.pi_pre = None if pi_pre is None else np.asarray(pi_pre, dtype=int)
        self.pi_probe = None if pi_probe is None else np.asarray(pi_probe, dtype=int)
        self.pi_post = None if pi_post is None else np.asarray(pi_post, dtype=int)
        self.detector = detector
        self.oracle_switch_time = oracle_switch_time
        self.feasible = feasible
        self.phase = "pre"
        self.tau_switch: int | None = None

        if kind == "random":
            if feasible is None:
                raise ValueError("random controller needs the feasible action sets")
            return
        if self.pi_pre is None or self.pi_post is None:
            raise ValueError(f"{kind} controller needs pi_pre and pi_post")
        if kind == "oracle":
            return
        if detector is None:
            raise ValueError(f"{kind} controller needs a detector")
        threshold_a, threshold_b = kind_thresholds(kind, detector.config.kind,
                                                   threshold_a, threshold_b)
        if threshold_b is None:
            raise ValueError("tt controller needs threshold_b")
        if kind in ("kl", "tt") and self.pi_probe is None:
            raise ValueError(f"{kind} controller needs pi_probe")
        if self.pi_probe is None:
            self.pi_probe = self.pi_pre  # loc never probes
        self._arm(threshold_a, threshold_b, (self.pi_pre, self.pi_probe, self.pi_post))
        # the detector's stopping threshold is the controller's A
        detector.config = replace(detector.config, threshold=self.threshold_a)

    def _arm(self, threshold_a: float, threshold_b: float, policies) -> None:
        """Set the thresholds (see `check_thresholds`) and the policy rows of
        the phase rule."""
        config = self.detector.config
        check_thresholds(config.kind, config.rho, threshold_a, threshold_b)
        self.threshold_a = float(threshold_a)
        self.threshold_b = float(threshold_b)
        self._log_b = threshold_domain(config.kind, self.threshold_b)
        self._policies = np.stack(policies)

    def step(self, s: int, transition_feedback: tuple[int, int, int] | None,
             now: int, rng: np.random.Generator | None = None) -> int:
        """Consume the just-realized transition, update the phase, and emit
        the action for the current state."""
        if self.kind == "oracle":
            if now >= self.oracle_switch_time:
                self.phase = "post"
                return int(self.pi_post[s])
            return int(self.pi_pre[s])
        if self.kind == "random":
            if rng is None:
                raise ValueError("random controller needs an rng")
            acts = self.feasible[s]
            return int(acts[int(rng.random() * len(acts))])

        if self.threshold_b > self.threshold_a:
            raise StateError("malformed controller: B > A")
        switched = self.phase == "post"
        if not switched:
            if transition_feedback is not None:
                state = self.detector.update(*transition_feedback)
                if state.stopped:
                    switched = True
                    self.tau_switch = state.stopped_at
                    self._on_stop(state)
            elif now >= 1:
                raise ValueError("transition_feedback required for now >= 1")
        phase, action = switch_action(self._policies, switched,
                                      self.detector.state.log_stat, self._log_b, s)
        self.phase = PHASES[phase]
        return int(action)

    def _on_stop(self, state: DetectorState) -> None:
        """Hook run once, when the detector first stops."""


class GlrController(SwitchController):
    """Two-threshold controller for an unknown post-change model.

    Monitors with a windowed GLR over every candidate model other than the
    current pre-change one, probes with the worst-case-KL policy, and on
    stopping adopts the optimal policy of the maximum-likelihood candidate.
    `glr_reset` re-bases the controller on that candidate so multiple change
    points can be tracked.
    """

    kind = "glr"

    def __init__(self, models: tuple[TabularMdp, ...], pre_index: int,
                 threshold_a: float, threshold_b: float, window: int,
                 beta: float, vi_tol: float = 1e-8,
                 min_separation: float = 1e-6, eps_prob: float = EPS_PROB,
                 _policy_cache: dict | None = None):
        self.models = tuple(models)
        self.pre_index = pre_index
        self.window = window
        self.beta = beta
        self.vi_tol = vi_tol
        self.min_separation = min_separation
        self.eps_prob = eps_prob
        self._policy_cache = {} if _policy_cache is None else _policy_cache
        pre = self.models[pre_index]
        self.candidates = tuple(i for i in range(len(self.models)) if i != pre_index)
        grid = tuple(self.models[i].kernel for i in self.candidates)
        self.detector = Detector(
            DetectorConfig(kind="glr", threshold=float(threshold_a), window=window,
                           theta_grid=grid, min_separation=min_separation,
                           eps_prob=eps_prob),
            pre.kernel)
        self.pi_pre = self._optimal_policy(pre_index)
        self.pi_probe = worst_case_kl_policy(pre.kernel, grid, pre.feasible, eps_prob)
        self.pi_post: np.ndarray | None = None
        # the post row is added by _on_stop, once the candidate is known
        self._arm(threshold_a, threshold_b, (self.pi_pre, self.pi_probe))
        self.estimated_index: int | None = None
        self.phase = "pre"
        self.tau_switch: int | None = None

    def _optimal_policy(self, index: int) -> np.ndarray:
        if index not in self._policy_cache:
            self._policy_cache[index] = value_iteration(
                self.models[index], self.beta, self.vi_tol).policy
        return self._policy_cache[index]

    def _on_stop(self, state: DetectorState) -> None:
        self.estimated_index = self.candidates[state.theta_hat]
        self.pi_post = self._optimal_policy(self.estimated_index)
        self._policies = np.vstack((self._policies, self.pi_post))


def glr_reset(ctrl: GlrController, theta_hat: int | None = None) -> GlrController:
    """Re-base a stopped GLR controller on its estimated post-change model.

    Returns a fresh controller whose pre-change model is the estimate, with
    a zeroed detector, enabling detection of the next change point.
    """
    if ctrl.phase != "post" or ctrl.estimated_index is None:
        raise StateError("glr_reset requires a stopped controller")
    new_pre = ctrl.estimated_index if theta_hat is None else theta_hat
    return GlrController(ctrl.models, new_pre, ctrl.threshold_a, ctrl.threshold_b,
                         ctrl.window, ctrl.beta, ctrl.vi_tol, ctrl.min_separation,
                         ctrl.eps_prob, _policy_cache=ctrl._policy_cache)

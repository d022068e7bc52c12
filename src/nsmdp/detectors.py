"""Sequential change detectors over state-action trajectories.

Four statistics are provided: Shiryaev (geometric-prior Bayesian), its
rho = 0 limit Shiryaev-Roberts (SR), a windowed CUSUM, and a windowed GLR
over a grid of candidate post-change kernels. Shiryaev/SR statistics are
kept in log domain so long runs never overflow; CUSUM/GLR statistics are
already sums of log-likelihood ratios.

Thresholds for Shiryaev/SR live in the linear statistic domain and are
compared in logs; CUSUM/GLR thresholds are log-domain reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StateError
from .mdp import EPS_PROB, log_ratio_table

NEG_INF = float("-inf")


def log_likelihood_ratio(kernel0: np.ndarray, kernel1: np.ndarray,
                         s: int, a: int, s_next: int,
                         eps_prob: float = EPS_PROB) -> float:
    """Per-transition log-likelihood ratio of post- vs pre-change kernel."""
    k0 = np.asarray(kernel0, dtype=float)
    k1 = np.asarray(kernel1, dtype=float)
    n_states, n_actions = k0.shape[0], k0.shape[1]
    if not (0 <= s < n_states and 0 <= s_next < n_states):
        raise ValueError(f"state out of range: {s} -> {s_next}")
    if not 0 <= a < n_actions:
        raise ValueError(f"action {a} out of range")
    return float(log_ratio_table(k1[s, a, s_next], k0[s, a, s_next], eps_prob))


def shiryaev_log_update(log_stat, log_lr, log_one_minus_rho):
    """One step of the Shiryaev recursion in log domain.

    S_n = ((1 + S_{n-1}) / (1 - rho)) * lr_n, i.e.
    log S_n = logaddexp(0, log S_{n-1}) - log(1 - rho) + log lr_n.
    Works elementwise on arrays; shared by the scalar and batch engines.
    """
    return np.logaddexp(0.0, log_stat) - log_one_minus_rho + log_lr


def windowed_cusum(buffer: np.ndarray, rows: np.ndarray, log_lr, n_seen: int) -> np.ndarray:
    """Push one log-likelihood ratio into each selected row of the
    (..., 2 * (window + 1)) ring buffer, in place, and return those rows'
    windowed CUSUM statistic: the max over the sums of the last j ratios,
    j = 1..min(n_seen, window + 1), where `n_seen` counts the ratios pushed
    so far, this one included.

    Each ratio is stored twice, window + 1 apart, so the newest window + 1
    ratios are one contiguous run, newest first, and nothing is shifted.
    `rows` is a boolean mask over the leading axes or an index array, never
    a slice: the sums are accumulated in place in the copy such indexing
    makes. Shared by the scalar CUSUM/GLR detectors (one row per candidate)
    and the batch engine (one row per cell and run).
    """
    width = buffer.shape[-1] // 2
    p = -n_seen % width
    buffer[rows, p] = log_lr
    buffer[rows, p + width] = log_lr
    recent = buffer[rows, p:p + min(n_seen, width)]
    np.cumsum(recent, axis=1, out=recent)
    return recent.max(axis=1)


def threshold_domain(kind: str, threshold: float) -> float:
    """A threshold in the domain of `DetectorState.log_stat`: its log for
    shiryaev/sr, whose thresholds are linear and must be non-negative, and
    the threshold itself for cusum/glr."""
    if kind in ("shiryaev", "sr"):
        if threshold < 0:
            raise ValueError("threshold must be non-negative for shiryaev/sr")
        return float(np.log(threshold)) if threshold > 0.0 else NEG_INF
    return float(threshold)


@dataclass(frozen=True)
class DetectorConfig:
    """Configuration for one sequential detector."""

    kind: str                                   # shiryaev | sr | cusum | glr
    threshold: float                            # A (see module docstring for domains)
    rho: float = 0.0                            # geometric prior parameter (shiryaev)
    window: int = 200                           # m, suffix window for cusum/glr
    theta_grid: tuple[np.ndarray, ...] = ()     # candidate post-change kernels (glr)
    min_separation: float = 1e-6                # required sup-distance of candidates from T0
    eps_prob: float = EPS_PROB

    def __post_init__(self):
        if self.kind not in ("shiryaev", "sr", "cusum", "glr"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if self.kind == "shiryaev" and not 0.0 < self.rho < 1.0:
            raise ValueError("shiryaev requires rho in (0, 1); use kind='sr' for rho = 0")
        if self.kind == "sr" and self.rho != 0.0:
            raise ValueError("sr is the rho = 0 Shiryaev statistic")
        if self.kind in ("cusum", "glr") and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.kind == "glr" and len(self.theta_grid) == 0:
            raise ValueError("glr requires a nonempty theta_grid")


@dataclass(frozen=True)
class DetectorState:
    """Value object holding a running statistic.

    `log_stat` is log S_n for shiryaev/sr (so -inf encodes S_n = 0) and the
    statistic itself for cusum/glr. `buffers` holds the `windowed_cusum`
    ring of recent per-step log-likelihood ratios, one row per candidate
    (cusum keeps a single row); it is never written once the state exists.
    """

    kind: str
    n: int = 0
    log_stat: float = NEG_INF
    stopped_at: int | None = None
    buffers: np.ndarray | None = field(default=None, compare=False, repr=False)
    theta_hat: int | None = None

    @property
    def statistic(self) -> float:
        """Statistic in its natural domain (linear for shiryaev/sr)."""
        if self.kind in ("shiryaev", "sr"):
            return math.exp(self.log_stat) if self.log_stat != NEG_INF else 0.0
        return self.log_stat

    @property
    def stopped(self) -> bool:
        return self.stopped_at is not None


def new_detector_state(kind: str) -> DetectorState:
    return DetectorState(kind=kind)


def _advance(state: DetectorState, log_lrs, log_one_minus_rho: float = 0.0,
             window: int = 0) -> DetectorState:
    """One step of the state's statistic from one log-likelihood ratio per
    row: a single row for shiryaev/sr/cusum, one per candidate for glr,
    whose statistic is the largest row's and `theta_hat` that row (lowest
    index on ties)."""
    if state.stopped:
        raise StateError("detector already stopped")
    if state.kind in ("shiryaev", "sr"):
        new_log = shiryaev_log_update(state.log_stat, log_lrs[0], log_one_minus_rho)
        return replace(state, n=state.n + 1, log_stat=float(new_log))
    if window < 1:
        raise ValueError("window must be >= 1")
    buf = np.zeros((len(log_lrs), 2 * (window + 1))) if state.n == 0 else state.buffers.copy()
    stats = windowed_cusum(buf, np.arange(len(log_lrs)), log_lrs, state.n + 1)
    best = int(np.argmax(stats))
    return replace(state, n=state.n + 1, log_stat=float(stats[best]), buffers=buf,
                   theta_hat=best if state.kind == "glr" else None)


def shiryaev_step(state: DetectorState, lr: float, rho: float) -> DetectorState:
    """Advance the Shiryaev recursion by one likelihood ratio."""
    if rho >= 1.0 or rho < 0.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if lr < 0.0:
        raise ValueError(f"likelihood ratio must be non-negative, got {lr}")
    log_lr = float(np.log(lr)) if lr > 0.0 else NEG_INF
    return _advance(state, (log_lr,), float(np.log1p(-rho)))


def sr_step(state: DetectorState, lr: float) -> DetectorState:
    """Shiryaev-Roberts update: the Shiryaev recursion with rho = 0."""
    return shiryaev_step(state, lr, 0.0)


def cusum_step(state: DetectorState, log_lr: float, window: int) -> DetectorState:
    """Windowed CUSUM update: max over suffix sums of the last window+1 ratios."""
    return _advance(state, np.array([float(log_lr)]), window=window)


def glr_step(state: DetectorState, transition: tuple[int, int, int],
             kernel0: np.ndarray, theta_grid: tuple[np.ndarray, ...],
             window: int, eps_prob: float = EPS_PROB) -> DetectorState:
    """Windowed GLR update over a grid of candidate post-change kernels.

    The statistic is the max over suffixes and candidates of the summed
    log-likelihood ratios; `theta_hat` records the maximizing candidate
    (lowest index on ties).
    """
    if len(theta_grid) == 0:
        raise ValueError("theta_grid must be nonempty")
    log_lrs = np.array([log_likelihood_ratio(kernel0, kernel_theta, *transition, eps_prob)
                        for kernel_theta in theta_grid])
    return _advance(state, log_lrs, window=window)


def check_stop(state: DetectorState, threshold: float) -> DetectorState:
    """Record the first time n >= 1 at which the statistic strictly exceeds
    the threshold; idempotent once stopped.

    The threshold is linear-domain for shiryaev/sr and log-domain for
    cusum/glr.
    """
    if state.stopped or state.n == 0:
        return state
    if state.log_stat > threshold_domain(state.kind, threshold):
        return replace(state, stopped_at=state.n)
    return state


def geometric_prior(rho: float, n: int) -> np.ndarray:
    """phi(k) = rho * (1 - rho)^(k-1) for k = 1..n."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    k = np.arange(1, n + 1)
    return rho * (1.0 - rho) ** (k - 1)


def shiryaev_batch(prior: np.ndarray, log_lrs: np.ndarray) -> float:
    """Batch change statistic sum_k phi(k) * prod_{i=k..n} lr_i.

    Evaluated in log-sum-exp form. This is the reference form; the running
    recursion equals it up to the factor rho * (1-rho)^n when the prior is
    geometric, which tests exploit as an oracle.
    """
    prior = np.asarray(prior, dtype=float)
    log_lrs = np.asarray(log_lrs, dtype=float)
    n = len(log_lrs)
    if len(prior) < n:
        raise ValueError("prior must cover the horizon")
    if np.any(prior < 0) or prior[:n].sum() > 1.0 + 1e-12:
        raise ValueError("prior must be a (sub-)pmf")
    if n == 0:
        return 0.0
    # suffix[k] = sum of log_lrs[k:], k = 0..n-1
    suffix = np.cumsum(log_lrs[::-1])[::-1]
    with np.errstate(divide="ignore"):
        terms = np.log(prior[:n]) + suffix
    finite = terms[np.isfinite(terms)]
    if len(finite) == 0:
        return 0.0
    m = finite.max()
    return float(math.exp(m) * np.sum(np.exp(finite - m)))


def posterior_from_shiryaev(statistic: float, rho: float) -> float:
    """Posterior probability that the change has occurred, from the running
    Shiryaev statistic: p = rho * S / (1 + rho * S)."""
    if statistic < 0:
        raise ValueError("statistic must be non-negative")
    if math.isinf(statistic):
        return 1.0
    return rho * statistic / (1.0 + rho * statistic)


def posterior_from_log_shiryaev(log_stat: float, rho: float) -> float:
    """Overflow-safe posterior from log S_n."""
    if log_stat == NEG_INF:
        return 0.0
    z = math.log(rho) + log_stat
    return float(math.exp(z - np.logaddexp(0.0, z)))


class Detector:
    """Driver feeding (s, a, s') transitions into one configured statistic.

    Holds the pre-change kernel, a log-ratio table per post-change kernel,
    the running DetectorState, and the stopping threshold; `update` raises
    ValueError for a transition outside the table and StateError once
    stopped (callers stop feeding a stopped detector).
    """

    def __init__(self, config: DetectorConfig, kernel0: np.ndarray,
                 kernel1: np.ndarray | None = None):
        self.config = config
        self.kernel0 = np.asarray(kernel0, dtype=float)
        if config.kind == "glr":
            for idx, kernel_theta in enumerate(config.theta_grid):
                dist = float(np.max(np.abs(np.asarray(kernel_theta) - self.kernel0)))
                if dist < config.min_separation:
                    raise ValueError(
                        f"glr candidate {idx} is within {dist:.3e} of the "
                        f"pre-change kernel (min separation {config.min_separation})"
                    )
            kernels = config.theta_grid
        else:
            if kernel1 is None:
                raise ValueError(f"{config.kind} requires the post-change kernel")
            kernels = (kernel1,)
        # (candidates, S, A, S) per-transition log-likelihood ratios
        self._log_lr = np.stack([log_ratio_table(kernel, self.kernel0, config.eps_prob)
                                 for kernel in kernels])
        self._log1m_rho = float(np.log1p(-config.rho))
        self.state = new_detector_state(config.kind)

    def update(self, s: int, a: int, s_next: int) -> DetectorState:
        cfg = self.config
        _, n_states, n_actions, _ = self._log_lr.shape
        if not (0 <= s < n_states and 0 <= a < n_actions and 0 <= s_next < n_states):
            raise ValueError(f"transition ({s}, {a}, {s_next}) outside the "
                             f"{n_states}-state, {n_actions}-action table")
        self.state = _advance(self.state, self._log_lr[:, s, a, s_next],
                              self._log1m_rho, cfg.window)
        self.state = check_stop(self.state, cfg.threshold)
        return self.state

    @property
    def stopped(self) -> bool:
        return self.state.stopped

    @property
    def stopped_at(self) -> int | None:
        return self.state.stopped_at

"""Tests for the sequential change statistics and their algebra."""

import math

import numpy as np
import pytest

from nsmdp.detectors import (Detector, DetectorConfig, check_stop, cusum_buffer,
                             cusum_step, geometric_prior, glr_step,
                             log_likelihood_ratio, new_detector_state,
                             posterior_from_log_shiryaev,
                             shiryaev_batch, shiryaev_step, sr_step,
                             threshold_domain, windowed_cusum)
from nsmdp.errors import StateError

from util import bayes_posterior_oracle, random_kernel, suffix_max_oracle


def run_shiryaev(lrs, rho):
    state = new_detector_state("shiryaev" if rho > 0 else "sr")
    for lr in lrs:
        state = shiryaev_step(state, lr, rho)
    return state


class TestLogLikelihoodRatio:
    def test_equal_kernels_give_zero(self, rng):
        kernel = random_kernel(3, 2, rng)
        for s in range(3):
            for a in range(2):
                for s2 in range(3):
                    assert log_likelihood_ratio(kernel, kernel, s, a, s2) == 0.0

    def test_direct_ratio(self):
        k0 = np.array([[[0.4, 0.6]], [[0.5, 0.5]]])
        k1 = np.array([[[0.8, 0.2]], [[0.5, 0.5]]])
        assert log_likelihood_ratio(k0, k1, 0, 0, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_flooring_rule(self):
        k0 = np.array([[[0.5, 0.5]]])
        k1 = np.array([[[1e-30, 1.0 - 1e-30]]])
        val = log_likelihood_ratio(k0, k1, 0, 0, 0)
        assert val == pytest.approx(math.log(1e-12 / 0.5), abs=1e-9)

    def test_argument_errors(self):
        kernel = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            log_likelihood_ratio(kernel, kernel, 0, 3, 0)
        with pytest.raises(ValueError):
            log_likelihood_ratio(kernel, kernel, 5, 0, 0)


class TestShiryaevStep:
    def test_first_step_value(self):
        state = shiryaev_step(new_detector_state("shiryaev"), lr=1.0, rho=0.01)
        assert state.statistic == pytest.approx(1.0 / 0.99, abs=1e-12)
        assert state.n == 1

    def test_zero_ratio_resets_statistic(self):
        state = run_shiryaev([2.0, 3.0, 0.0], rho=0.05)
        assert state.statistic == 0.0

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            shiryaev_step(new_detector_state("shiryaev"), lr=1.0, rho=1.0)
        with pytest.raises(ValueError):
            shiryaev_step(new_detector_state("shiryaev"), lr=-0.5, rho=0.1)

    @pytest.mark.parametrize("lr, rho", [(math.nan, 0.1), (1.0, math.nan), (math.nan, 0.0)])
    def test_nan_input_rejected(self, lr, rho):
        # a NaN ratio used to read as lr = 0 and a NaN rho gave a NaN statistic
        with pytest.raises(ValueError):
            shiryaev_step(new_detector_state("shiryaev"), lr=lr, rho=rho)

    def test_stepping_stopped_state_raises(self):
        state = shiryaev_step(new_detector_state("shiryaev"), lr=100.0, rho=0.1)
        state = check_stop(state, 1.0)
        assert state.stopped
        with pytest.raises(StateError):
            shiryaev_step(state, lr=1.0, rho=0.1)

    def test_stopped_at_never_changes(self):
        state = shiryaev_step(new_detector_state("shiryaev"), lr=100.0, rho=0.1)
        state = check_stop(state, 1.0)
        first = state.stopped_at
        state = check_stop(state, 1.0)
        assert state.stopped_at == first


class TestShiryaevBatch:
    def test_single_step(self):
        assert shiryaev_batch([0.3], np.log([2.0])) == pytest.approx(0.6, abs=1e-12)

    def test_unit_ratios_geometric_sum(self):
        rho, n = 0.05, 12
        val = shiryaev_batch(geometric_prior(rho, n), np.zeros(n))
        assert val == pytest.approx(1.0 - (1.0 - rho) ** n, abs=1e-12)

    def test_scaling_identity_with_recursion(self, rng):
        # batch form is the oracle for the running recursion
        for _ in range(50):
            n = int(rng.integers(1, 31))
            rho = float(rng.uniform(0.005, 0.2))
            lrs = np.exp(rng.uniform(-1.5, 1.5, n))
            batch = shiryaev_batch(geometric_prior(rho, n), np.log(lrs))
            state = run_shiryaev(lrs, rho)
            log_expected = math.log(rho) + n * math.log1p(-rho) + state.log_stat
            assert math.log(batch) == pytest.approx(log_expected, abs=1e-9)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            shiryaev_batch([0.6, 0.7], np.zeros(2))


class TestShiryaevRoberts:
    def test_first_step(self):
        state = sr_step(new_detector_state("sr"), lr=2.0)
        assert state.statistic == pytest.approx(2.0, abs=1e-12)

    def test_unit_ratios_count_steps(self):
        state = new_detector_state("sr")
        for n in range(1, 8):
            state = sr_step(state, 1.0)
            assert state.statistic == pytest.approx(n, rel=1e-12)

    def test_equals_shiryaev_with_zero_rho(self, rng):
        lrs = np.exp(rng.uniform(-1, 1, 25))
        a = run_shiryaev(lrs, rho=0.0)
        state = new_detector_state("sr")
        for lr in lrs:
            state = sr_step(state, lr)
        assert state.log_stat == a.log_stat  # same code path, exactly


class TestCusum:
    def test_constant_positive_ratios(self):
        m, delta = 5, 0.3
        state = new_detector_state("cusum")
        for n in range(1, 12):
            state = cusum_step(state, delta, m)
            assert state.log_stat == pytest.approx(min(n, m + 1) * delta, abs=1e-12)

    def test_constant_negative_ratios(self):
        state = new_detector_state("cusum")
        for _ in range(6):
            state = cusum_step(state, -0.4, window=3)
        assert state.log_stat == pytest.approx(-0.4, abs=1e-12)

    def test_matches_suffix_oracle(self, rng):
        m = 5
        lrs = rng.normal(0, 1, 20)
        state = new_detector_state("cusum")
        for n, x in enumerate(lrs, start=1):
            state = cusum_step(state, x, m)
            assert state.log_stat == pytest.approx(
                suffix_max_oracle(lrs[:n], m), abs=1e-12)

    def test_window_change_mid_stream_rejected(self):
        state = cusum_step(new_detector_state("cusum"), 1.0, window=2)
        with pytest.raises(ValueError, match="window"):
            cusum_step(state, 1.0, window=10)

    def test_nan_ratio_rejected(self):
        state = cusum_step(new_detector_state("cusum"), 1.0, window=2)
        with pytest.raises(ValueError, match="NaN"):
            cusum_step(state, math.nan, window=2)
        with pytest.raises(ValueError, match="NaN"):
            cusum_step(new_detector_state("cusum"), math.nan, window=2)


def kernel_oracle(lrs, n, window):
    """`suffix_max_oracle` on the first n ratios of a list, passed only the
    window + 1 newest, the ones it reads."""
    return suffix_max_oracle(lrs[max(0, n - window - 1):n], window)


class TestWindowedCusumKernel:
    """The streaming block-minimum kernel against the suffix brute force,
    across block boundaries (every window + 1 ratios) and the first block."""

    @pytest.mark.parametrize("window", [1, 2, 3, 200])
    def test_boolean_mask_over_2d_rows(self, rng, window):
        n_steps = 4 * (window + 1) + 3
        lrs = rng.normal(0.0, 2.0, (2, 3, n_steps))
        buffer = cusum_buffer((2, 3), window)
        assert buffer.shape == (window + 3, 2, 3)      # step-major
        buffer[:] = rng.normal(size=buffer.shape)   # the kernel writes before it reads
        mask = np.array([[True, False, True], [True, True, False]])
        drop = (1, 0)     # leaves the mask midway, like a row that has switched
        for n in range(1, n_steps + 1):
            if n == n_steps // 2:
                mask[drop] = False
            untouched = buffer[:, ~mask].copy()
            stats = windowed_cusum(buffer, mask, lrs[mask, n - 1], n)
            assert buffer[:, ~mask].tobytes() == untouched.tobytes()
            for stat, row in zip(stats, lrs[mask].tolist()):
                assert stat == pytest.approx(kernel_oracle(row, n, window), abs=1e-12)

    @staticmethod
    def check_rows(rng, window, rows):
        """Four rows, of which `rows` select some: the selected follow the
        oracle, and the others' columns are never written."""
        n_steps = 4 * (window + 1) + 3
        lrs = rng.normal(0.5, 1.0, (4, n_steps))
        buffer = cusum_buffer(4, window)
        others = np.setdiff1d(np.arange(4), np.arange(4)[rows])
        for n in range(1, n_steps + 1):
            untouched = buffer[:, others].copy()
            stats = windowed_cusum(buffer, rows, lrs[rows, n - 1], n)
            assert buffer[:, others].tobytes() == untouched.tobytes()
            for stat, row in zip(stats, lrs[rows].tolist(), strict=True):
                assert stat == pytest.approx(kernel_oracle(row, n, window), abs=1e-12)

    @pytest.mark.parametrize("window", [1, 2, 3, 200])
    def test_index_array_rows(self, rng, window):
        self.check_rows(rng, window, np.array([3, 0, 2]))

    @pytest.mark.parametrize("window", [1, 2, 3, 200])
    def test_slice_rows(self, rng, window):
        """The engine's merged call: its rows are the buffer's first columns."""
        self.check_rows(rng, window, slice(0, 3))

    def test_long_drifting_run_keeps_its_accuracy(self, rng):
        """Prefix sums climb to about 2e4, but every value is kept relative to
        its block's start, so the error stays that of one window's sums."""
        window, n_steps = 200, 20_000
        lrs = rng.normal(1.0, 1.0, n_steps)
        buffer = cusum_buffer(1, window)
        rows, as_list = np.array([0]), lrs.tolist()
        for n in range(1, n_steps + 1):
            stat = windowed_cusum(buffer, rows, lrs[n - 1:n], n)[0]
            if n % 50 == 0 or n > n_steps - window:
                assert stat == pytest.approx(kernel_oracle(as_list, n, window), abs=1e-12)


class TestGlr:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.k0 = random_kernel(3, 2, rng)
        self.k1 = random_kernel(3, 2, rng)
        self.k2 = random_kernel(3, 2, rng)
        self.transitions = [(int(rng.integers(3)), int(rng.integers(2)),
                             int(rng.integers(3))) for _ in range(10)]

    def run_glr(self, grid, m=4):
        state = new_detector_state("glr")
        values = []
        for tr in self.transitions:
            state = glr_step(state, tr, self.k0, grid, m)
            values.append(state.log_stat)
        return state, values

    def test_singleton_grid_equals_cusum(self):
        _, glr_values = self.run_glr((self.k1,))
        state = new_detector_state("cusum")
        for tr, expected in zip(self.transitions, glr_values):
            lr = log_likelihood_ratio(self.k0, self.k1, *tr)
            state = cusum_step(state, lr, 4)
            assert state.log_stat == pytest.approx(expected, abs=1e-12)

    def test_grid_inclusion_monotonicity(self):
        _, single = self.run_glr((self.k1,))
        _, double = self.run_glr((self.k1, self.k2))
        for a, b in zip(single, double):
            assert b >= a - 1e-12

    def test_matches_candidate_suffix_oracle(self):
        grid = (self.k1, self.k2)
        m = 4
        state = new_detector_state("glr")
        for n, tr in enumerate(self.transitions, start=1):
            state = glr_step(state, tr, self.k0, grid, m)
            per_candidate = []
            for kernel in grid:
                lrs = [log_likelihood_ratio(self.k0, kernel, *t)
                       for t in self.transitions[:n]]
                per_candidate.append(suffix_max_oracle(lrs, m))
            assert state.log_stat == pytest.approx(max(per_candidate), abs=1e-12)
            assert state.theta_hat == int(np.argmax(per_candidate))

    @pytest.mark.parametrize("later", [1, 3])
    def test_candidate_count_change_mid_stream_rejected(self, later):
        state = glr_step(new_detector_state("glr"), self.transitions[0], self.k0,
                         (self.k1, self.k2), 4)
        grid = (self.k1, self.k2, self.k1)[:later]
        with pytest.raises(ValueError, match="row"):
            glr_step(state, self.transitions[1], self.k0, grid, 4)
        with pytest.raises(ValueError, match="window"):
            glr_step(state, self.transitions[1], self.k0, (self.k1, self.k2), 5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            glr_step(new_detector_state("glr"), (0, 0, 0), self.k0, (), 4)


class TestCheckStop:
    def test_sr_doubling_example(self):
        # SR_1 = 2, SR_2 = (1 + 2) * 2 = 6 > 5
        state = new_detector_state("sr")
        for n, lr in enumerate([2.0, 2.0, 2.0], start=1):
            if not state.stopped:
                state = sr_step(state, lr)
                state = check_stop(state, 5.0)
        assert state.stopped_at == 2

    def test_no_stop_below_threshold(self):
        state = run_shiryaev([1.0] * 10, rho=0.01)
        state = check_stop(state, 1e6)
        assert state.stopped_at is None

    def test_zero_threshold_stops_immediately(self):
        state = sr_step(new_detector_state("sr"), lr=0.5)
        state = check_stop(state, 0.0)
        assert state.stopped_at == 1

    def test_stopping_time_monotone_in_threshold(self, rng):
        lrs = np.exp(rng.normal(0.3, 0.8, 60))
        taus = []
        for threshold in (1.0, 10.0, 100.0, 1000.0):
            state = new_detector_state("sr")
            for lr in lrs:
                state = sr_step(state, lr)
                state = check_stop(state, threshold)
                if state.stopped:
                    break
            taus.append(state.stopped_at if state.stopped_at is not None else math.inf)
        assert taus == sorted(taus)


class TestPosterior:
    def test_boundary_values(self):
        # S = 0 and S = inf, in logs
        assert posterior_from_log_shiryaev(-math.inf, 0.01) == 0.0
        assert posterior_from_log_shiryaev(math.inf, 0.01) == 1.0
        assert posterior_from_log_shiryaev(1e6, 0.01) == 1.0

    def test_monotone_in_statistic(self):
        values = [posterior_from_log_shiryaev(s, 0.02)
                  for s in (-math.inf, -5.0, 0.0, math.log(10.0), math.log(1e4), 800.0)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        # p = rho * S / (1 + rho * S) at S = 10
        assert values[3] == pytest.approx(0.2 / 1.2, rel=1e-12)

    def test_matches_exhaustive_bayes_oracle(self, rng):
        # run the recursion along random trajectories and compare with the
        # brute-force hypothesis sum at every step
        rho = 0.03
        for _ in range(25):
            k0 = random_kernel(3, 2, rng)
            k1 = random_kernel(3, 2, rng)
            state = new_detector_state("shiryaev")
            log_lrs = []
            for _ in range(10):
                s, a, s2 = (int(rng.integers(3)), int(rng.integers(2)),
                            int(rng.integers(3)))
                llr = log_likelihood_ratio(k0, k1, s, a, s2)
                log_lrs.append(llr)
                state = shiryaev_step(state, math.exp(llr), rho)
                expected = bayes_posterior_oracle(log_lrs, rho)
                assert posterior_from_log_shiryaev(state.log_stat, rho) == \
                    pytest.approx(expected, abs=1e-9)


class TestDetectorDriver:
    def test_driver_matches_manual_stepping(self, rng):
        k0 = random_kernel(3, 2, rng)
        k1 = random_kernel(3, 2, rng)
        det = Detector(DetectorConfig(kind="shiryaev", threshold=1e9, rho=0.02), k0, k1)
        manual = new_detector_state("shiryaev")
        for _ in range(30):
            s, a, s2 = (int(rng.integers(3)), int(rng.integers(2)), int(rng.integers(3)))
            det.update(s, a, s2)
            lr = math.exp(log_likelihood_ratio(k0, k1, s, a, s2))
            manual = shiryaev_step(manual, lr, 0.02)
            assert det.state.log_stat == pytest.approx(manual.log_stat, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(kind="shiryaev", threshold=1.0, rho=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="sr", threshold=1.0, rho=0.3)
        with pytest.raises(ValueError):
            DetectorConfig(kind="glr", threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="bogus", threshold=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            DetectorConfig(kind="sr", threshold=-1.0)

    @pytest.mark.parametrize("kind", ["shiryaev", "sr", "cusum", "glr"])
    def test_nan_threshold_rejected(self, rng, kind):
        # under sr a NaN threshold used to stop at n = 1, under cusum never
        with pytest.raises(ValueError, match="NaN"):
            threshold_domain(kind, math.nan)
        if kind == "glr":      # GLR is glr_step, which stops through check_stop
            state = glr_step(new_detector_state(kind), (0, 0, 1), random_kernel(2, 1, rng),
                             (random_kernel(2, 1, rng),), 4)
            with pytest.raises(ValueError, match="NaN"):
                check_stop(state, math.nan)
        else:
            with pytest.raises(ValueError, match="NaN"):
                DetectorConfig(kind=kind, threshold=math.nan,
                               rho=0.1 if kind == "shiryaev" else 0.0)

    @pytest.mark.parametrize("kind", ["sr", "cusum", "glr"])
    def test_transition_outside_table_rejected(self, rng, kind):
        k0 = random_kernel(3, 2, rng)
        k1 = random_kernel(3, 2, rng)
        if kind == "glr":      # GLR is glr_step, which checks through log_likelihood_ratio
            def update(*transition):
                return glr_step(new_detector_state(kind), transition, k0, (k1,), 4)
        else:
            update = Detector(DetectorConfig(kind=kind, threshold=1e9, window=4), k0, k1).update
        for s, a, s2 in [(-1, 0, -2), (0, -1, 0), (0, 0, -1), (3, 0, 0), (0, 2, 0),
                         (0, 0, 3)]:
            with pytest.raises(ValueError):
                update(s, a, s2)
        # a rejected transition leaves the detector's state where it was
        assert update(2, 1, 2).n == 1

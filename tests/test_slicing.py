import math

import numpy as np
import pytest
from scipy import stats

from glmmselect.errors import SamplerError
from glmmselect.slicing import SliceStats, slice_update, slice_update_vec


def std_normal(x):
    return -0.5 * x * x


def assert_flat_histogram(x, n_bins=20):
    """Draws on [0, 100] are uniform: all bins by a chi-square test, the two edge bins by 4 sd."""
    counts = np.histogram(x, bins=n_bins, range=(0.0, 100.0))[0]
    assert stats.chisquare(counts).pvalue > 1e-4, counts
    p_edges = 2.0 / n_bins
    sd = math.sqrt(p_edges * (1.0 - p_edges) / x.size)
    assert abs((counts[0] + counts[-1]) / x.size - p_edges) < 4.0 * sd, counts


class TestScalarSlice:
    def test_normal_moments_from_stationarity(self):
        rng = np.random.default_rng(0)
        x = 0.0
        xs = np.empty(100_000)
        for i in range(xs.size):
            x = slice_update(std_normal, x, 1.0, rng)
            xs[i] = x
        assert abs(xs.mean()) < 0.02
        assert abs(xs.var() - 1.0) < 0.03

    def test_lower_bound_respected(self):
        rng = np.random.default_rng(1)
        x = 0.5
        for _ in range(2000):
            x = slice_update(std_normal, x, 1.0, rng, lower=0.0)
            assert x > 0.0

    def test_upper_and_lower(self):
        rng = np.random.default_rng(2)
        x = 0.2
        for _ in range(2000):
            x = slice_update(lambda t: 0.0, x, 2.0, rng, lower=0.0, upper=1.0)
            assert 0.0 < x < 1.0

    def test_symmetric_output_with_tiny_width(self):
        # with a degenerate width the update still explores symmetrically
        rng = np.random.default_rng(3)
        xs = []
        x = 0.0
        for _ in range(30_000):
            x = slice_update(std_normal, x, 1e-3, rng, max_stepouts=10_000)
            xs.append(x)
        xs = np.asarray(xs)
        assert abs(xs.mean()) < 0.05

    def test_infinite_start_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SamplerError):
            slice_update(lambda t: -math.inf, 0.0, 1.0, rng)

    def test_out_of_bounds_start_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SamplerError):
            slice_update(std_normal, -1.0, 1.0, rng, lower=0.0)

    def test_stepout_cap_falls_back(self):
        rng = np.random.default_rng(6)
        stats = SliceStats()
        # very wide target, tiny width: cap forces shrink-only fallback
        for _ in range(50):
            slice_update(lambda t: -0.5 * (t / 50.0) ** 2, 0.0, 0.01, rng, max_stepouts=3, stats=stats)
        assert stats.fallbacks > 0

    def test_stepout_cap_keeps_flat_target_invariant(self):
        # start 10,000 chains from the target, uniform on [0, 100], and take 10 updates each at
        # width 1 and a 5-step budget: an invariant update keeps them iid uniform, so each bin
        # count is binomial.  Separate per-side caps drained the edge bins to about 0.04 of the
        # mass each (0.05 expected), 6.7 sd of the edge pair here.
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 100.0, 10_000)
        for i in range(x.size):
            xi = x[i]
            for _ in range(10):
                xi = slice_update(lambda t: 0.0, xi, 1.0, rng, lower=0.0, upper=100.0, max_stepouts=5)
            x[i] = xi
        assert_flat_histogram(x)

    def test_skewed_target(self):
        # exponential(1) via slice; mean and variance both 1
        rng = np.random.default_rng(7)
        x = 1.0
        xs = np.empty(100_000)
        for i in range(xs.size):
            x = slice_update(lambda t: -t, x, 1.0, rng, lower=0.0)
            xs[i] = x
        assert abs(xs.mean() - 1.0) < 0.02
        assert abs(xs.var() - 1.0) < 0.05


class TestVectorSlice:
    def test_matches_normal_moments(self):
        rng = np.random.default_rng(8)
        x = np.zeros(500)
        keep = []
        for i in range(1200):
            x = slice_update_vec(lambda t: -0.5 * t * t, x, 1.0, rng)
            if i >= 200:
                keep.append(x.copy())
        arr = np.asarray(keep)
        assert abs(arr.mean()) < 0.01
        assert abs(arr.var() - 1.0) < 0.02

    def test_lanes_with_different_targets(self):
        # lane i targets N(mu_i, 1); each lane converges to its own mean
        rng = np.random.default_rng(9)
        mus = np.array([-3.0, 0.0, 4.0])
        x = mus.copy()
        keep = []
        for i in range(6000):
            x = slice_update_vec(lambda t: -0.5 * (t - mus) ** 2, x, 1.0, rng)
            if i >= 1000:
                keep.append(x.copy())
        arr = np.asarray(keep)
        np.testing.assert_allclose(arr.mean(axis=0), mus, atol=0.1)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        x = np.full(50, 0.5)
        for _ in range(300):
            x = slice_update_vec(lambda t: -t, x, 1.0, rng, lower=0.0)
            assert np.all(x > 0.0)

    def test_stepout_cap_keeps_flat_target_invariant(self):
        # as the scalar test, with 40,000 lanes: the edge pair's sd is 0.0015, the old deficit 0.02
        rng = np.random.default_rng(14)
        x = rng.uniform(0.0, 100.0, 40_000)
        for _ in range(10):
            x = slice_update_vec(np.zeros_like, x, 1.0, rng, lower=0.0, upper=100.0, max_stepouts=5)
        assert_flat_histogram(x)

    def test_empty_input(self):
        rng = np.random.default_rng(11)
        out = slice_update_vec(lambda t: t, np.zeros(0), 1.0, rng)
        assert out.size == 0

    def test_deterministic_given_seed(self):
        r1 = np.random.default_rng(12)
        r2 = np.random.default_rng(12)
        x1 = slice_update_vec(lambda t: -0.5 * t * t, np.zeros(10), 1.0, r1)
        x2 = slice_update_vec(lambda t: -0.5 * t * t, np.zeros(10), 1.0, r2)
        np.testing.assert_array_equal(x1, x2)

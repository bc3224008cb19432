import math

import numpy as np
import pytest
from scipy import stats

from glmmselect import slicing
from glmmselect.errors import SamplerError
from glmmselect.slicing import SliceStats, slice_update


def std_normal(x):
    return -0.5 * x * x


def flat_below(upper):
    """The log-density of a flat target whose support ends at ``upper``."""
    return lambda t: 0.0 if t < upper else -math.inf


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
            x = slice_update(flat_below(1.0), x, 2.0, rng, lower=0.0)
            assert 0.0 < x < 1.0

    def test_symmetric_output_with_tiny_width(self, monkeypatch):
        # with a width of 1/100 sd the update still explores symmetrically; the budget of 10 sd binds
        # whenever its random split leaves one side short, and a budget that favours one side moves the mean
        # by 0.1 or more
        monkeypatch.setattr(slicing, "_MAX_STEPOUTS", 1000)
        rng = np.random.default_rng(3)
        xs = []
        x = 0.0
        for _ in range(10_000):
            x = slice_update(std_normal, x, 1e-2, rng)
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

    def test_stepout_cap_falls_back(self, monkeypatch):
        monkeypatch.setattr(slicing, "_MAX_STEPOUTS", 3)
        rng = np.random.default_rng(6)
        stats = SliceStats()
        # very wide target, tiny width: cap forces shrink-only fallback
        for _ in range(50):
            slice_update(lambda t: -0.5 * (t / 50.0) ** 2, 0.0, 0.01, rng, stats=stats)
        assert stats.fallbacks > 0

    def test_stepout_cap_keeps_flat_target_invariant(self, monkeypatch):
        # start 10,000 chains from the target, uniform on [0, 100], and take 10 updates each at
        # width 1 and a 5-step budget: an invariant update keeps them iid uniform, so each bin
        # count is binomial.  Separate per-side caps drained the edge bins to about 0.04 of the
        # mass each (0.05 expected), 6.7 sd of the edge pair here.
        monkeypatch.setattr(slicing, "_MAX_STEPOUTS", 5)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 100.0, 10_000)
        target = flat_below(100.0)
        for i in range(x.size):
            xi = x[i]
            for _ in range(10):
                xi = slice_update(target, xi, 1.0, rng, lower=0.0)
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

    def test_level_is_relative_to_the_start(self):
        # at |f| = 1e16 floats are 2 apart, so f(x0) + log u rounds back to f(x0) for most u and an absolute
        # level leaves x0 outside its own slice; the relative level f(x) - f(x0) > log u keeps the update
        # working, and on this -x^2 (N(0, 1/2)) target its draws stay within a few sd of 0
        rng = np.random.default_rng(8)
        x = 0.0
        for _ in range(200):
            x = slice_update(lambda t: -1e16 - t * t, x, 1.0, rng)
            assert math.isfinite(x) and abs(x) < 4.0

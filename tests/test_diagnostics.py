import numpy as np
import pytest

from glmmselect.diagnostics import effective_sample_size, gelman_rubin, summarize_trace
from glmmselect.errors import ConfigurationError
from glmmselect.families import Family
from glmmselect.model import ModelDims
from glmmselect.sampler import ChainTrace, Trace, trace_layout


class TestGelmanRubin:
    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 10_000))
        assert gelman_rubin(x) < 1.01

    def test_separated_chains_large(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2000))
        x[1] += 10.0
        assert gelman_rubin(x) > 1.5

    def test_constant_chains_return_one(self):
        assert gelman_rubin(np.ones((3, 100))) == 1.0

    def test_split_detects_trend_within_single_chain(self):
        # a strongly trending single chain is caught by splitting
        x = np.linspace(0, 50, 4000)[None, :] + np.random.default_rng(2).normal(0, 0.1, (1, 4000))
        assert gelman_rubin(x) > 1.5

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError):
            gelman_rubin(np.zeros((2, 3)))


class TestEffectiveSampleSize:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(3)
        n = 20_000
        x = rng.standard_normal((1, n))
        ess = effective_sample_size(x)
        assert abs(ess - n) / n < 0.2

    def test_ar1_matches_theory(self):
        rng = np.random.default_rng(4)
        rho, n = 0.9, 60_000
        e = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0]
        for t in range(1, n):
            x[t] = rho * x[t - 1] + np.sqrt(1 - rho**2) * e[t]
        ess = effective_sample_size(x[None, :])
        want = n * (1 - rho) / (1 + rho)
        assert abs(ess - want) / want < 0.3

    def test_constant_series_equals_total(self):
        assert effective_sample_size(np.ones((2, 50))) == 100.0

    def test_multichain_pools_draws(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 5000))
        ess = effective_sample_size(x)
        assert abs(ess - 20_000) / 20_000 < 0.2

    def test_capped_inflation(self):
        # strongly antithetic series can exceed N but only up to the cap
        x = np.tile([1.0, -1.0], 5000)[None, :] + np.random.default_rng(6).normal(0, 0.05, (1, 10_000))
        ess = effective_sample_size(x)
        assert ess <= 1.5 * 10_000

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError):
            effective_sample_size(np.zeros((1, 4)))


def random_trace(n_chains, n_draws):
    """A trace of uniform draws in every column of a small poisson model."""
    rng = np.random.default_rng(7)
    dims = ModelDims(l=2, blocks=((2, 3),))
    layout = trace_layout(dims, Family("poisson"))
    n_columns = sum(len(names) for *_, names in layout)
    return Trace(chains=[ChainTrace(rng.random((n_draws, n_columns)), layout) for c in range(n_chains)], dims=dims)


class TestSummarizeTrace:
    @pytest.mark.parametrize("n_chains", [1, 2])
    def test_three_draws_give_nan_rhat(self, n_chains):
        # split R-hat needs 4 draws per chain, however many chains there are
        rows = summarize_trace(random_trace(n_chains, 3))
        assert rows and all(np.isnan(rhat) for *_, rhat, _ in rows)

    @pytest.mark.parametrize("n_chains", [1, 2])
    def test_four_draws_give_an_rhat(self, n_chains):
        rows = summarize_trace(random_trace(n_chains, 4))
        assert rows and all(np.isfinite(rhat) for *_, rhat, _ in rows)

"""The scipy-free special functions of glmmselect.families, against scipy.special."""

import math

import numpy as np
import pytest
from scipy.special import expit, gammaln

from glmmselect.errors import ConfigurationError
from glmmselect.families import _LGAMMA_TABLE, Family, lgamma_counts

SHIFTS = (1e-3, 0.01, 2.5, 1e3, 1e8)


class TestLgammaCounts:
    @pytest.mark.parametrize("r", SHIFTS)
    def test_matches_gammaln_up_to_a_million(self, r):
        y = np.arange(0.0, 1_000_001.0)
        np.testing.assert_allclose(lgamma_counts(y, r), gammaln(y + r), rtol=1e-12, atol=0.0)

    def test_default_shift_is_log_factorial(self):
        y = np.arange(0.0, 3 * _LGAMMA_TABLE)
        np.testing.assert_allclose(lgamma_counts(y), gammaln(y + 1.0), rtol=1e-12, atol=0.0)
        assert lgamma_counts(np.array([0.0, 1.0]))[0] == 0.0

    def test_batch_of_shifts(self):
        rng = np.random.default_rng(0)
        r = np.exp(rng.uniform(math.log(1e-3), math.log(1e8), (32, 1)))
        y = np.concatenate([np.arange(0.0, 600.0), [2e3, 1e6]])
        got = lgamma_counts(y, r)
        assert got.shape == (32, y.size)
        np.testing.assert_allclose(got, gammaln(y + r), rtol=1e-12, atol=0.0)

    def test_table_is_bounded(self):
        # a count far past the bound takes Stirling's series instead of a 1e12-entry table
        y = np.array([3.0, 1e12])
        np.testing.assert_allclose(lgamma_counts(y, 2.5), gammaln(y + 2.5), rtol=1e-12, atol=0.0)
        # on either side of the bound the two methods agree
        y = np.arange(_LGAMMA_TABLE - 3.0, _LGAMMA_TABLE + 3.0)
        np.testing.assert_allclose(lgamma_counts(y, 0.5), gammaln(y + 0.5), rtol=1e-14, atol=0.0)

    def test_empty_counts(self):
        assert lgamma_counts(np.zeros(0)).shape == (0,)
        assert lgamma_counts(np.zeros(0), np.ones((3, 1))).shape == (3, 0)

    @pytest.mark.parametrize("bad", [0.5, -1.0, -0.5, math.nan, math.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_rejects_non_counts(self, bad):
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            lgamma_counts(np.array([1.0, bad, 2.0]))


class TestCountLikelihoods:
    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial"])
    def test_non_integer_response_raises(self, kind):
        # the count densities are defined at counts only; the likelihood says so instead of extrapolating
        fam = Family(kind, dispersion=2.0 if kind == "negative_binomial" else None)
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            fam.log_likelihood(np.array([0.0, 1.5]), np.zeros(2))
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            fam.log_likelihood(np.array([0.0, -1.0]), np.zeros(2))

    def test_match_the_gammaln_formulas(self):
        rng = np.random.default_rng(1)
        y = rng.poisson(8.0, 600).astype(float)
        y[:3] = (0.0, 300.0, 5000.0)  # both sides of the table bound
        eta = rng.normal(2.0, 1.0, 600)
        got = Family("poisson").log_likelihood(y, eta)
        np.testing.assert_allclose(got, y * eta - np.exp(eta) - gammaln(y + 1.0), rtol=1e-12)
        r = np.array([[0.05], [2.5], [400.0]])
        mu = np.exp(eta)
        want = gammaln(y + r) - gammaln(r) - gammaln(y + 1.0) + r * np.log(r) + y * eta - (y + r) * np.log(r + mu)
        np.testing.assert_allclose(Family("negative_binomial", dispersion=r).log_likelihood(y, eta), want, rtol=1e-11)


class TestBernoulliMean:
    def test_matches_expit(self):
        eta = np.array([0.0, 20.0, -20.0, 750.0, -750.0, math.inf, -math.inf])
        got = Family("bernoulli").mean(eta)
        np.testing.assert_allclose(got, expit(eta), rtol=1e-15, atol=0.0)
        assert got[0] == 0.5
        assert list(got[3:]) == [1.0, 0.0, 1.0, 0.0]

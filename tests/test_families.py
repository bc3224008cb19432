"""The scipy-free special functions of glmmselect.families, against scipy.special."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, gammaln

from glmmselect.errors import ConfigurationError
from glmmselect.families import _LGAMMA_TABLE, ETA_CAP, Family, lgamma_counts
from glmmselect.model import Hyperparameters, ModelDims
from glmmselect.priors import sample_prior

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
        fam = Family(kind)
        scale = 2.0 if kind == "negative_binomial" else None
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            fam.log_likelihood(np.array([0.0, 1.5]), np.zeros(2), scale)
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            fam.log_likelihood(np.array([0.0, -1.0]), np.zeros(2), scale)

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
        np.testing.assert_allclose(Family("negative_binomial").log_likelihood(y, eta, r), want, rtol=1e-11)


class TestBernoulliMean:
    def test_matches_expit(self):
        eta = np.array([0.0, 20.0, -20.0, 750.0, -750.0, math.inf, -math.inf])
        got = Family("bernoulli").mean(eta)
        np.testing.assert_allclose(got, expit(eta), rtol=1e-15, atol=0.0)
        assert got[0] == 0.5
        assert list(got[3:]) == [1.0, 0.0, 1.0, 0.0]


KINDS = ("poisson", "negative_binomial", "bernoulli", "gaussian")
# scalar scales, and an (n, 1) column of them as a batch of prior draws holds
SCALES = (0.05, 2.5, 400.0, np.array([[0.05], [2.5], [400.0]]))


def responses(kind, rng, n):
    if kind == "gaussian":
        return rng.normal(1.0, 2.0, n)
    if kind == "bernoulli":
        return (rng.random(n) < 0.4).astype(float)
    return rng.poisson(6.0, n).astype(float)


class TestSingleFormula:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_likelihood_is_kernel_plus_eta_free_terms(self, kind, scale):
        rng = np.random.default_rng(3)
        fam = Family(kind)
        y = responses(kind, rng, 200)
        diffs = []
        for _ in range(4):
            eta = rng.normal(0.5, 2.0, 200)
            with np.errstate(over="ignore"):
                kernel = fam.log_kernel(y, eta, scale)
            diffs.append(fam.log_likelihood(y, eta, scale) - kernel)
        for other in diffs[1:]:
            np.testing.assert_allclose(other, diffs[0], rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("scale", SCALES)
    def test_nb_matches_scipy(self, scale):
        rng = np.random.default_rng(4)
        y = rng.poisson(6.0, 300).astype(float)
        y[:2] = (0.0, 700.0)
        eta = rng.normal(1.5, 1.5, 300)
        mu = np.exp(eta)
        want = stats.nbinom.logpmf(y, scale, scale / (scale + mu))
        got = Family("negative_binomial").log_likelihood(y, eta, scale)
        assert got.shape == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("scale", SCALES)
    def test_gaussian_matches_scipy(self, scale):
        rng = np.random.default_rng(5)
        y = rng.normal(0.0, 3.0, 300)
        eta = rng.normal(0.0, 3.0, 300)
        want = stats.norm.logpdf(y, eta, np.sqrt(scale))
        got = Family("gaussian").log_likelihood(y, eta, scale)
        assert got.shape == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["negative_binomial", "gaussian"])
    def test_missing_or_bad_scale_raises(self, kind):
        fam = Family(kind)
        y, eta = np.ones(3), np.zeros(3)
        for bad in (None, 0.0, -1.0, math.nan, np.array([[1.0], [0.0]])):
            with pytest.raises(ConfigurationError, match="scale"):
                fam.log_likelihood(y, eta, bad)
            with pytest.raises(ConfigurationError, match="scale"):
                fam.sample(np.random.default_rng(0), eta, bad)

    @pytest.mark.parametrize(
        "kind, scale",
        [("poisson", None), ("bernoulli", None), ("gaussian", 1.7), ("negative_binomial", 0.5),
         ("negative_binomial", 50.0)],
    )
    def test_kernel_derivatives_match_central_differences(self, kind, scale):
        # A' against central differences of kernel_a, and A'' against those of A', over eta in [-30, 30];
        # each difference may be off by its rounding, about eps max|f| / step, besides a relative 1e-6
        fam = Family(kind)
        eta = np.linspace(-30.0, 30.0, 241)
        y = responses(kind, np.random.default_rng(7), eta.size)
        step = 1e-5

        def a(e):
            return fam.kernel_a(y, e, scale)

        def a_prime(e):
            return fam.kernel_a_derivatives(y, e, scale)[0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a1, a2 = fam.kernel_a_derivatives(y, eta, scale)
            for f, d in ((a, a1), (a_prime, a2)):
                up, down = f(eta + step), f(eta - step)
                rounding = 10.0 * np.finfo(float).eps * np.maximum(np.abs(up), np.abs(down)) / step
                error = np.abs((up - down) / (2.0 * step) - d)
                np.testing.assert_array_less(error, 1e-6 * np.abs(d) + rounding + 1e-300)
        assert a1.shape == a2.shape == eta.shape
        assert np.all(a2 >= 0.0)

    def test_scale_of_state_batch_and_trace_draw(self):
        dims = ModelDims(l=2, blocks=((1, 3),))
        rng = np.random.default_rng(6)
        state = sample_prior(Hyperparameters(), dims, rng, family_kind="negative_binomial")
        batch = sample_prior(Hyperparameters(), dims, rng, family_kind="gaussian", n=4)
        fam_nb, fam_g = Family("negative_binomial"), Family("gaussian")
        assert fam_nb.scale_of(state) == state.dispersion
        assert fam_g.scale_of(batch).shape == (4, 1)
        trace_draws = SimpleNamespace(sigma2=np.array([0.5, 1.5, 2.5]))
        assert fam_g.scale_of(trace_draws, 1) == 1.5
        assert Family("poisson").scale_of(state) is None
        assert Family("bernoulli").scale_of(trace_draws, 1) is None


class TestSample:
    def test_matches_numpy_draws(self):
        eta = np.linspace(-2.0, 3.0, 50)
        mu = np.exp(eta)
        for scale in (0.3, 4.0):
            got = Family("negative_binomial").sample(np.random.default_rng(7), eta, scale)
            want = np.random.default_rng(7).negative_binomial(scale, scale / (scale + mu)).astype(float)
            np.testing.assert_array_equal(got, want)
            got = Family("gaussian").sample(np.random.default_rng(7), eta, scale)
            np.testing.assert_array_equal(got, np.random.default_rng(7).normal(eta, np.sqrt(scale)))
        got = Family("poisson").sample(np.random.default_rng(7), eta)
        np.testing.assert_array_equal(got, np.random.default_rng(7).poisson(mu).astype(float))
        got = Family("bernoulli").sample(np.random.default_rng(7), eta)
        np.testing.assert_array_equal(got, (np.random.default_rng(7).random(50) < 1.0 / (1.0 + np.exp(-eta))).astype(float))

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial"])
    def test_log_link_draws_at_capped_eta(self, kind):
        scale = 2.0 if kind == "negative_binomial" else None
        fam = Family(kind)
        high = fam.sample(np.random.default_rng(8), np.array([0.5, 80.0, 1e300]), scale)
        capped = fam.sample(np.random.default_rng(8), np.array([0.5, ETA_CAP, ETA_CAP]), scale)
        np.testing.assert_array_equal(high, capped)

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

    def test_table_is_bounded(self):
        # a count far past the bound takes Stirling's series instead of a 1e12-entry table
        y = np.array([3.0, 1e12])
        np.testing.assert_allclose(lgamma_counts(y, 2.5), gammaln(y + 2.5), rtol=1e-12, atol=0.0)
        # on either side of the bound the two methods agree
        y = np.arange(_LGAMMA_TABLE - 3.0, _LGAMMA_TABLE + 3.0)
        np.testing.assert_allclose(lgamma_counts(y, 0.5), gammaln(y + 0.5), rtol=1e-14, atol=0.0)

    def test_empty_counts(self):
        assert lgamma_counts(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [0.5, -1.0, -0.5, math.nan, math.inf, 2.0**63, 1e19])
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

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial"])
    def test_response_check_and_likelihood_take_the_same_counts(self, kind):
        # one count rule: the responses that load are those with a likelihood, up to the largest float below 2**63
        fam = Family(kind)
        scale = 2.0 if kind == "negative_binomial" else None
        counts = (0.0, 7.0, 2.0**53 + 2.0, 2.0**62, 2.0**63 - 1024.0)
        for value in (-1.0, 0.5, 2.0**63, 1e19, 1e300) + counts:
            y = np.array([0.0, 3.0, value])
            if value in counts:
                fam.validate_response(y)
                assert np.all(np.isfinite(fam.log_likelihood(y, np.zeros(3), scale))), value
                continue
            with pytest.raises(ConfigurationError, match=f"family '{kind}' requires nonnegative integer responses"):
                fam.validate_response(y)
            with pytest.raises(ConfigurationError, match="log-gamma of counts needs nonnegative integer y"):
                fam.log_likelihood(y, np.zeros(3), scale)

    def test_match_the_gammaln_formulas(self):
        rng = np.random.default_rng(1)
        y = rng.poisson(8.0, 600).astype(float)
        y[:3] = (0.0, 300.0, 5000.0)  # both sides of the table bound
        eta = rng.normal(2.0, 1.0, 600)
        got = Family("poisson").log_likelihood(y, eta)
        np.testing.assert_allclose(got, y * eta - np.exp(eta) - gammaln(y + 1.0), rtol=1e-12)
        mu = np.exp(eta)
        for r in (0.05, 2.5, 400.0):
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
SCALES = (0.05, 2.5, 400.0)
# a batch of prior draws holds an (n, 1) column of scales, one per row of (n, n_obs) predictors
COLUMN = np.array(SCALES)[:, None]


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_takes_a_column_of_scales(self, kind):
        rng = np.random.default_rng(6)
        y = responses(kind, rng, 50)
        eta = rng.normal(0.5, 2.0, (len(SCALES), 50))
        fam = Family(kind)
        got = fam.kernel_a(y, eta, COLUMN)
        for row, scale in enumerate(SCALES):
            np.testing.assert_array_equal(got[row], fam.kernel_a(y, eta[row], scale))

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

    @pytest.mark.parametrize("scale", SCALES + (COLUMN,))
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

    def test_scale_of_state_and_trace_draw(self):
        dims = ModelDims(l=2, blocks=((1, 3),))
        rng = np.random.default_rng(6)
        fam_nb, fam_g = Family("negative_binomial"), Family("gaussian")
        state = sample_prior(Hyperparameters(), dims, rng, fam_nb)
        assert fam_nb.scale_of(state) == state.dispersion
        trace_draws = SimpleNamespace(sigma2=np.array([0.5, 1.5, 2.5]))
        assert fam_g.scale_of(trace_draws, 1) == 1.5
        assert Family("poisson").scale_of(state) is None
        assert Family("bernoulli").scale_of(trace_draws, 1) is None


class TestSample:
    def test_matches_numpy_draws(self):
        eta = np.linspace(-2.0, 3.0, 50)
        mu = np.exp(eta)
        for scale in (0.3, 0.5, 4.0, 50.0):
            got = Family("negative_binomial").sample(np.random.default_rng(7), eta, scale)
            want_rng = np.random.default_rng(7)
            want = want_rng.poisson(want_rng.gamma(scale, mu / scale)).astype(float)
            np.testing.assert_array_equal(got, want)
            got = Family("gaussian").sample(np.random.default_rng(7), eta, scale)
            np.testing.assert_array_equal(got, np.random.default_rng(7).normal(eta, np.sqrt(scale)))
        got = Family("poisson").sample(np.random.default_rng(7), eta)
        np.testing.assert_array_equal(got, np.random.default_rng(7).poisson(mu).astype(float))
        got = Family("bernoulli").sample(np.random.default_rng(7), eta)
        np.testing.assert_array_equal(got, (np.random.default_rng(7).random(50) < 1.0 / (1.0 + np.exp(-eta))).astype(float))

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial", "bernoulli", "gaussian"])
    @pytest.mark.parametrize("eta", [np.array(0.3), np.array([0.3, -1.0, 2.0])])
    def test_draws_are_float_arrays_shaped_like_eta(self, kind, eta):
        fam = Family(kind)
        scale = 2.0 if fam.scale else None
        y = fam.sample(np.random.default_rng(5), eta, scale)
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == eta.shape
        # a 0-d eta draws what the first lane of a 1-element eta draws
        one = fam.sample(np.random.default_rng(5), eta.reshape(-1)[:1], scale)
        assert y.reshape(-1)[0] == one[0]

    @pytest.mark.parametrize("dispersion", [1e-100, 0.3, 4.0, 1e20])
    def test_negative_binomial_draws_follow_its_law(self, dispersion):
        # mean mu, variance mu + mu^2 / r and P(y = 0) = (r / (r + mu))^r, each within 5 standard errors
        mu, n = 3.0, 20_000
        y = Family("negative_binomial").sample(np.random.default_rng(12), np.full(n, math.log(mu)), dispersion)
        var = mu + mu * mu / dispersion
        assert abs(y.mean() - mu) < 5.0 * math.sqrt(var / n)
        p0 = math.exp(-dispersion * math.log1p(mu / dispersion))
        assert abs(np.mean(y == 0.0) - p0) <= 5.0 * math.sqrt(p0 * (1.0 - p0) / n)
        if dispersion > 1e-3:  # at r = 1e-100 all but about 2e-98 of the draws are 0, so no sample shows the variance
            m4 = np.mean((y - y.mean()) ** 4)
            assert abs(y.var() - var) < 5.0 * math.sqrt((m4 - var * var) / n)

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial"])
    def test_log_link_draws_at_capped_eta(self, kind):
        scale = 2.0 if kind == "negative_binomial" else None
        fam = Family(kind)
        high = fam.sample(np.random.default_rng(8), np.array([0.5, 80.0, 1e300]), scale)
        capped = fam.sample(np.random.default_rng(8), np.array([0.5, ETA_CAP, ETA_CAP]), scale)
        np.testing.assert_array_equal(high, capped)

    @pytest.mark.parametrize("dispersion", [1e-310, 5e-324])
    @pytest.mark.parametrize("eta", [0.0, ETA_CAP])
    def test_negative_binomial_draws_at_subnormal_dispersion(self, dispersion, eta):
        # mu / r overflows here; the Gamma-mixed rate must not, and stays under the mean cap
        fam = Family("negative_binomial")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(50):
                y = fam.sample(np.random.default_rng(seed), np.full(20, eta), dispersion)
                assert np.all(np.isfinite(y)) and np.all(y >= 0.0)
                assert np.all(y < 2.0 * math.exp(ETA_CAP))

    def test_negative_binomial_rate_where_mu_over_r_overflows(self):
        # the Poisson rate is g mu / r for the Gamma(r, 1) draw g; a stub rng hands back g and the rate
        fam = Family("negative_binomial")
        for g, want in ((0.0, 0.0), (1e-300, 1e10), (1.0, math.exp(ETA_CAP))):
            rng = SimpleNamespace(standard_gamma=lambda shape, size: np.full(size, g), poisson=lambda rate: rate)
            rate = fam.sample(rng, np.zeros(2), 1e-310)
            np.testing.assert_allclose(rate, want, rtol=1e-12)

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats

from glmmselect.errors import ConfigurationError
from glmmselect.families import family_scale
from glmmselect.model import MODES, Hyperparameters, ModelDims
from glmmselect.priors import (
    free_r_mask,
    halfnormal_logpdf,
    invgamma_logpdf,
    log_prior_beta,
    log_prior_gamma_vec,
    log_prior_lambda,
    log_prior_xi,
    sample_halfnormal,
    sample_invgamma,
    sample_prior,
)

LOG_2PI = math.log(2 * math.pi)
KINDS = ("poisson", "negative_binomial", "gaussian", "bernoulli")


class TestBetaPrior:
    def test_reference_value(self):
        # beta=0, theta=1, phi=sqrt(2): N term -log(2pi)/2, exp term -1, gamma term -sqrt(2)
        got = log_prior_beta(0.0, 1.0, math.sqrt(2.0), sigma2=1.0, g_shrink=1.0)
        want = -0.5 * LOG_2PI - 1.0 - math.sqrt(2.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-3.33315, abs=5e-6)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            b, th, ph = rng.uniform(0.1, 3.0, 3)
            assert log_prior_beta(b, th, ph) == pytest.approx(log_prior_beta(-b, th, ph))

    def test_beta_stage_variance(self):
        rng = np.random.default_rng(1)
        theta, g, s2 = 2.0, 4.0, 1.5
        draws = rng.normal(0, math.sqrt(s2 / (g * theta)), 200_000)
        assert np.var(draws) == pytest.approx(s2 / (g * theta), rel=0.02)

    def test_doubling_g_halves_variance(self):
        # the normal stage log-density shifts by the variance ratio
        b, th, ph = 0.7, 1.3, 0.9
        lp1 = log_prior_beta(b, th, ph, g_shrink=1.0)
        lp2 = log_prior_beta(b, th, ph, g_shrink=2.0)
        var1, var2 = 1.0 / (1.0 * th), 1.0 / (2.0 * th)
        want = (-0.5 * math.log(var2) - b * b / (2 * var2)) - (
            -0.5 * math.log(var1) - b * b / (2 * var1)
        )
        assert lp2 - lp1 == pytest.approx(want, abs=1e-12)

    def test_normal_stage_integrates_to_one(self):
        # integrating the joint over beta leaves exactly the theta/phi stages
        th, ph = 1.7, 1.1
        val, _ = integrate.quad(lambda b: math.exp(log_prior_beta(b, th, ph)), -60, 60)
        stage_const = math.exp(math.log(ph**2 / 2) - th * ph**2 / 2 - ph)
        assert val == pytest.approx(stage_const, rel=1e-6)

    def test_rejects_nonpositive_latents(self):
        with pytest.raises(ConfigurationError):
            log_prior_beta(0.0, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            log_prior_beta(0.0, 1.0, 0.0)


class TestLambdaPrior:
    def test_halfnormal_at_zero(self):
        # N+(0, 1) at 0 is 2*phi(0)
        got = halfnormal_logpdf(0.0, 1.0)
        assert got == pytest.approx(math.log(2.0) - 0.5 * LOG_2PI, abs=1e-12)
        assert got == pytest.approx(-0.22579, abs=5e-6)

    def test_invgamma_reference(self):
        # IG(1/2, 1/2) density at 1
        got = invgamma_logpdf(1.0, 0.5, 0.5)
        want = 0.5 * math.log(0.5) - math.lgamma(0.5) - 0.5
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-1.41894, abs=5e-6)

    def test_matches_scipy(self):
        xs = np.linspace(0.05, 5.0, 40)
        np.testing.assert_allclose(
            invgamma_logpdf(xs, 2.0, 1.5), stats.invgamma.logpdf(xs, 2.0, scale=1.5), atol=1e-10
        )
        np.testing.assert_allclose(
            halfnormal_logpdf(xs, 2.0),
            stats.halfnorm.logpdf(xs, scale=math.sqrt(2.0)),
            atol=1e-10,
        )

    def test_slab_scale_property(self):
        # doubling h doubles the slab's quantiles: densities match under x -> 2x
        x = 0.8
        lp1 = halfnormal_logpdf(x, 1.0)
        lp2 = halfnormal_logpdf(2 * x, 4.0)
        assert lp2 == pytest.approx(lp1 - math.log(2.0), abs=1e-12)

    def test_indicator_branches(self):
        on = log_prior_lambda(0.4, 1, 1.0, h=1.0, v=1.0, nu=1.0, prior_inclusion=0.3)
        off = log_prior_lambda(0.4, 0, 1.0, h=1.0, v=1.0, nu=1.0, prior_inclusion=0.3)
        assert on - off == pytest.approx(math.log(0.3) - math.log(0.7), abs=1e-12)

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigurationError):
            log_prior_lambda(-0.1, 1, 1.0, 1.0, 1.0, 1.0)

    def test_halfnormal_integrates_to_one(self):
        val, _ = integrate.quad(lambda x: math.exp(halfnormal_logpdf(x, 2.3)), 0, 50)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_invgamma_integrates_to_one(self):
        val, _ = integrate.quad(lambda x: math.exp(invgamma_logpdf(x, 0.5, 0.5)), 0, np.inf)
        assert val == pytest.approx(1.0, rel=1e-6)


class TestGammaVecPrior:
    def test_free_mask(self):
        mask = free_r_mask(3, np.array([1, 0, 1]))
        # packed order (2,1), (3,1), (3,2)
        assert list(mask) == [False, True, False]

    def test_all_free_standard_normal_at_zero(self):
        q = 4
        d = q * (q - 1) // 2
        got = log_prior_gamma_vec(np.zeros(d), np.ones(q))
        assert got == pytest.approx(-(d / 2) * LOG_2PI, abs=1e-12)

    def test_q2_excluded_has_no_free_coordinates(self):
        # the single coordinate is constrained; only the pseudo-prior remains
        got = log_prior_gamma_vec(np.array([0.0]), np.array([1, 0]))
        assert got == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_free_part_invariant_to_constrained_values(self):
        rng = np.random.default_rng(2)
        inc = np.array([1, 0, 1])
        r1 = rng.standard_normal(3)
        r2 = r1.copy()
        # only free coordinate is (3,1) at index 1; with Sigma=I the density is
        # separable, so perturbing a constrained coordinate moves only its own term
        r2[0] += 0.7
        diff = log_prior_gamma_vec(r2, inc) - log_prior_gamma_vec(r1, inc)
        want = -0.5 * (r2[0] ** 2 - r1[0] ** 2)
        assert diff == pytest.approx(want, abs=1e-12)

    def test_non_pd_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            log_prior_gamma_vec(np.zeros(1), np.ones(2), mu=np.zeros(1), sigma=np.array([[-1.0]]))


class TestXiPrior:
    def test_reference_value(self):
        got = log_prior_xi(0.0, 1.0, 1.0)
        want = -0.5 * LOG_2PI + math.log(0.5) - 0.5 - 1.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_exponential_mean(self):
        rng = np.random.default_rng(3)
        m = 1.7
        draws = rng.exponential(2.0 / m**2, 300_000)
        assert draws.mean() == pytest.approx(2.0 / m**2, rel=0.02)

    def test_sign_symmetry(self):
        assert log_prior_xi(1.3, 0.8, 1.1) == pytest.approx(log_prior_xi(-1.3, 0.8, 1.1))


class TestSamplers:
    def test_invgamma_sampler_mean(self):
        rng = np.random.default_rng(4)
        a, b = 3.0, 2.0
        draws = sample_invgamma(rng, a, b, size=200_000)
        want = b / (a - 1)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3 * se

    def test_halfnormal_gof(self):
        rng = np.random.default_rng(5)
        draws = sample_halfnormal(rng, 2.0, size=100_000)
        stat = stats.kstest(draws, lambda x: stats.halfnorm.cdf(x, scale=math.sqrt(2.0)))
        assert stat.pvalue > 0.05

    def test_prior_draw_deterministic(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=3, blocks=((2, 5),))
        s1 = sample_prior(hyper, dims, np.random.default_rng(42))
        s2 = sample_prior(hyper, dims, np.random.default_rng(42))
        np.testing.assert_array_equal(s1.beta, s2.beta)
        np.testing.assert_array_equal(s1.blocks[0].xi, s2.blocks[0].xi)

    def test_indicator_prior_mean(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=1, blocks=())
        rng = np.random.default_rng(6)
        draws = np.array([sample_prior(hyper, dims, rng).J[0] for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) < 0.015

    def test_slab_draws_positive(self):
        hyper = Hyperparameters(v=1.0, nu=1.0)
        dims = ModelDims(l=1, blocks=((3, 4),))
        rng = np.random.default_rng(7)
        for _ in range(200)  :
            st = sample_prior(hyper, dims, rng)
            assert np.all(st.blocks[0].lam > 0)
            assert np.all(st.blocks[0].tau2 > 0)
            assert np.all(st.blocks[0].kappa > 0)

    def test_nb_dispersion_draws_positive(self):
        # Gamma(0.01, rate 0.01) underflows to exactly 0 in about 0.06% of raw draws
        draw = family_scale("negative_binomial").draw_prior
        rng = np.random.default_rng(0)
        assert all(draw(rng) > 0 for _ in range(20_000))

    def test_no_selection_mode_fixes_indicators(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=4, blocks=((3, 4),))
        rng = np.random.default_rng(8)
        for _ in range(50):
            st = sample_prior(hyper, dims, rng, mode="no-selection")
            assert np.all(st.J == 1)
            assert np.all(st.blocks[0].include == 1)

    def test_unbatched_prior_draw_unchanged(self):
        # sha256 of unbatched draws made before the batch axis was added to sample_prior
        digest = hashlib.sha256()
        dims = ModelDims(l=3, blocks=((3, 5), (1, 4)))
        for kind in KINDS:
            for mode in MODES:
                s = sample_prior(Hyperparameters(), dims, np.random.default_rng(123), family_kind=kind, mode=mode)
                for a in (s.beta, s.J, s.theta, s.phi):
                    digest.update(a.tobytes())
                for b in s.blocks:
                    for a in (b.lam, b.include, b.tau2, b.r, b.xi, b.kappa, b.m):
                        digest.update(a.tobytes())
                digest.update(repr((s.dispersion, s.sigma2)).encode())
        assert digest.hexdigest() == "81a3a55d8253ae0ced57853e17671370a90093a9b15c8cbc0e33209f248a08b6"

    def test_batch_draw_shapes(self):
        dims = ModelDims(l=3, blocks=((3, 5),))
        for kind in KINDS:
            batch = sample_prior(Hyperparameters(), dims, np.random.default_rng(39), family_kind=kind, n=4)
            assert batch.beta.shape == (4, 3) and batch.blocks[0].xi.shape == (4, 5, 3)
            assert batch.blocks[0].r.shape == (4, 3)
            scale = {"negative_binomial": batch.dispersion, "gaussian": batch.sigma2}.get(kind)
            assert scale is None or scale.shape == (4, 1)
            for i in range(4):
                one = batch.take(i)
                one.check_dims(dims)
                assert isinstance(one.sigma2, float)
                assert one.dispersion is None or isinstance(one.dispersion, float)

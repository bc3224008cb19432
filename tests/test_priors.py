import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, stats

from glmmselect import priors
from glmmselect.errors import ConfigurationError, SamplerError
from glmmselect.families import Family
from glmmselect.model import MODES, Hyperparameters, ModelDims, fix_mode
from glmmselect.priors import (
    draw_correlations,
    draw_latent,
    draw_scale,
    draw_shrinkage,
    draw_slab,
    halfnormal_logpdf,
    invgamma_logpdf,
    log_prior_state,
    sample_gig,
    sample_invgamma,
    sample_modified_halfnormal,
    sample_prior,
)

LOG_2PI = math.log(2 * math.pi)
KINDS = ("poisson", "negative_binomial", "gaussian", "bernoulli")
POISSON = Family("poisson")


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

    def test_halfnormal_integrates_to_one(self):
        val, _ = integrate.quad(lambda x: math.exp(halfnormal_logpdf(x, 2.3)), 0, 50)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_invgamma_integrates_to_one(self):
        val, _ = integrate.quad(lambda x: math.exp(invgamma_logpdf(x, 0.5, 0.5)), 0, np.inf)
        assert val == pytest.approx(1.0, rel=1e-6)


DIMS = ModelDims(l=3, blocks=((3, 5), (1, 4)))


def random_state(kind, mode, seed):
    """Random hyperparameters and a prior draw of a two-block model under them, with what ``mode`` fixes set."""
    rng = np.random.default_rng(seed)
    h, v, nu, g = rng.uniform(0.5, 2.0, 4)
    hyper = Hyperparameters(h=h, v=v, nu=nu, g_shrink=g, prior_inclusion=rng.uniform(0.2, 0.8))
    return hyper, fix_mode(sample_prior(hyper, DIMS, rng, Family(kind)), mode)


def scipy_log_prior(hyper, state, kind):
    """The joint log prior of a state from scipy.stats log-densities and the indicator masses."""
    pi = hyper.prior_inclusion

    def mass(indicators):
        return np.sum(np.where(indicators == 1, math.log(pi), math.log(1.0 - pi)))

    total = mass(state.J)
    total += np.sum(stats.norm.logpdf(state.beta, scale=np.sqrt(state.sigma2 / (hyper.g_shrink * state.theta))))
    total += np.sum(stats.expon.logpdf(state.theta, scale=2.0 / state.phi**2))
    total += np.sum(stats.gamma.logpdf(state.phi, 1.0))
    for bs in state.blocks:
        total += mass(bs.include)
        total += np.sum(stats.halfnorm.logpdf(bs.lam, scale=hyper.h * np.sqrt(bs.tau2)))
        total += np.sum(stats.invgamma.logpdf(bs.tau2, hyper.nu / 2.0, scale=hyper.v / 2.0))
        total += np.sum(stats.norm.logpdf(bs.r))
        total += np.sum(stats.norm.logpdf(bs.xi, scale=np.sqrt(bs.kappa)))
        total += np.sum(stats.expon.logpdf(bs.kappa, scale=2.0 / bs.m**2))
        total += np.sum(stats.gamma.logpdf(bs.m, 1.0))
    if kind == "negative_binomial":  # Gamma(0.01, rate 0.01)
        total += stats.gamma.logpdf(state.dispersion, 0.01, scale=100.0)
    if kind == "gaussian":  # IG(0.01, 0.01)
        total += stats.invgamma.logpdf(state.sigma2, 0.01, scale=0.01)
    return total


class TestLogPriorState:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_scipy(self, kind, mode):
        for seed in range(20):
            hyper, state = random_state(kind, mode, seed)
            want = scipy_log_prior(hyper, state, kind)
            assert log_prior_state(hyper, state, Family(kind)) == pytest.approx(want, rel=1e-10, abs=1e-8), seed

    def test_beta_sign_symmetry(self):
        hyper, state = random_state("poisson", "ssvs-full", 0)
        before = log_prior_state(hyper, state, POISSON)
        state.beta[1] = -state.beta[1]
        assert log_prior_state(hyper, state, POISSON) == before

    def test_doubling_g_halves_the_beta_variance(self):
        # only the normal stage of beta moves, by the ratio of its variances
        hyper, state = random_state("poisson", "ssvs-full", 1)
        doubled = replace(hyper, g_shrink=2.0 * hyper.g_shrink)
        var1 = state.sigma2 / (hyper.g_shrink * state.theta)
        var2 = var1 / 2.0
        b2 = state.beta**2
        want = np.sum((-0.5 * np.log(var2) - b2 / (2 * var2)) - (-0.5 * np.log(var1) - b2 / (2 * var1)))
        assert log_prior_state(doubled, state, POISSON) - log_prior_state(hyper, state, POISSON) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("which", ["fixed", "random"])
    def test_indicator_branches_differ_by_prior_odds(self, which):
        hyper, state = random_state("poisson", "ssvs-full", 2)
        indicators = state.J if which == "fixed" else state.blocks[0].include
        values = []
        for on in (1, 0):
            indicators[1] = on
            values.append(log_prior_state(hyper, state, POISSON))
        pi = hyper.prior_inclusion
        assert values[0] - values[1] == pytest.approx(math.log(pi) - math.log(1.0 - pi), abs=1e-12)

    def test_q2_excluded_correlation_keeps_its_density(self):
        # the single coordinate is constrained; its pseudo-prior is the same
        # N(0, 1), so the joint prior does not see which effects are included
        hyper = Hyperparameters()
        state = sample_prior(hyper, ModelDims(l=1, blocks=((2, 3),)), np.random.default_rng(0), POISSON)
        state.blocks[0].r[:] = 0.8
        values = []
        for include in ([1, 1], [1, 0]):
            state.blocks[0].include[:] = include
            values.append(log_prior_state(hyper, state, POISSON))
        # prior_inclusion 0.5 gives both indicator values the same mass
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_correlations_are_separable(self):
        # perturbing one coordinate moves only its own N(0, 1) term
        hyper, state = random_state("poisson", "ssvs-full", 3)
        r = state.blocks[0].r
        before, r0 = log_prior_state(hyper, state, POISSON), r[0]
        r[0] += 0.7
        assert log_prior_state(hyper, state, POISSON) - before == pytest.approx(-0.5 * (r[0] ** 2 - r0**2), abs=1e-12)

    def test_xi_sign_symmetry(self):
        hyper, state = random_state("poisson", "ssvs-full", 4)
        before = log_prior_state(hyper, state, POISSON)
        state.blocks[0].xi[:, 1] *= -1.0
        assert log_prior_state(hyper, state, POISSON) == before

    @pytest.mark.parametrize("field, value", [("lam", -0.1), ("tau2", 0.0), ("h", 0.0), ("v", -1.0), ("nu", 0.0)])
    def test_rejects_out_of_support_values(self, field, value):
        hyper, state = random_state("poisson", "ssvs-full", 5)
        if field in ("lam", "tau2"):
            getattr(state.blocks[0], field)[0] = value
        else:  # Hyperparameters rejects these itself; log_prior_state checks them as well
            hyper = SimpleNamespace(**{**vars(hyper), field: value})
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            log_prior_state(hyper, state, POISSON)


class TestStageDraws:
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_shapes(self, lead):
        rng = np.random.default_rng(12)
        shape = lead + (3,)
        sigma2 = np.full(lead + (1,), 2.0) if lead else 2.0  # a batch holds a column of scales
        for draw in draw_shrinkage(rng, shape, sigma2, 1.5) + draw_slab(rng, shape, Hyperparameters()):
            assert draw.shape == shape
        assert draw_correlations(rng, lead + (6,)).shape == lead + (6,)
        m, kappa, xi = draw_latent(rng, shape, 5)
        assert m.shape == kappa.shape == shape
        assert xi.shape == lead + (5, 3)

    def test_stages_match_scipy(self):
        # each stage given the one above it, standardized, against its scipy law
        rng = np.random.default_rng(13)
        n, sigma2, g = 20_000, 2.5, 1.5
        hyper = Hyperparameters(h=1.7, v=1.2, nu=3.0)
        phi, theta, beta = draw_shrinkage(rng, (n,), sigma2, g)
        tau2, lam = draw_slab(rng, (n,), hyper)
        m, kappa, xi = draw_latent(rng, (n,), 2)
        checks = {
            "phi": (phi, stats.gamma(1.0).cdf),
            "theta | phi": (theta * phi**2 / 2.0, stats.expon.cdf),
            "beta | theta": (beta * np.sqrt(g * theta / sigma2), stats.norm.cdf),
            "tau2": (tau2, stats.invgamma(hyper.nu / 2.0, scale=hyper.v / 2.0).cdf),
            "lam | tau2": (lam / (hyper.h * np.sqrt(tau2)), stats.halfnorm.cdf),
            "r": (draw_correlations(rng, n), stats.norm.cdf),
            "m": (m, stats.gamma(1.0).cdf),
            "kappa | m": (kappa * m**2 / 2.0, stats.expon.cdf),
            "xi | kappa": ((xi / np.sqrt(kappa)).ravel(), stats.norm.cdf),
        }
        for name, (draws, cdf) in checks.items():
            assert stats.kstest(draws, cdf).pvalue > 1e-3, name


class TestSamplers:
    def test_invgamma_sampler_mean(self):
        rng = np.random.default_rng(4)
        a, b = 3.0, 2.0
        draws = sample_invgamma(rng, a, b, size=200_000)
        want = b / (a - 1)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3 * se

    def test_prior_draw_deterministic(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=3, blocks=((2, 5),))
        s1 = sample_prior(hyper, dims, np.random.default_rng(42), POISSON)
        s2 = sample_prior(hyper, dims, np.random.default_rng(42), POISSON)
        np.testing.assert_array_equal(s1.beta, s2.beta)
        np.testing.assert_array_equal(s1.blocks[0].xi, s2.blocks[0].xi)

    def test_indicator_prior_mean(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=1, blocks=())
        rng = np.random.default_rng(6)
        draws = np.array([sample_prior(hyper, dims, rng, POISSON).J[0] for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) < 0.015

    def test_slab_draws_positive(self):
        hyper = Hyperparameters(v=1.0, nu=1.0)
        dims = ModelDims(l=1, blocks=((3, 4),))
        rng = np.random.default_rng(7)
        for _ in range(200)  :
            st = sample_prior(hyper, dims, rng, POISSON)
            assert np.all(st.blocks[0].lam > 0)
            assert np.all(st.blocks[0].tau2 > 0)
            assert np.all(st.blocks[0].kappa > 0)

    def test_nb_dispersion_draws_positive(self):
        # Gamma(0.01, rate 0.01) underflows to exactly 0 in about 0.06% of raw draws
        rng = np.random.default_rng(0)
        assert all(draw_scale(rng, "dispersion") > 0 for _ in range(20_000))

    def test_no_selection_mode_fixes_indicators(self):
        hyper = Hyperparameters()
        dims = ModelDims(l=4, blocks=((3, 4),))
        rng = np.random.default_rng(8)
        for _ in range(50):
            st = fix_mode(sample_prior(hyper, dims, rng, POISSON), "no-selection")
            assert np.all(st.J == 1)
            assert np.all(st.blocks[0].include == 1)

    def test_unbatched_prior_draw_unchanged(self):
        # sha256 of seeded prior draws: the prior stream must not change
        digest = hashlib.sha256()
        dims = ModelDims(l=3, blocks=((3, 5), (1, 4)))
        for kind in KINDS:
            for mode in MODES:
                s = fix_mode(sample_prior(Hyperparameters(), dims, np.random.default_rng(123), Family(kind)), mode)
                for a in (s.beta, s.J, s.theta, s.phi):
                    digest.update(a.tobytes())
                for b in s.blocks:
                    for a in (b.lam, b.include, b.tau2, b.r, b.xi, b.kappa, b.m):
                        digest.update(a.tobytes())
                digest.update(repr((s.dispersion, s.sigma2)).encode())
        assert digest.hexdigest() == "22a8c9738237ea55da4d3147f4013af82c237d934971b4f861576bef280a1e07"


def log_cdf_table(logpdf, span=80.0):
    """(grid of u = log x, CDF of log x there) for a density on x > 0 given by ``logpdf``.

    A coarse pass over log x in [-span, span] finds where the density of log
    x is within e^-45 of its peak; the trapezoid rule on 40,001 points there
    gives the CDF.
    """

    def log_density(u):
        with np.errstate(all="ignore"):
            out = logpdf(np.exp(u)) + u
        return np.where(np.isfinite(out), out, -np.inf)

    coarse = np.linspace(-span, span, int(50 * span) + 1)
    dens = log_density(coarse)
    bulk = coarse[dens > dens.max() - 45.0]
    u = np.linspace(bulk[0] - 0.1, bulk[-1] + 0.1, 40001)
    dens = log_density(u)
    f = np.exp(dens - dens.max())
    cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2.0)])
    return u, cdf / cdf[-1]


def ks_pvalue(draws, logpdf, span=80.0) -> float:
    u, cdf = log_cdf_table(logpdf, span)
    return stats.kstest(np.log(draws), lambda x: np.interp(x, u, cdf)).pvalue


class TestExactConditionals:
    """The exact samplers of the hierarchy's full conditionals, each against an independent CDF."""

    @pytest.mark.parametrize("p", [-29.0, -2.0, -0.5, 0.0, 0.5, 30.0])
    def test_gig_matches_scipy(self, p):
        # omega = sqrt(chi psi) = 1e-4 .. 1e2; chi / psi = 1e-8 .. 1e8
        rng = np.random.default_rng(int(100 + 2 * p))
        for omega in (1e-4, 1e-2, 1.0, 1e2):
            for ratio in (1e-8, 1.0, 1e8):
                chi, psi = omega * math.sqrt(ratio), omega / math.sqrt(ratio)
                draws = sample_gig(rng, p, np.full(1500, chi), psi)
                oracle = stats.geninvgauss(p, omega, scale=math.sqrt(ratio))
                assert ks_pvalue(draws, oracle.logpdf) > 1e-3, (omega, ratio)

    @pytest.mark.parametrize("p", [-29.0, -0.5, 0.0, 0.5, 100.0])
    def test_gig_matches_its_density_at_tiny_omega(self, p):
        # chi = psi = omega puts log x at about +-log(1 / omega), up to 700 here, past scipy's Bessel normalizer
        rng = np.random.default_rng(int(200 + 2 * p))
        for omega in (1e-20, 1e-125, 1e-300):
            draws = sample_gig(rng, p, np.full(1500, omega), omega)
            assert np.all((draws > 0.0) & np.isfinite(draws)), omega

            def logpdf(x):
                return (p - 1.0) * np.log(x) - 0.5 * omega * (x + 1.0 / x)

            assert ks_pvalue(draws, logpdf, span=800.0) > 1e-3, omega

    @pytest.mark.parametrize("p", [-29.0, 100.0])
    @pytest.mark.parametrize("chi, psi", [(1e-300, 1.0), (1.0, 1e-300), (1e-150, 1e-150)])
    def test_gig_draws_where_omega_is_near_the_float_limit(self, p, chi, psi):
        draws = sample_gig(np.random.default_rng(11), p, np.full(200, chi), psi)
        assert np.all((draws > 0.0) & np.isfinite(draws))

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_modified_halfnormal_matches_numerical_cdf(self, t):
        draws = sample_modified_halfnormal(np.random.default_rng(7), np.full(4000, t))
        assert np.all(draws > 0)
        assert ks_pvalue(draws, lambda x: 2.0 * np.log(x) - x - t * x * x / 2.0) > 1e-3

    def test_parameters_broadcast(self):
        rng = np.random.default_rng(8)
        assert sample_gig(rng, -2.0, np.ones((2, 3)), np.ones(3)).shape == (2, 3)
        assert sample_gig(rng, np.array([0.5, -29.0]), 1.0, 2.0).shape == (2,)
        assert sample_modified_halfnormal(rng, np.ones((2, 3))).shape == (2, 3)
        assert sample_gig(rng, 0.5, np.ones(0), 1.0).shape == (0,)

    @pytest.mark.parametrize(
        "p, chi, psi",
        [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, -1.0, 1.0), (0.5, 1.0, 0.0),
         (0.5, math.inf, 1.0), (0.5, 1.0, math.nan), (-29.0, np.array([1.0, 0.0]), 1.0)],
    )
    def test_gig_rejects_bad_parameters(self, p, chi, psi):
        with pytest.raises(SamplerError):
            sample_gig(np.random.default_rng(9), p, chi, psi)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_modified_halfnormal_rejects_bad_parameters(self, t):
        with pytest.raises(SamplerError):
            sample_modified_halfnormal(np.random.default_rng(10), np.array([1.0, t]))

    def test_rejection_gives_up_after_a_bounded_number_of_rounds(self):
        calls = []

        def never(u, v):
            calls.append(1)

        with pytest.raises(SamplerError, match="pending"):
            priors._rejection(np.random.default_rng(11), [never, never], 2)
        assert len(calls) == 2 * priors._MAX_ROUNDS

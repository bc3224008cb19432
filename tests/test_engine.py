import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.special import expit

from glmmselect import engine as engine_module
from glmmselect.engine import GibbsEngine
from glmmselect.model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelDims,
    ModelSpec,
    RandomBlock,
    SamplerSettings,
    fix_mode,
    linear_predictor_all,
    total_log_likelihood,
)
from glmmselect.cholesky import mask_factors, tril_pairs
from glmmselect.errors import ConfigurationError, SamplerError
from glmmselect.families import Family
from glmmselect.priors import draw_latent, draw_shrinkage, draw_slab, log_prior_state, sample_prior
from glmmselect.sampler import run_chains
from glmmselect.simulate import build_model_spec, full_scale_design, scaled_design, simulate_dataset

KINDS = ("poisson", "negative_binomial", "gaussian", "bernoulli")


def toy_setup(seed=0, n=8, n_i=3, mode="ssvs-full", q=1, kind="poisson"):
    """Random intercept plus q - 1 random slopes on extra standard-normal columns."""
    rng = np.random.default_rng(seed)
    n_obs = n * n_i
    X = rng.standard_normal((n_obs, 2))
    X[:, 0] = 1.0
    groups = np.repeat(np.arange(n), n_i)
    y = rng.poisson(1.5, n_obs).astype(float)
    if kind == "bernoulli":
        y = np.minimum(y, 1.0)
    Z = np.column_stack([X[:, :1], rng.standard_normal((n_obs, q - 1))])
    data = Dataset(y=y, X=X, blocks=(BlockData(Z=Z, groups=groups, n_groups=n),))
    spec = ModelSpec(
        family=Family(kind=kind),
        response="y",
        fixed_effects=("1", "x2"),
        random_blocks=(RandomBlock(group="g", columns=("1",) + tuple(f"z{k}" for k in range(2, q + 1))),),
        hyper=Hyperparameters(v=1.0, nu=1.0),
        sampler=SamplerSettings(seed=seed, adapt=0, burnin=0, kept=10),
        mode=mode,
    )
    return spec, data


def with_offset(spec, data, seed):
    """The same model with a N(0, 0.3^2) offset added to the predictor."""
    offset = np.random.default_rng(seed).normal(0.0, 0.3, data.n_obs)
    return replace(spec, offset="off"), replace(data, offset=offset)


def update_indicator(engine, which, force=None):
    """Run the engine's update of one indicator; returns (probability, ll_on, ll_off) it drew with.

    ``which`` is ("fixed", p) or ("random", k) in block 0.  ``force`` True or
    False makes the draw come out on or off.  The update runs under the
    error-state guard that ``scan`` puts around every update.
    """
    seen = []

    def spy(ll_on, ll_off):
        seen.append((GibbsEngine._inclusion_prob(engine, ll_on, ll_off), ll_on, ll_off))
        return seen[-1][0] if force is None else float(force)  # u < 1.0 always holds, u < 0.0 never

    engine._inclusion_prob = spy
    with np.errstate(over="ignore", invalid="ignore"):
        if which[0] == "fixed":
            engine._update_J(which[1])
        else:
            engine._update_I(0, which[1])
    del engine._inclusion_prob
    assert len(seen) == 1
    return seen[0]


def inclusion_probability(spec, data, state, which):
    """Full-conditional inclusion probability of one indicator, as a fresh engine on ``state`` draws it."""
    engine = GibbsEngine(spec, data, rng=np.random.default_rng(0), state=state)
    return update_indicator(engine, which)[0]


class TestIndicatorConditional:
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_two_branch_likelihood_oracle(self, q):
        spec, data = toy_setup(3, q=q)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(1))
        state = engine.state
        for which in [("fixed", 0), ("fixed", 1)] + [("random", k) for k in range(q)]:
            p = inclusion_probability(spec, data, state, which)
            s_on, s_off = state.copy(), state.copy()
            if which[0] == "fixed":
                s_on.J[which[1]], s_off.J[which[1]] = 1, 0
            else:
                s_on.blocks[0].include[which[1]] = 1
                s_off.blocks[0].include[which[1]] = 0
            ll_on = total_log_likelihood(spec, s_on, data)
            ll_off = total_log_likelihood(spec, s_off, data)
            oracle = expit(ll_on - ll_off)
            assert p == pytest.approx(oracle, abs=1e-12)

    def test_random_flip_delta_matches_full_recompute(self):
        # the flips below move the cached predictor by deltas; each check compares it with a recompute
        q = 4
        spec, data = toy_setup(21, q=q)
        # start at this generator's first prior draw, a moderate state: the absolute tolerances below need one
        rng = np.random.default_rng(22)
        start = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        engine = GibbsEngine(spec, data, rng=rng, state=start)
        for _ in range(3):
            engine.scan()
        bs = engine.state.blocks[0]
        assert np.count_nonzero(bs.r) == bs.r.size
        # with effect 0 in, every flip of another k has a free r entry in Gamma
        bs.include[0] = 1
        engine.recompute_caches()
        free_r_seen = False
        for k in range(q):
            for _ in range(2):  # from the current value of include[k], then from its flip
                s_on, s_off = engine.state.copy(), engine.state.copy()
                s_on.blocks[0].include[k], s_off.blocks[0].include[k] = 1, 0
                want = total_log_likelihood(spec, s_on, data) - total_log_likelihood(spec, s_off, data)
                free_r_seen |= bs.include.sum() - bs.include[k] >= 1
                flipped = not bs.include[k]
                _, ll_on, ll_off = update_indicator(engine, ("random", k), force=flipped)
                # relative too: a flip of a large excluded slab value can move the log-likelihood by 1e12
                assert ll_on - ll_off == pytest.approx(want, rel=1e-12, abs=1e-9)
                assert bs.include[k] == flipped
                assert np.max(np.abs(engine._eta - linear_predictor_all(spec, engine.state, data))) < 1e-9
        # some flip of k happened while another effect was in, so Gamma had a free r entry
        assert free_r_seen

    @pytest.mark.parametrize("mode", ["ssvs-full", "ssvs-diagonal"])
    def test_flip_delta_is_bit_identical_to_the_masked_factors(self, mode):
        # the delta built from row k and column k alone against the one from the full masked (q, q) factors
        q = 4
        spec, data = toy_setup(30, q=q, mode=mode)
        rng = np.random.default_rng(31)
        engine = GibbsEngine(spec, data, rng=rng)
        bs, bdata = engine.state.blocks[0], engine.data.blocks[0]
        for trial in range(40):
            bs.include[:] = rng.integers(0, 2, q)
            bs.lam[:] = rng.gamma(1.0, 1.0, q)
            bs.xi[:] = rng.normal(0.0, 1.0, bs.xi.shape)
            if mode == "ssvs-full":
                bs.r[:] = rng.normal(0.0, 1.0, bs.r.size) * (rng.random(bs.r.size) < 0.7)
            if trial % 4 == 0:  # an included effect with lam exactly 0
                j = rng.integers(q)
                bs.include[j], bs.lam[j] = 1, 0.0
            for k in range(q):
                include = bs.include.copy()
                include[k] = 1
                lam_eff, gamma = mask_factors(bs.lam, bs.r, include)
                row = lam_eff[k] * gamma[k, :]
                col = lam_eff * gamma[:, k]
                col[k] = 0.0
                want = bdata.Z[:, k] * (bs.xi @ row)[bdata.groups]
                if col.any():
                    want += (bdata.Z @ col) * bs.xi[bdata.groups, k]
                assert engine._flip_delta(0, k).tobytes() == want.tobytes(), (trial, k)

    def test_overflowing_branch_raises_no_warning(self):
        design = full_scale_design()
        data, _ = simulate_dataset(design, 0)
        spec = build_model_spec(design, mode="ssvs-full")
        state = GibbsEngine(spec, data, rng=np.random.default_rng(3)).state
        k = 4
        state.blocks[0].include[k] = 0
        state.blocks[0].lam[k] = 1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the on branch puts eta near +-1e4, so exp overflows and ll_on is -inf
            assert inclusion_probability(spec, data, state, ("random", k)) == 0.0
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(4), state=state)
            for _ in range(3):
                engine.scan()

    def test_empty_dataset_reproduces_prior(self):
        spec, _ = toy_setup(4)
        data0 = empty_data()
        state = sample_prior(spec.hyper, ModelDims.of(spec, data0), np.random.default_rng(5), spec.family)
        assert inclusion_probability(spec, data0, state, ("fixed", 0)) == 0.5
        assert inclusion_probability(spec, data0, state, ("random", 0)) == 0.5

    def test_zero_coefficient_is_coin_flip(self):
        spec, data = toy_setup(6)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(2))
        state = engine.state
        state.beta[1] = 0.0
        assert inclusion_probability(spec, data, state, ("fixed", 1)) == pytest.approx(0.5)

    @pytest.mark.parametrize("diff, want", [(800.0, 1.0), (-800.0, 0.0), (math.inf, 1.0), (-math.inf, 0.0)])
    def test_inclusion_probability_saturates_without_overflow(self, diff, want):
        spec, data = toy_setup(6)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(2))
        # ll_on - ll_off = diff, with the finite branch at a typical log-likelihood scale
        ll_on, ll_off = (diff, 0.0) if math.isinf(diff) else (-100.0 + diff, -100.0)
        assert engine._inclusion_prob(ll_on, ll_off) == want
        if math.isinf(diff):
            assert engine._inclusion_prob(ll_off, -ll_on) == want

    def test_inclusion_probability_matches_logistic_of_log_odds(self):
        spec, data = toy_setup(6)
        spec = replace(spec, hyper=replace(spec.hyper, prior_inclusion=0.2))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(2))
        for diff in (-30.0, -1.0, 0.0, 0.7, 30.0):
            odds = 0.2 / 0.8 * math.exp(diff)
            assert engine._inclusion_prob(diff, 0.0) == pytest.approx(odds / (1.0 + odds), rel=1e-14)

    def test_both_branches_minus_inf_raise(self):
        spec, data = toy_setup(6)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(2))
        with pytest.raises(SamplerError, match="both indicator branches"):
            engine._inclusion_prob(-math.inf, -math.inf)

    def test_update_indicator_only_touches_target(self):
        spec, data = toy_setup(7)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(3))
        for force in (False, True, True, False):
            before = engine.state.copy()
            update_indicator(engine, ("fixed", 1), force=force)
            new = engine.state
            assert new.J[1] == force
            np.testing.assert_array_equal(new.beta, before.beta)
            assert new.J[0] == before.J[0]
            np.testing.assert_array_equal(new.blocks[0].include, before.blocks[0].include)
            np.testing.assert_array_equal(new.blocks[0].xi, before.blocks[0].xi)
            assert np.max(np.abs(engine._eta - linear_predictor_all(spec, new, data))) < 1e-12


def empty_data() -> Dataset:
    """No observations, one group: the posterior is the prior."""
    return Dataset(
        y=np.zeros(0),
        X=np.zeros((0, 2)),
        blocks=(BlockData(Z=np.zeros((0, 1)), groups=np.zeros(0, dtype=int), n_groups=1),),
    )


class TestLineTargets:
    """The engine's likelihood targets x w (y . c) - sum A(y, eta0 + c x) against the full family kernel."""

    @staticmethod
    def engine_for(kind):
        spec, data = toy_setup(50, n=6, n_i=4, q=2, kind=kind)
        if kind == "gaussian":
            # responses near 1e6: the residual form must not cancel there
            data = replace(data, y=1e6 + np.random.default_rng(51).normal(0.0, 1.0, data.n_obs))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(52))
        # a moderate scale: prior draws of the NB dispersion can be 1e-300, where the kernel is 0 up to rounding
        if kind == "negative_binomial":
            engine.state.dispersion = 2.5
        if kind == "gaussian":
            engine.state.sigma2 = 1.5
        rng = np.random.default_rng(53)
        eta0 = rng.normal(0.0, 1.0, data.n_obs) + (1e6 if kind == "gaussian" else 0.0)
        c = rng.normal(0.0, 1.0, data.n_obs)
        if kind != "gaussian":
            # rows whose eta reaches 708 at x = 3: exp(eta) is near the float limit but finite
            eta0[:2], c[:2] = 705.0, 1.0
        return engine, eta0, c

    @staticmethod
    def kernel(engine, eta):
        """The family kernel at eta, and the size of its terms, |w y eta| + |A|, that bounds its rounding."""
        family, y = engine.spec.family, engine.data.y
        scale = family.scale_of(engine.state)
        size = np.abs(family.kernel_w * y * eta) + np.abs(family.kernel_a(y, eta, scale))
        return family.log_kernel(y, eta, scale), size

    @pytest.mark.parametrize("kind", KINDS)
    def test_line_differs_from_kernel_sum_by_a_constant(self, kind):
        engine, eta0, c = self.engine_for(kind)
        line = engine._line(eta0, c)
        gaps, scales = [], []
        for x in (-1.0, 0.0, 0.5, 2.0, 3.0):
            terms, size = self.kernel(engine, eta0 + c * x)
            assert np.all(np.isfinite(terms))
            gaps.append(line(x) - terms.sum())
            scales.append(size.sum())
        assert np.ptp(gaps) <= 1e-9 * max(scales), gaps

    @pytest.mark.parametrize("kind", KINDS)
    def test_group_lines_match_bincount_of_kernel(self, kind):
        engine, eta0, c = self.engine_for(kind)
        bdata = engine.data.blocks[0]
        lines = engine._group_lines(0, eta0, c)
        rng = np.random.default_rng(54)
        gaps, scales = [], []
        for _ in range(4):
            x = rng.uniform(-1.0, 3.0, bdata.n_groups)
            terms, size = self.kernel(engine, eta0 + c * x[bdata.groups])
            per_group = np.bincount(bdata.groups, weights=terms, minlength=bdata.n_groups)
            gaps.append(lines(x) - per_group)
            scales.append(np.bincount(bdata.groups, weights=size, minlength=bdata.n_groups))
        assert np.all(np.ptp(gaps, axis=0) <= 1e-9 * np.max(scales, axis=0)), gaps

    @pytest.mark.parametrize("kind", KINDS)
    def test_indicator_odds_are_the_kernel_difference(self, kind):
        engine, _, _ = self.engine_for(kind)
        engine.state.beta[1] = 0.7
        engine.recompute_caches()  # the cached predictor must hold the edited beta
        for which in [("fixed", 1), ("random", 0), ("random", 1)]:
            s_on, s_off = engine.state.copy(), engine.state.copy()
            if which[0] == "fixed":
                s_on.J[1], s_off.J[1] = 1, 0
            else:
                s_on.blocks[0].include[which[1]], s_off.blocks[0].include[which[1]] = 1, 0
            on, size_on = self.kernel(engine, linear_predictor_all(engine.spec, s_on, engine.data))
            off, size_off = self.kernel(engine, linear_predictor_all(engine.spec, s_off, engine.data))
            _, ll_on, ll_off = update_indicator(engine, which)
            scale = size_on.sum() + size_off.sum()
            assert abs((ll_on - ll_off) - (on.sum() - off.sum())) <= 1e-9 * scale, which


def moderate_state(engine, kind):
    """Set a fixed moderate state, with every effect in, on the engine of a two-effect toy block."""
    st, bs = engine.state, engine.state.blocks[0]
    st.J[:] = 1
    st.beta[:] = (0.3, -0.2)
    bs.include[:] = 1
    bs.lam[:] = (0.8, 0.5)
    bs.r[:] = 0.6
    bs.kappa[:] = (1.3, 0.7)
    bs.xi[:] = np.random.default_rng(60).normal(0.0, 1.0, bs.xi.shape)
    if kind == "negative_binomial":
        st.dispersion = 2.0
    if kind == "gaussian":
        st.sigma2 = 0.5
    engine.recompute_caches()


def column_line(engine, k=0):
    """eta with column k of block 0's xi at 0, and the coefficient c of xi_gk in eta, from full predictors."""
    at = []
    for value in (0.0, 1.0):
        state = engine.state.copy()
        state.blocks[0].xi[:, k] = value
        at.append(linear_predictor_all(engine.spec, state, engine.data))
    return at[0], at[1] - at[0]


class TestXiKernel:
    """The xi column step against the quadrature CDF of each group's full conditional."""

    @staticmethod
    def conditional_cdfs(engine, k=0):
        """Per group g, the CDF of xi_gk given everything else, by quadrature on a fine grid.

        The log-density is the family log-likelihood of g's rows, from the full predictor, plus the
        N(0, kappa_k) prior.
        """
        spec, data, state = engine.spec, engine.data, engine.state
        bs, bdata = state.blocks[0], data.blocks[0]
        family, scale = spec.family, spec.family.scale_of(state)
        base, c = column_line(engine, k)
        grid = np.linspace(-12.0, 12.0, 24001)
        cdfs = []
        for g in range(bdata.n_groups):
            rows = bdata.groups == g
            eta = base[rows] + c[rows] * grid[:, None]
            logd = family.log_likelihood(data.y[rows], eta, scale).sum(axis=1) - 0.5 * grid**2 / bs.kappa[k]
            dens = np.exp(logd - logd.max())
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
            cdfs.append(lambda x, cum=cum / cum[-1]: np.interp(x, grid, cum))
        return cdfs

    @pytest.mark.parametrize("kind", KINDS)
    def test_draws_follow_each_groups_full_conditional(self, kind):
        spec, data = toy_setup(61, n=3, n_i=4, q=2, kind=kind)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(62))
        moderate_state(engine, kind)
        cdfs = self.conditional_cdfs(engine)
        draws = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(4000):
                engine._update_xi_col(0, 0)
                if i % 5 == 4:
                    draws.append(engine.state.blocks[0].xi[:, 0].copy())
        draws = np.array(draws)
        for g, cdf in enumerate(cdfs):
            assert stats.kstest(draws[:, g], cdf).pvalue > 1e-3, g
        # the cached predictor moved with the accepted draws
        assert np.max(np.abs(engine._eta - linear_predictor_all(spec, engine.state, data))) < 1e-9
        assert engine.xi_proposed == 4000 * 3
        assert engine.xi_accepted > 0.5 * engine.xi_proposed
        if kind == "gaussian":  # the Laplace approximation is the conditional itself
            assert engine.xi_accepted == engine.xi_proposed

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shift", [0.0, -25.0])
    def test_proposal_centre_is_each_groups_mode(self, kind, shift):
        # eta0 shifted by -25 puts the modes 3 to 35 eta units (the gaussian's the most) from the search's start at 0
        spec, data = toy_setup(65, n=3, n_i=4, q=2, kind=kind)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(66))
        moderate_state(engine, kind)
        bs, bdata = engine.state.blocks[0], data.blocks[0]
        eta0, c = column_line(engine)
        eta0 = eta0 + shift
        precision = 1.0 / bs.kappa[0]
        family, scale = spec.family, spec.family.scale_of(engine.state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                line = engine._group_lines(0, eta0, c)
                m, h = engine._group_laplace(0, eta0, c, line.slope, precision)
        for g in range(bdata.n_groups):
            rows = bdata.groups == g

            def minus_t(x):
                ll = family.log_likelihood(data.y[rows], eta0[rows] + c[rows] * x, scale).sum()
                return 0.5 * precision * x * x - ll

            mode = optimize.minimize_scalar(minus_t, bracket=(-1.0, 1.0), tol=1e-12).x
            step = 1e-4
            curvature = (minus_t(mode + step) - 2.0 * minus_t(mode) + minus_t(mode - step)) / step**2
            assert abs(m[g] - mode) * math.sqrt(curvature) < 0.02, (g, m[g], mode)
            assert h[g] == pytest.approx(curvature, rel=1e-3), g

    def test_non_finite_lanes_keep_their_value(self):
        # at lam = 1e300 the squared loadings overflow, so every group's curvature is inf and its
        # Newton steps NaN; the step keeps each value and lets no warning escape the guard of scan
        spec, data = toy_setup(63, n=3, n_i=4, q=2)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(64))
        moderate_state(engine, "poisson")
        bs = engine.state.blocks[0]
        bs.lam[0] = 1e300
        engine.recompute_caches()
        before = bs.xi[:, 0].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                engine._update_xi_col(0, 0)
        np.testing.assert_array_equal(bs.xi[:, 0], before)
        assert engine.xi_accepted == 0 and engine.xi_proposed == 3


class TestEmptyData:
    def test_chain_reproduces_the_prior(self):
        # with no observations an invariant scan keeps the prior; the one group puts kappa | xi, m at
        # GIG(p = 0.5), half of whose small-omega proposals come from the hat's left tail
        spec, _ = toy_setup(4)
        data0 = empty_data()
        engine = GibbsEngine(spec, data0, rng=np.random.default_rng(1))
        n_scans, thin = 6000, 10
        chain = np.empty((n_scans, 5))
        for i in range(n_scans):
            engine.scan()
            st, bs = engine.state, engine.state.blocks[0]
            chain[i] = st.theta[0], st.phi[0], bs.tau2[0], bs.kappa[0], bs.m[0]
        # 20,000 prior draws from the stage functions sample_prior uses; sigma2 is 1 for the poisson
        prior_rng, size = np.random.default_rng(2), (20_000,)
        phi, theta, _ = draw_shrinkage(prior_rng, size, 1.0, spec.hyper.g_shrink)
        tau2, _ = draw_slab(prior_rng, size, spec.hyper)
        m, kappa, _ = draw_latent(prior_rng, size, 1)
        reference = [theta, phi, tau2, kappa, m]
        # thinned to 600 draws: the autocorrelations of these chains are near 0 by lag 20
        for name, draws, ref in zip(("theta", "phi", "tau2", "kappa", "m"), chain[::thin].T, reference):
            assert stats.ks_2samp(draws, ref).pvalue > 1e-3, name
        # the 95% quantile of log kappa: the share of scans below the prior's, with its
        # Monte Carlo error from 20 batch means
        below = np.log(chain[:, 3]) <= np.quantile(np.log(reference[3]), 0.95)
        batch_means = below.reshape(20, -1).mean(axis=1)
        mc_error = batch_means.std(ddof=1) / math.sqrt(batch_means.size)
        assert abs(below.mean() - 0.95) < 4.0 * mc_error
        assert engine.stats["kappa"].updates == engine.stats["m"].updates == engine.stats["phi"].updates == 0


# per field of a state, an array of the wrong shape for toy_setup(n=12, n_i=4, q=3)
WRONG_SHAPES = {
    "beta": np.zeros(3),
    "J": np.ones(1, dtype=np.int8),
    "theta": np.ones(5),
    "phi": np.ones(0),
    "lam": np.ones(2),
    "include": np.ones(4, dtype=np.int8),
    "tau2": np.ones(5),
    "r": np.array([0.3]),
    "xi": np.zeros((11, 3)),
    "kappa": np.ones(1),
    "m": np.ones(7),
}


class TestGivenState:
    @pytest.mark.parametrize("field", WRONG_SHAPES)
    def test_wrong_shape_is_rejected(self, field):
        spec, data = toy_setup(11, n=12, n_i=4, q=3)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), np.random.default_rng(12), spec.family)
        setattr(state if hasattr(state, field) else state.blocks[0], field, WRONG_SHAPES[field])
        with pytest.raises(ConfigurationError, match=rf"\b{field} has shape"):
            GibbsEngine(spec, data, rng=np.random.default_rng(13), state=state)


def dispersion_log_cdf(y, eta, r_min, r_max):
    """(grid of log r, CDF of log r there) of the NB dispersion's full conditional r | y, eta.

    scipy's NB pmf times the Gamma(0.01, rate 0.01) prior, by the trapezoid
    rule on 20,001 points of log r in [log r_min, log r_max].
    """
    log_r = np.linspace(math.log(r_min), math.log(r_max), 20001)
    r = np.exp(log_r)[:, None]
    log_post = stats.nbinom.logpmf(y, r, r / (r + np.exp(eta))).sum(axis=1)
    log_post += stats.gamma.logpdf(r[:, 0], 0.01, scale=100.0) + log_r  # density of log r
    dens = np.exp(log_post - log_post.max())
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
    return log_r, cdf / cdf[-1]


class TestGibbsScan:
    def test_cache_after_a_scan_is_the_models_linear_predictor(self):
        # recompute_caches sums through model.linear_predictor, so the cache a scan leaves matches it bit for bit
        spec, data = with_offset(*toy_setup(40, q=3), 41)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(42))
        for _ in range(5):
            engine.scan()
            np.testing.assert_array_equal(engine._eta, linear_predictor_all(spec, engine.state, data))

    def test_no_selection_mode_keeps_indicators(self):
        spec, data = toy_setup(8, mode="no-selection")
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(4))
        for _ in range(20):
            engine.scan()
            assert np.all(engine.state.J == 1)
            assert np.all(engine.state.blocks[0].include == 1)

    def test_seeded_determinism(self):
        spec, data = toy_setup(9)
        e1 = GibbsEngine(spec, data, rng=np.random.default_rng(5))
        e2 = GibbsEngine(spec, data, rng=np.random.default_rng(5))
        for _ in range(15):
            e1.scan()
            e2.scan()
        np.testing.assert_array_equal(e1.state.beta, e2.state.beta)
        np.testing.assert_array_equal(e1.state.blocks[0].xi, e2.state.blocks[0].xi)
        np.testing.assert_array_equal(e1.state.J, e2.state.J)

    def test_functional_scan_does_not_mutate_input(self):
        # a state passed in is copied: scanning from it leaves the caller's arrays as they were
        spec, data = toy_setup(10, q=2)
        state = GibbsEngine(spec, data, rng=np.random.default_rng(6)).state
        before = state.copy()
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(7), state=state)
        for _ in range(3):
            engine.scan()
        assert not np.array_equal(engine.state.beta, before.beta)
        for name in ("beta", "J", "theta", "phi"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name), err_msg=name)
        for name in ("lam", "include", "tau2", "r", "xi", "kappa", "m"):
            np.testing.assert_array_equal(getattr(state.blocks[0], name), getattr(before.blocks[0], name), err_msg=name)

    @pytest.mark.parametrize("q, seed", [(1, 8), (3, 14)])
    def test_cached_predictor_matches_full_recompute(self, q, seed):
        # the cache is checked after every single update, before the recompute that ends each scan
        updates = ("_update_J", "_update_beta", "_update_theta_phi", "_update_I", "_update_lambda",
                   "_update_tau2", "_update_r", "_update_xi_col", "_update_kappa_m", "_update_scale")
        for kind in ("poisson", "negative_binomial"):
            spec, data = with_offset(*toy_setup(11, q=q, kind=kind), seed=seed)
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(seed))
            # every effect starts included, so the r updates, which move eta only while both of their
            # effects are in, have included pairs to move
            engine.state.blocks[0].include[:] = 1
            engine.recompute_caches()
            present = [name for name in updates if getattr(engine, name) is not None]  # poisson has no scale
            calls, moved = dict.fromkeys(present, 0), dict.fromkeys(present, 0)

            def checked(name, update):
                def run(*idx):
                    before = engine._eta.copy()
                    update(*idx)
                    fresh = linear_predictor_all(spec, engine.state, data)
                    assert np.max(np.abs(engine._eta - fresh)) < 1e-9, (kind, name, idx)
                    calls[name] += 1
                    moved[name] += not np.array_equal(engine._eta, before)
                return run

            for name in present:
                setattr(engine, name, checked(name, getattr(engine, name)))
            for _ in range(25):
                engine.scan()
            assert all(calls[name] for name in present if name != "_update_r" or q > 1), calls  # q = 1 has no r
            # every update with a term in eta moved the cache, so each check above compared new values
            want_moved = ["_update_J", "_update_beta", "_update_I", "_update_lambda", "_update_xi_col"]
            if q > 1:
                want_moved.append("_update_r")
            assert all(moved[name] for name in want_moved), moved

    def test_r_update_keeps_the_cache_with_an_included_effect_at_lam_zero(self):
        # mask_factors zeroes row and column 0 of Gamma for an included effect 0 at lam exactly 0, so an r entry
        # of a pair with effect 0 is not live: it is redrawn from its prior and leaves the cache alone
        design = scaled_design()
        data, _ = simulate_dataset(design, 0)
        spec = build_model_spec(design, mode="ssvs-full")
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(12))
        bs = engine.state.blocks[0]
        bs.include[:] = 1
        bs.lam[:] = 0.1
        bs.lam[0] = 0.0
        engine.recompute_caches()
        engine.adapting = True
        for _ in range(5):
            with np.errstate(over="ignore", invalid="ignore"):
                engine._update_r(0)
            assert np.max(np.abs(engine._eta - linear_predictor_all(spec, engine.state, data))) < 1e-9
        rows, cols = tril_pairs(design.q)
        # only the live entries took slice updates, whose draws reach the width store
        assert engine.widths["r", 0].count == [0 if 0 in (u, v) else 5 for u, v in zip(rows, cols)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_posterior_is_likelihood_plus_prior(self, kind):
        spec, data = toy_setup(19, q=2, kind=kind)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(20))
        for _ in range(5):
            engine.scan()
            want = total_log_likelihood(spec, engine.state, data) + log_prior_state(
                spec.hyper, engine.state, spec.family
            )
            assert np.isfinite(want)
            assert engine.log_posterior() == want

    def test_exclusion_invariant_enforced(self):
        spec, data = toy_setup(12)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(9))
        for _ in range(30):
            engine.scan()
            engine.check_exclusion_invariant()

    @staticmethod
    def _leaky_engine(monkeypatch, leak):
        spec, data = toy_setup(23, q=3)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(24))
        bs = engine.state.blocks[0]
        bs.include[:] = (1, 1, 0)
        lam_eff = np.array([0.7, 1.3, 0.0])
        gamma = np.eye(3)
        gamma[1, 0] = 0.4
        if leak == "omega":
            lam_eff[2] = 0.5  # excluded scale left unmasked: Omega[2, 2] != 0
        else:
            gamma[1, 2] = 0.3  # excluded column of Gamma left unmasked: loadings[1, 2] != 0
        monkeypatch.setattr(engine, "_gamma_eff", lambda bi: (lam_eff, gamma))
        return engine

    def test_invariant_catches_leak_in_omega(self, monkeypatch):
        engine = self._leaky_engine(monkeypatch, "omega")
        with pytest.raises(SamplerError, match=r"invariant violated in Omega \(block 0, k 2\)"):
            engine.check_exclusion_invariant()

    def test_invariant_catches_leak_in_loadings(self, monkeypatch):
        engine = self._leaky_engine(monkeypatch, "loadings")
        with pytest.raises(SamplerError, match=r"excluded effect 2 contributes to eta \(block 0\)"):
            engine.check_exclusion_invariant()

    @staticmethod
    def _omega_rule(lam_eff, gamma, excluded):
        """The invariant's message from Omega = L L^T itself, or None: a nonzero row or column k of Omega, else of L."""
        lg = lam_eff[:, None] * gamma
        omega = lg @ lg.T
        for k in excluded:
            if omega[k, :].any() or omega[:, k].any():
                return f"exclusion invariant violated in Omega (block 0, k {k})"
            if lg[k, :].any() or lg[:, k].any():
                return f"excluded effect {k} contributes to eta (block 0)"
        return None

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_invariant_matches_the_omega_rule(self, monkeypatch, q):
        engine = GibbsEngine(*toy_setup(31, q=q), rng=np.random.default_rng(32))
        rng = np.random.default_rng(q)
        seen = set()
        for _ in range(100):
            include = rng.integers(0, 2, q)
            include[rng.integers(q)] = 0
            engine.state.blocks[0].include[:] = include
            lam_eff, gamma = mask_factors(rng.uniform(0.1, 2.0, q), rng.uniform(-1.0, 1.0, q * (q - 1) // 2), include.astype(float))
            k = rng.choice(np.flatnonzero(include == 0))
            leak = rng.choice(["row", "column", "scale", "clean"])
            if leak == "row" and k > 0:
                gamma[k, rng.integers(k)] = rng.uniform(0.1, 1.0)
            elif leak == "column" and k < q - 1:
                j = rng.integers(k + 1, q)
                lam_eff[j] = max(lam_eff[j], 0.5)
                gamma[j, k] = rng.uniform(0.1, 1.0)
            elif leak == "scale":
                lam_eff[k] = rng.uniform(0.1, 1.0)
            monkeypatch.setattr(engine, "_gamma_eff", lambda bi: (lam_eff, gamma))
            want = self._omega_rule(lam_eff, gamma, np.flatnonzero(include == 0))
            try:
                engine.check_exclusion_invariant()
                got = None
            except SamplerError as exc:
                got = str(exc)
            assert got == want
            seen.add("clean" if want is None else "Omega" if "Omega" in want else "eta")
        assert seen == {"clean", "Omega", "eta"}

    def test_diagonal_mode_never_moves_r(self):
        rng = np.random.default_rng(13)
        n, n_i = 6, 3
        n_obs = n * n_i
        X = rng.standard_normal((n_obs, 2))
        X[:, 0] = 1.0
        groups = np.repeat(np.arange(n), n_i)
        data = Dataset(
            y=rng.poisson(1.0, n_obs).astype(float),
            X=X,
            blocks=(BlockData(Z=X, groups=groups, n_groups=n),),
        )
        spec = ModelSpec(
            family=Family(kind="poisson"),
            response="y",
            fixed_effects=("1", "x2"),
            random_blocks=(RandomBlock(group="g", columns=("1", "x2")),),
            hyper=Hyperparameters(v=1.0, nu=1.0),
            sampler=SamplerSettings(seed=0),
            mode="ssvs-diagonal",
        )
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(14))
        assert np.all(engine.state.blocks[0].r == 0.0)
        for _ in range(10):
            engine.scan()
        assert np.all(engine.state.blocks[0].r == 0.0)

    def test_gaussian_sigma2_moves(self):
        rng = np.random.default_rng(15)
        X = np.column_stack([np.ones(40), rng.standard_normal(40)])
        data = Dataset(y=rng.normal(2.0, 1.0, 40), X=X)
        spec = ModelSpec(
            family=Family(kind="gaussian"),
            response="y",
            fixed_effects=("1", "x2"),
            sampler=SamplerSettings(seed=0),
            mode="no-selection",
        )
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(16))
        vals = set()
        for _ in range(10):
            engine.scan()
            vals.add(engine.state.sigma2)
        assert len(vals) == 10

    def test_nb_dispersion_moves(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(40), rng.standard_normal(40)])
        data = Dataset(y=rng.poisson(2.0, 40).astype(float), X=X)
        spec = ModelSpec(
            family=Family(kind="negative_binomial"),
            response="y",
            fixed_effects=("1", "x2"),
            sampler=SamplerSettings(seed=0),
            mode="ssvs-full",
        )
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(18))
        for _ in range(10):
            engine.scan()
            assert engine.state.dispersion > 0

    def test_nb_dispersion_update_keeps_its_conditional(self):
        # start each update at an exact draw of r_disp | y, eta (grid inverse
        # CDF of dispersion_log_cdf); an invariant update returns draws with
        # the same distribution
        rng = np.random.default_rng(19)
        n = 60
        eta = rng.normal(1.0, 0.3, n)
        y = rng.negative_binomial(2.0, 2.0 / (2.0 + np.exp(eta))).astype(float)
        data = Dataset(y=y, X=np.ones((n, 1)))
        spec = ModelSpec(family=Family(kind="negative_binomial"), response="y", fixed_effects=("1",))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(20))
        engine._eta = eta
        log_r, cdf = dispersion_log_cdf(y, eta, 1e-2, 1e3)

        starts = np.exp(np.interp(rng.random(2000), cdf, log_r))
        draws = np.empty_like(starts)
        for i, start in enumerate(starts):
            engine.state.dispersion = float(start)
            engine._update_dispersion()
            draws[i] = engine.state.dispersion
        assert stats.kstest(np.log(draws), lambda x: np.interp(x, log_r, cdf)).pvalue > 1e-3


class TestFamilyScaleConditionals:
    """Draws of the family-scale updates at a fixed rest of the state, against their full conditionals."""

    def test_sigma2_draws_follow_its_inverse_gamma(self):
        # sigma2 | rest ~ IG(0.01 + (n + l)/2, 0.01 + ssr/2 + g sum(theta beta^2)/2): the IG(0.01, 0.01)
        # prior, the gaussian likelihood and the N(0, sigma2 / (g theta)) prior of every beta
        spec, data = toy_setup(seed=21, n=10, n_i=2, kind="gaussian")
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(22))
        st = engine.state
        st.J[:] = 1
        st.beta[:] = [1.2, -2.5]
        st.theta[:] = [3.0, 4.0]
        engine.recompute_caches()
        resid = data.y - engine._eta
        shape = 0.01 + 0.5 * (data.n_obs + st.beta.size)
        scale = 0.01 + 0.5 * resid @ resid + 0.5 * spec.hyper.g_shrink * np.sum(st.theta * st.beta**2)
        draws = np.empty(20_000)
        for i in range(draws.size):
            engine._update_sigma2()
            draws[i] = st.sigma2
        assert stats.kstest(draws, stats.invgamma(shape, scale=scale).cdf).pvalue > 1e-3

    def test_dispersion_chain_follows_its_conditional(self):
        # the Gamma(0.01, rate 0.01) prior leaves 20 observations' conditional a heavy right tail,
        # so the grid reaches r = 5000
        rng = np.random.default_rng(23)
        n = 20
        eta = rng.normal(1.0, 0.3, n)
        y = rng.negative_binomial(2.0, 2.0 / (2.0 + np.exp(eta))).astype(float)
        data = Dataset(y=y, X=np.ones((n, 1)))
        spec = ModelSpec(family=Family(kind="negative_binomial"), response="y", fixed_effects=("1",))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(24))
        engine._eta = eta
        engine.state.dispersion = 2.0
        log_r, cdf = dispersion_log_cdf(y, eta, 1e-3, 5e3)

        # 10,000 successive updates, every 10th kept
        draws = np.empty(1000)
        for i in range(draws.size):
            for _ in range(10):
                engine._update_dispersion()
            draws[i] = engine.state.dispersion
        assert stats.kstest(np.log(draws), lambda x: np.interp(x, log_r, cdf)).pvalue > 1e-3


class TestStart:
    @pytest.mark.parametrize("design", [full_scale_design(), scaled_design()], ids=["full", "scaled"])
    def test_no_selection_starts_on_the_paper_designs(self, design):
        # no prior draw with every effect in had a finite likelihood on these designs
        data, _ = simulate_dataset(design, 0)
        spec = build_model_spec(design, mode="no-selection")
        for seed in range(1, 41):
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(seed))
            assert math.isfinite(engine.log_likelihood()), seed

    @pytest.mark.parametrize("mode", ["ssvs-full", "ssvs-diagonal", "no-selection"])
    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_bernoulli_and_gaussian_chains_run(self, kind, mode):
        # heavy-tailed prior starts put these kernels' slice targets beyond float resolution
        design = scaled_design()
        data, _ = simulate_dataset(design, 0)
        data = replace(data, y=(data.y > 0).astype(float) if kind == "bernoulli" else np.log1p(data.y))
        spec = replace(build_model_spec(design, mode=mode), family=Family(kind))
        for seed in (1, 2, 3):
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(seed))
            engine.adapting = True
            for _ in range(60):
                engine.scan()
            assert math.isfinite(engine.log_posterior()), seed

    def test_one_prior_draw_and_the_same_start_per_seed(self, monkeypatch):
        spec, data = toy_setup(30, q=2, kind="negative_binomial")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_prior(*args, **kwargs)

        monkeypatch.setattr(engine_module, "sample_prior", counted)
        first = GibbsEngine(spec, data, rng=np.random.default_rng(31)).state
        assert len(calls) == 1
        second = GibbsEngine(spec, data, rng=np.random.default_rng(31)).state
        for name in ("beta", "J", "theta", "phi"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
        for name in ("lam", "include", "tau2", "r", "xi", "kappa", "m"):
            np.testing.assert_array_equal(getattr(first.blocks[0], name), getattr(second.blocks[0], name))
        assert first.dispersion == second.dispersion == 1.0
        np.testing.assert_array_equal(first.blocks[0].lam, 0.5)
        np.testing.assert_array_equal(first.blocks[0].kappa, 1.0)

    @pytest.mark.parametrize("mode", ["ssvs-full", "ssvs-diagonal", "no-selection"])
    def test_prior_part_of_the_start_keeps_the_mode_fixes(self, mode):
        spec, data = toy_setup(40, q=3, mode=mode)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(41))
        prior = fix_mode(sample_prior(spec.hyper, engine.dims, np.random.default_rng(41), spec.family), mode)
        start, bs, pbs = engine.state, engine.state.blocks[0], prior.blocks[0]
        for name in ("J", "theta", "phi"):
            np.testing.assert_array_equal(getattr(start, name), getattr(prior, name))
        for name in ("include", "m"):
            np.testing.assert_array_equal(getattr(bs, name), getattr(pbs, name))
        np.testing.assert_array_equal(bs.r, 0.0 if mode == "ssvs-diagonal" else pbs.r)
        if mode == "no-selection":
            assert np.all(start.J == 1) and np.all(bs.include == 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_ridge_irls_is_the_penalized_mode(self, kind):
        # b maximises the GLM log-likelihood (random effects 0, offset in, scale 1) minus g/2 |b|^2,
        # and H is that target's negative Hessian there
        spec, data = with_offset(*toy_setup(42, n=12, kind=kind), seed=43)
        spec = replace(spec, hyper=replace(spec.hyper, g_shrink=2.5))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(44))
        scale = None if spec.family.scale is None else 1.0

        def target(beta):
            eta = data.X @ beta + data.offset
            return spec.family.log_likelihood(data.y, eta, scale).sum() - 1.25 * beta @ beta

        b, h = engine._ridge_irls()
        oracle = optimize.minimize(lambda beta: -target(beta), np.zeros(2), method="BFGS", options={"gtol": 1e-10})
        np.testing.assert_allclose(b, oracle.x, atol=1e-5)
        step, eye = 1e-4, np.eye(2)
        hessian = [
            [(target(b + step * (ei + ej)) - target(b + step * (ei - ej)) - target(b - step * (ei - ej))
              + target(b - step * (ei + ej))) / (4 * step**2) for ej in eye]
            for ei in eye
        ]
        np.testing.assert_allclose(h, -np.array(hessian), rtol=1e-4)

    def test_start_beta_is_overdispersed_around_the_estimate(self):
        # beta ~ N(b, 4 H^-1): with H = L L', z = L' (beta - b) / 2 is standard normal
        spec, data = toy_setup(45, kind="negative_binomial")
        b, h = GibbsEngine(spec, data, rng=np.random.default_rng(0))._ridge_irls()
        chol = np.linalg.cholesky(h)
        z = np.array(
            [chol.T @ (GibbsEngine(spec, data, rng=np.random.default_rng(seed)).state.beta - b) / 2.0 for seed in range(1, 401)]
        )
        for k in range(z.shape[1]):
            assert stats.kstest(z[:, k], "norm").pvalue > 1e-3, k
        np.testing.assert_allclose(np.cov(z.T), np.eye(z.shape[1]), atol=0.2)

    def test_infeasible_model_raises(self):
        spec, data = toy_setup(37)
        # exp(eta) overflows at every observation for any beta
        data = replace(data, offset=np.full(data.n_obs, 1e300))
        spec = replace(spec, offset="off")
        with pytest.raises(SamplerError, match="log-likelihood"):
            GibbsEngine(spec, data, rng=np.random.default_rng(38))

    def test_empty_dataset_start_has_the_model_shapes(self):
        spec, _ = toy_setup(35, q=2)
        data0 = Dataset(
            y=np.zeros(0),
            X=np.zeros((0, 2)),
            blocks=(BlockData(Z=np.zeros((0, 2)), groups=np.zeros(0, dtype=int), n_groups=3),),
        )
        engine = GibbsEngine(spec, data0, rng=np.random.default_rng(36))
        start = engine.state
        start.check_dims(engine.dims)
        assert start.blocks[0].xi.shape == (3, 2) and np.all(start.blocks[0].xi != 0.0)
        assert np.all(np.isfinite(start.beta)) and engine.log_likelihood() == 0.0

    def test_gaussian_chains_stay_at_the_data_scale(self):
        # a prior start put sigma2 near 1e86 and held beta1 near 1e43 in every recorded draw at seed 11
        spec, data = toy_setup(0, n=15, n_i=4, kind="gaussian", mode="no-selection")
        for seed in (1, 2, 11):
            spec = replace(spec, sampler=SamplerSettings(chains=2, adapt=25, burnin=10, kept=30, seed=seed))
            for chain in run_chains(spec, data).chains:
                assert np.all(np.abs(chain.beta) < 1e3), seed
                assert np.all(np.isfinite(chain.sigma2)), seed


class TestSliceWidths:
    def test_adapted_widths_are_clipped_running_sd_of_live_draws(self):
        # a coordinate's draws count while it takes slice updates: an included beta or lam, an r entry
        # with both effects in, the NB dispersion on its log scale; pseudo-prior draws of the others do not
        spec, data = toy_setup(25, q=3, kind="negative_binomial")
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(26))
        # every effect starts included, so that every group has live draws from the first scan
        engine.state.J[:] = 1
        engine.state.blocks[0].include[:] = 1
        engine.recompute_caches()
        engine.adapting = True
        sums = {}  # per group: live-draw counts, and sums of the draws and of their squares
        rows, cols = np.tril_indices(3, k=-1)
        for _ in range(40):
            engine.scan()
            st, bs = engine.state, engine.state.blocks[0]
            included = bs.include == 1
            scan_draws = {
                ("beta", None): (st.beta, st.beta**2, st.J == 1),
                ("dispersion", None): (np.log([st.dispersion]), np.log([st.dispersion]) ** 2, True),
                ("lam", 0): (bs.lam, bs.lam**2, included),
                ("r", 0): (bs.r, bs.r**2, included[rows] & included[cols]),
            }
            assert set(engine.widths) == set(scan_draws)
            for key, (x, x2, live) in scan_draws.items():
                count, total, total_sq = sums.setdefault(key, [0, 0.0, 0.0])
                sums[key] = [count + live, total + np.where(live, x, 0.0), total_sq + np.where(live, x2, 0.0)]
            for key, w in engine.widths.items():
                count, total, total_sq = (np.broadcast_to(v, w.width.shape) for v in sums[key])
                ready = count >= 20
                np.testing.assert_array_equal(w.width[~ready], 1.0)
                mean = total[ready] / count[ready]
                sd = np.sqrt(np.maximum(total_sq[ready] / count[ready] - mean**2, 0.0))
                np.testing.assert_allclose(w.width[ready], np.clip(2.5 * sd, 1e-4, 1e4), rtol=1e-12)
        # the dispersion is live in every scan; other coordinates were excluded in some scans, whose draws did not count
        assert engine.widths["dispersion", None].width[0] != 1.0
        assert any(np.any(np.broadcast_to(sums[key][0], w.width.shape) < 40) for key, w in engine.widths.items())

    def test_width_is_the_clipped_running_sd_from_the_20th_draw(self):
        width = engine_module._Width(4)
        rng = np.random.default_rng(27)
        # 30 and 19 draws, then 20 whose 2.5 sd lies below the lower clip and 25 whose 2.5 sd lies above the upper
        draws = [rng.normal(0.0, 0.1, 30), rng.normal(5.0, 2.0, 19), rng.normal(-2.0, 1e-6, 20), rng.normal(0.0, 1e5, 25)]
        for j, xs in enumerate(draws):
            for x in xs:
                width.add(j, float(x))
        np.testing.assert_allclose(width.width[0], 2.5 * draws[0].std(), rtol=1e-10)
        # 19 draws keep the start width; the other two are clipped
        np.testing.assert_array_equal(width.width[1:], [1.0, 1e-4, 1e4])
        assert width.count == [30, 19, 20, 25]

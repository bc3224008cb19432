import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from glmmselect import engine as engine_module
from glmmselect.cholesky import mask_factors
from glmmselect.engine import (
    GibbsEngine,
    gibbs_scan,
    indicator_inclusion_probability,
    update_indicator,
)
from glmmselect.model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelDims,
    ModelSpec,
    RandomBlock,
    SamplerSettings,
    block_predictor,
    linear_predictor_all,
    total_log_likelihood,
)
from glmmselect.errors import NumericError, SamplerError
from glmmselect.families import Family
from glmmselect.priors import log_prior_state, sample_prior
from glmmselect.simulate import build_model_spec, full_scale_design, simulate_dataset

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


class TestIndicatorConditional:
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_two_branch_likelihood_oracle(self, q):
        spec, data = toy_setup(3, q=q)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(1))
        state = engine.state
        for which in [("fixed", 0), ("fixed", 1)] + [("random", 0, k) for k in range(q)]:
            p = indicator_inclusion_probability(which, state, spec, data)
            s_on, s_off = state.copy(), state.copy()
            if which[0] == "fixed":
                s_on.J[which[1]], s_off.J[which[1]] = 1, 0
            else:
                s_on.blocks[0].include[which[2]] = 1
                s_off.blocks[0].include[which[2]] = 0
            ll_on = total_log_likelihood(spec, s_on, data)
            ll_off = total_log_likelihood(spec, s_off, data)
            oracle = expit(ll_on - ll_off)
            assert p == pytest.approx(oracle, abs=1e-12)

    def test_random_flip_delta_matches_full_recompute(self):
        # the flips below move the cached block term by deltas; each check compares it with a recompute
        q = 4
        spec, data = toy_setup(21, q=q)
        # start at this generator's first prior draw, a moderate state: the absolute tolerances below
        # need one, and a feasible start from the search can have a log-likelihood near -1e29
        rng = np.random.default_rng(22)
        start = sample_prior(spec.hyper, ModelDims.of(spec, data), rng)
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
                ll_on, ll_off, set_to = engine._indicator_pair(("random", 0, k))
                s_on, s_off = engine.state.copy(), engine.state.copy()
                s_on.blocks[0].include[k], s_off.blocks[0].include[k] = 1, 0
                want = total_log_likelihood(spec, s_on, data) - total_log_likelihood(spec, s_off, data)
                assert ll_on - ll_off == pytest.approx(want, abs=1e-9)
                free_r_seen |= bs.include.sum() - bs.include[k] >= 1
                set_to(not bs.include[k])
                lam_eff, gamma = mask_factors(bs.lam, bs.r, bs.include)
                fresh = block_predictor(data.blocks[0].Z, data.blocks[0].groups, bs.xi, lam_eff[:, None] * gamma)
                assert np.max(np.abs(engine._eta_block[0] - fresh)) < 1e-9
                assert np.max(np.abs(engine._eta - linear_predictor_all(spec, engine.state, data))) < 1e-9
        # some flip of k happened while another effect was in, so Gamma had a free r entry
        assert free_r_seen

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
            assert indicator_inclusion_probability(("random", 0, k), state, spec, data) == 0.0
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(4), state=state)
            for _ in range(3):
                engine.scan()

    def test_empty_dataset_reproduces_prior(self):
        spec, _ = toy_setup(4)
        data0 = Dataset(
            y=np.zeros(0),
            X=np.zeros((0, 2)),
            blocks=(BlockData(Z=np.zeros((0, 1)), groups=np.zeros(0, dtype=int), n_groups=1),),
        )
        state = sample_prior(spec.hyper, ModelDims.of(spec, data0), np.random.default_rng(5))
        assert indicator_inclusion_probability(("fixed", 0), state, spec, data0) == 0.5
        assert indicator_inclusion_probability(("random", 0, 0), state, spec, data0) == 0.5

    def test_zero_coefficient_is_coin_flip(self):
        spec, data = toy_setup(6)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(2))
        state = engine.state
        state.beta[1] = 0.0
        assert indicator_inclusion_probability(("fixed", 1), state, spec, data) == pytest.approx(0.5)

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
        state = engine.state
        new = update_indicator(("fixed", 1), state, spec, data, np.random.default_rng(11))
        np.testing.assert_array_equal(new.beta, state.beta)
        assert new.J[0] == state.J[0]
        np.testing.assert_array_equal(new.blocks[0].include, state.blocks[0].include)


class TestGibbsScan:
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
        spec, data = toy_setup(10)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(6))
        state = engine.state
        before = state.beta.copy()
        gibbs_scan(state, spec, data, np.random.default_rng(7))
        np.testing.assert_array_equal(state.beta, before)

    @pytest.mark.parametrize("q, seed", [(1, 8), (3, 14)])
    def test_cached_predictor_matches_full_recompute(self, q, seed):
        spec, data = toy_setup(11, q=q)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(seed))
        free_r_seen = q == 1
        for _ in range(25):
            engine.scan()
            cached = engine._eta.copy()
            fresh = linear_predictor_all(spec, engine.state, data)
            assert np.max(np.abs(cached - fresh)) < 1e-9
            free_r_seen |= engine.state.blocks[0].include.sum() >= 2
        # with q = 3 the masked Gamma must have had a free r entry at some scan
        assert free_r_seen

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_posterior_is_likelihood_plus_prior(self, kind):
        spec, data = toy_setup(19, q=2, kind=kind)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(20))
        for _ in range(5):
            engine.scan()
            want = total_log_likelihood(spec, engine.state, data) + log_prior_state(
                spec.hyper, engine.state, kind
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
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(24), assert_invariants=False)
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
        # CDF under scipy's NB pmf and the Gamma(0.01, rate 0.01) prior); an
        # invariant update returns draws with the same distribution
        rng = np.random.default_rng(19)
        n = 60
        eta = rng.normal(1.0, 0.3, n)
        y = rng.negative_binomial(2.0, 2.0 / (2.0 + np.exp(eta))).astype(float)
        data = Dataset(y=y, X=np.ones((n, 1)))
        spec = ModelSpec(family=Family(kind="negative_binomial"), response="y", fixed_effects=("1",))
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(20))
        engine._eta = eta

        log_r = np.linspace(math.log(1e-2), math.log(1e3), 20001)
        r = np.exp(log_r)[:, None]
        log_post = stats.nbinom.logpmf(y, r, r / (r + np.exp(eta))).sum(axis=1)
        log_post += stats.gamma.logpdf(r[:, 0], 0.01, scale=100.0) + log_r  # density of log r
        dens = np.exp(log_post - log_post.max())
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
        cdf /= cdf[-1]

        starts = np.exp(np.interp(rng.random(2000), cdf, log_r))
        draws = np.empty_like(starts)
        for i, start in enumerate(starts):
            engine.state.dispersion = float(start)
            engine._update_dispersion()
            draws[i] = engine.state.dispersion
        assert stats.kstest(np.log(draws), lambda x: np.interp(x, log_r, cdf)).pvalue > 1e-3


def reference_verdict(spec, state, data) -> bool:
    """Whether a state is a valid start, from the full likelihood; a NaN predictor is not."""
    try:
        with np.errstate(all="ignore"):
            return math.isfinite(total_log_likelihood(spec, state, data))
    except NumericError:
        return False


class TestFeasibleStart:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_verdict_matches_full_likelihood(self, kind):
        spec, data = toy_setup(27, q=2, kind=kind)
        spec = replace(spec, hyper=Hyperparameters())  # heavy-tailed slab: many overflowing draws
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(28))
        batch = sample_prior(spec.hyper, engine.dims, np.random.default_rng(29), family_kind=kind, n=32)
        batch.beta[0] = 1e308  # overflows every family: eta reaches inf
        batch.beta[1, 0] = np.nan  # NaN predictor: not a start, where total_log_likelihood raises
        batch.beta[2] = 0.0  # finite for every family
        batch.J[2] = 0
        batch.blocks[0].include[2] = 0
        with pytest.raises(NumericError):
            total_log_likelihood(spec, batch.take(1), data)
        verdict = engine._feasible(batch)
        want = [reference_verdict(spec, batch.take(i), data) for i in range(32)]
        assert verdict.tolist() == want
        assert not want[0] and not want[1] and want[2]

    def test_start_is_first_feasible_candidate(self):
        spec, data = toy_setup(30, q=2)
        spec = replace(spec, hyper=Hyperparameters())
        dims = ModelDims.of(spec, data)
        batch = sample_prior(spec.hyper, dims, np.random.default_rng(31), n=32)
        first = [reference_verdict(spec, batch.take(i), data) for i in range(32)].index(True)
        start = GibbsEngine(spec, data, rng=np.random.default_rng(31)).state
        want = batch.take(first)
        np.testing.assert_array_equal(start.beta, want.beta)
        np.testing.assert_array_equal(start.blocks[0].xi, want.blocks[0].xi)
        np.testing.assert_array_equal(start.blocks[0].include, want.blocks[0].include)

    def test_diagonal_mode_screens_candidates_with_zero_r(self, monkeypatch):
        # candidate 0 overflows only through its r entry, which ssvs-diagonal fixes at 0, so it is feasible
        spec, data = toy_setup(40, q=2, mode="ssvs-diagonal")
        batch = sample_prior(spec.hyper, ModelDims.of(spec, data), np.random.default_rng(41), n=32)
        batch.beta[0] = 0.0
        bs = batch.blocks[0]
        bs.include[0], bs.lam[0], bs.xi[0], bs.r[0] = 1, 1.0, 1.0, 1e200
        monkeypatch.setattr(engine_module, "sample_prior", lambda *args, **kwargs: batch)
        start = GibbsEngine(spec, data, rng=np.random.default_rng(42)).state
        np.testing.assert_array_equal(start.beta, 0.0)
        np.testing.assert_array_equal(start.blocks[0].xi, 1.0)
        assert np.all(start.blocks[0].r == 0.0)

    def test_matches_sequential_rejection_sampler(self):
        # about 0.29 of this model's prior draws are feasible, so the condition shapes the start:
        # included effects with a huge slab value overflow, so inclusion is rarer than its prior 0.5
        spec, data = toy_setup(32, q=2)
        spec = replace(spec, hyper=Hyperparameters())
        dims = ModelDims.of(spec, data)
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(33))
        rng = np.random.default_rng(34)
        n = 3000

        def sequential():
            while True:
                state = sample_prior(spec.hyper, dims, rng)
                if reference_verdict(spec, state, data):
                    return state

        batched = [engine._draw_feasible_start() for _ in range(n)]
        reference = [sequential() for _ in range(n)]

        def marginals(states):
            return {
                "beta1": [s.beta[0] for s in states],
                "log lam1": [math.log(s.blocks[0].lam[0]) for s in states],
                "log kappa2": [math.log(s.blocks[0].kappa[1]) for s in states],
                "xi11": [s.blocks[0].xi[0, 0] for s in states],
            }

        got, ref = marginals(batched), marginals(reference)
        for name in got:
            assert stats.ks_2samp(got[name], ref[name]).pvalue > 1e-3, name

        def patterns(states):
            codes = [int("".join(map(str, np.concatenate([s.J, s.blocks[0].include]))), 2) for s in states]
            return np.bincount(codes, minlength=16)

        table = np.array([patterns(batched), patterns(reference)])
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table).pvalue > 1e-3
        include_rate = np.mean([s.blocks[0].include for s in reference])
        assert include_rate < 0.45  # the condition matters here

    def test_empty_dataset_takes_first_candidate(self):
        spec, _ = toy_setup(35)
        data0 = Dataset(
            y=np.zeros(0),
            X=np.zeros((0, 2)),
            blocks=(BlockData(Z=np.zeros((0, 1)), groups=np.zeros(0, dtype=int), n_groups=1),),
        )
        dims = ModelDims.of(spec, data0)
        want = sample_prior(spec.hyper, dims, np.random.default_rng(36), n=32).take(0)
        start = GibbsEngine(spec, data0, rng=np.random.default_rng(36)).state
        np.testing.assert_array_equal(start.beta, want.beta)
        np.testing.assert_array_equal(start.blocks[0].lam, want.blocks[0].lam)

    def test_infeasible_model_raises_after_budget(self, monkeypatch):
        spec, data = toy_setup(37)
        # exp(eta) overflows at every observation for any prior draw
        data = replace(data, offset=np.full(data.n_obs, 1e300))
        spec = replace(spec, offset="off")
        draws = []

        def counted(*args, n=None, **kwargs):
            draws.append(n)
            return sample_prior(*args, n=n, **kwargs)

        monkeypatch.setattr(engine_module, "sample_prior", counted)
        with pytest.raises(SamplerError, match="20000 draws"):
            GibbsEngine(spec, data, rng=np.random.default_rng(38))
        assert sum(draws) == 20_000


class TestSliceWidths:
    def test_adapted_widths_are_clipped_running_sd(self):
        spec, data = toy_setup(25, q=3, kind="negative_binomial")
        engine = GibbsEngine(spec, data, rng=np.random.default_rng(26))
        engine.adapting = True
        first, second = {}, {}  # per group: per-scan means of the draws and of their squares
        for scan in range(1, 26):
            engine.scan()
            st, bs = engine.state, engine.state.blocks[0]
            scan_draws = {("beta", None): st.beta, ("phi", None): st.phi, ("dispersion", None): np.array([st.dispersion])}
            scan_draws.update({(kind, 0): getattr(bs, kind) for kind in ("lam", "r", "kappa", "m")})
            for key, x in scan_draws.items():
                first.setdefault(key, []).append(x.copy())  # the state's arrays change in place
                second.setdefault(key, []).append(x**2)
            # xi is averaged over groups before it enters the running moments
            first.setdefault(("xi", 0), []).append(bs.xi.mean(axis=0))
            second.setdefault(("xi", 0), []).append((bs.xi**2).mean(axis=0))
            assert set(engine.widths) == set(first)
            for key, w in engine.widths.items():
                if scan < 20:
                    assert np.all(w.width == 1.0)
                    continue
                mean = np.mean(first[key], axis=0)
                sd = np.sqrt(np.maximum(np.mean(second[key], axis=0) - mean**2, 0.0))
                np.testing.assert_allclose(w.width, np.clip(2.5 * sd, 1e-4, 1e4), rtol=1e-12)
        # adaptation moved every width away from its start
        assert all(np.all(w.width != 1.0) for w in engine.widths.values())

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from glmmselect.cholesky import mask_factors
from glmmselect.errors import ConfigurationError, NumericError
from glmmselect.families import CANONICAL_LINKS, Family
from glmmselect.model import (
    BlockData,
    Dataset,
    ModelDims,
    ModelSpec,
    RandomBlock,
    SamplerSettings,
    block_term,
    linear_predictor,
    linear_predictor_all,
    total_log_likelihood,
)
from glmmselect.priors import sample_prior

from oracles import nb_logpmf, poisson_logpmf


def loglik_one(family, y, eta, scale=None):
    """Family.log_likelihood of one observation at a family scale, as a 1-element array."""
    return family.log_likelihood(np.array([y]), np.array([eta]), scale)[0]


def toy_spec(kind="poisson", mode="ssvs-full", blocks=True):
    rb = (RandomBlock(group="g", columns=("1",)),) if blocks else ()
    return ModelSpec(
        family=Family(kind=kind),
        response="y",
        fixed_effects=("1", "x2"),
        random_blocks=rb,
        sampler=SamplerSettings(seed=0),
        mode=mode,
    )


def toy_data(rng, n=12, blocks=True):
    X = rng.standard_normal((n, 2))
    X[:, 0] = 1.0
    bl = ()
    if blocks:
        bl = (BlockData(Z=np.ones((n, 1)), groups=np.arange(n) % 4, n_groups=4),)
    y = rng.poisson(1.0, n).astype(float)
    return Dataset(y=y, X=X, blocks=bl)


class TestFamily:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Family(kind="weibull")

    @pytest.mark.parametrize("kind, link", CANONICAL_LINKS.items())
    def test_link_is_the_kinds_canonical_link(self, kind, link):
        # the link is not a setting: a family holds its kind alone
        assert Family(kind).link == link
        assert [f.name for f in fields(Family)] == ["kind"]
        with pytest.raises(TypeError):
            Family(kind, link)

    def test_dispersion_required_for_nb(self):
        # a model's family has no scale; the likelihood and sampling take it as an argument
        fam = Family(kind="negative_binomial")
        with pytest.raises(ConfigurationError):
            loglik_one(fam, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            fam.sample(np.random.default_rng(0), np.zeros(3))
        with pytest.raises(ConfigurationError):
            loglik_one(fam, 0.0, 0.0, 0.0)
        assert loglik_one(fam, 0.0, 0.0, fam.scale_of(SimpleNamespace(dispersion=1.0))) == pytest.approx(math.log(0.5))

    def test_poisson_zero_at_unit_mean(self):
        assert loglik_one(Family(kind="poisson"), 0.0, 0.0) == pytest.approx(-1.0)

    def test_poisson_reference_value(self):
        # y = 2 at mu = 2, computed directly from the pmf
        expected = poisson_logpmf(2.0, 2.0)
        assert expected == pytest.approx(2 * math.log(2) - 2 - math.log(2))
        got = loglik_one(Family(kind="poisson"), 2.0, math.log(2.0))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nb_reference_value(self):
        # y = 0, mu = 1, r = 1: pmf = (r/(r+mu))^r = 1/2
        expected = nb_logpmf(0.0, 1.0, 1.0)
        assert expected == pytest.approx(math.log(0.5))
        got = loglik_one(Family(kind="negative_binomial"), 0.0, 0.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_gaussian_matches_closed_form(self):
        fam = Family(kind="gaussian")
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, eta = rng.normal(size=2)
            want = -0.5 * math.log(2 * math.pi * 2.5) - (y - eta) ** 2 / 5.0
            assert loglik_one(fam, y, eta, 2.5) == pytest.approx(want, abs=1e-12)

    def test_bernoulli_extreme_eta(self):
        fam = Family(kind="bernoulli")
        assert loglik_one(fam, 1.0, 500.0) == pytest.approx(0.0)
        assert loglik_one(fam, 0.0, 500.0) == -500.0

    def test_nan_eta_raises(self):
        with pytest.raises(NumericError):
            loglik_one(Family(kind="poisson"), 1.0, float("nan"))

    def test_poisson_loglik_maximized_at_mean(self):
        rng = np.random.default_rng(1)
        fam = Family(kind="poisson")
        for _ in range(10):
            y = rng.poisson(3.0, 40).astype(float)
            ybar = max(y.mean(), 1e-3)
            at_mean = fam.log_likelihood(y, np.full(40, math.log(ybar))).sum()
            for mult in (0.5, 0.8, 1.3, 2.0):
                other = fam.log_likelihood(y, np.full(40, math.log(ybar * mult))).sum()
                assert at_mean >= other

    def test_count_validation(self):
        fam = Family(kind="poisson")
        with pytest.raises(ConfigurationError):
            fam.validate_response(np.array([1.0, -2.0]))
        with pytest.raises(ConfigurationError):
            fam.validate_response(np.array([1.5]))
        fam.validate_response(np.array([0.0, 3.0]))

    def test_sampling_cap_counts(self):
        fam = Family(kind="poisson")
        eta = np.array([0.0, 50.0])
        rng = np.random.default_rng(2)
        y = fam.sample(rng, eta)
        assert np.isfinite(y).all()


class TestLinearPredictor:
    def test_zero_case(self):
        rng = np.random.default_rng(3)
        spec = toy_spec()
        data = toy_data(rng)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.beta[:] = 0.0
        for bs in state.blocks:
            bs.xi[:] = 0.0
        assert linear_predictor_all(spec, state, data)[0] == 0.0

    def test_intercept_only(self):
        rng = np.random.default_rng(4)
        spec = toy_spec()
        data = toy_data(rng)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.beta[:] = [2.0, 0.0]
        state.J[:] = [1, 0]
        for bs in state.blocks:
            bs.xi[:] = 0.0
        assert linear_predictor_all(spec, state, data)[5] == pytest.approx(2.0)

    def test_single_random_intercept(self):
        rng = np.random.default_rng(5)
        spec = toy_spec()
        data = toy_data(rng)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.J[:] = 0
        bs = state.blocks[0]
        bs.include[:] = 1
        bs.lam[:] = 0.3
        bs.xi[:] = 0.0
        bs.xi[data.blocks[0].groups[0], 0] = 2.0
        assert linear_predictor_all(spec, state, data)[0] == pytest.approx(0.6)

    def test_masked_coefficient_is_inert(self):
        rng = np.random.default_rng(6)
        spec = toy_spec()
        data = toy_data(rng)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.J[:] = [1, 0]
        eta1 = linear_predictor_all(spec, state, data)
        state.beta[1] = state.beta[1] + 123.0
        eta2 = linear_predictor_all(spec, state, data)
        np.testing.assert_array_equal(eta1, eta2)

    def test_linearity_in_included_coefficients(self):
        rng = np.random.default_rng(7)
        spec = toy_spec()
        data = toy_data(rng)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.J[:] = 1
        eps = 0.5
        base = linear_predictor_all(spec, state, data)
        state.beta[1] += eps
        bumped = linear_predictor_all(spec, state, data)
        np.testing.assert_allclose(bumped - base, eps * data.X[:, 1], atol=1e-12)

    def test_offset_added(self):
        rng = np.random.default_rng(8)
        spec = toy_spec()
        base = toy_data(rng)
        off = rng.standard_normal(base.n_obs)
        data = Dataset(y=base.y, X=base.X, blocks=base.blocks, offset=off)
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        state.beta[:] = [0.4, -0.2]
        state.blocks[0].lam[:] = 0.5
        state.blocks[0].xi[:] = np.clip(state.blocks[0].xi, -2, 2)
        eta_with = linear_predictor_all(spec, state, data)
        eta_without = linear_predictor_all(spec, state, base)
        np.testing.assert_allclose(eta_with - eta_without, off, atol=1e-12)

    def test_sum_of_its_parts_in_order(self):
        rng = np.random.default_rng(9)
        X, beta = rng.standard_normal((7, 2)), rng.standard_normal(2)
        t1, t2, off = rng.standard_normal((3, 7))
        np.testing.assert_array_equal(linear_predictor(X, beta), X @ beta)
        np.testing.assert_array_equal(linear_predictor(X, beta, [t1, t2], off), ((X @ beta + t1) + t2) + off)
        np.testing.assert_array_equal(linear_predictor(X, beta, iter([t1]), None), X @ beta + t1)

    def test_block_term_masks_the_raw_factors(self):
        rng = np.random.default_rng(10)
        bdata = BlockData(Z=rng.standard_normal((8, 3)), groups=np.arange(8) % 4, n_groups=4)
        lam, r, xi = rng.uniform(0.1, 1.0, 3), rng.standard_normal(3), rng.standard_normal((4, 3))
        include = np.array([1, 0, 1], dtype=np.int8)
        lam_eff, gamma = mask_factors(lam, r, include)
        rho = xi @ (lam_eff[:, None] * gamma).T
        want = np.array([bdata.Z[j] @ rho[bdata.groups[j]] for j in range(8)])
        np.testing.assert_array_equal(block_term(bdata, lam, r, include, xi), want)
        include[:] = 0
        np.testing.assert_array_equal(block_term(bdata, lam, r, include, xi), np.zeros(8))


class TestTotalLogLikelihood:
    def test_empty_dataset(self):
        spec = toy_spec(blocks=False)
        data = Dataset(y=np.zeros(0), X=np.zeros((0, 2)))
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), np.random.default_rng(0), spec.family)
        assert total_log_likelihood(spec, state, data) == 0.0

    def test_single_observation(self):
        rng = np.random.default_rng(10)
        spec = toy_spec(blocks=False)
        data = Dataset(y=np.array([2.0]), X=np.array([[1.0, 0.5]]))
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), rng, spec.family)
        eta = linear_predictor_all(spec, state, data)[0]
        want = loglik_one(spec.family, 2.0, eta)
        assert total_log_likelihood(spec, state, data) == pytest.approx(want)

    def test_three_unit_means(self):
        spec = toy_spec(blocks=False)
        data = Dataset(y=np.zeros(3), X=np.column_stack([np.ones(3), np.zeros(3)]))
        state = sample_prior(spec.hyper, ModelDims.of(spec, data), np.random.default_rng(1), spec.family)
        state.beta[:] = 0.0
        assert total_log_likelihood(spec, state, data) == pytest.approx(-3.0)

    def test_dataset_group_bounds(self):
        with pytest.raises(ConfigurationError):
            BlockData(Z=np.ones((3, 1)), groups=np.array([0, 1, 5]), n_groups=2)

"""Whole-scan test after Geweke (2004), "Getting it right".

A successive-conditional simulator alternates one Gibbs scan at data y with a
fresh y ~ p(y | state) at the new state.  When every kernel of the scan leaves
the posterior invariant, the state's marginal stays the prior it started
from, so bounded functions of the state have their prior means.  The model is
a tiny bernoulli GLMM: 6 groups of 4 rows, X = [1, x] and one random block
with Z = X (q = 2, so ssvs-full moves r).  The prior inclusion 0.3 makes a
kernel that drops the prior log-odds visible.  Slice widths stay at 1, and
the kernels are invariant for any width.  Gaussian and negative binomial
copies of the model run in ssvs-full too, so the updates of the family
scale are tested as well, and so does a Poisson copy.  The two log-link
copies take a tighter prior that keeps eta below the cap of the response
draws.

The draws of one simulator are serially correlated, so 40 simulators run
from independent prior draws, and each function's mean over all their scans is
compared with its prior value by a batch-means z-score, with one batch per
simulator.  A kernel without the prior log-odds of the indicators, or with
tau2's conditional shape at nu/2 instead of nu/2 + 1/2, gives |z| of 5 to 22
here.
"""

from dataclasses import replace

import numpy as np
import pytest

from glmmselect.engine import GibbsEngine
from glmmselect.families import Family
from glmmselect.model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelDims,
    ModelSpec,
    RandomBlock,
    fix_mode,
    linear_predictor_all,
)
from glmmselect.priors import sample_prior

N_CHAINS = 40
N_SCANS = 75
Z_MAX = 4.0
PI = 0.3
# the prior of the log-link cases: above ETA_CAP = 30, Family.sample draws a log-link y at the cap, not from the model
LOG_LINK_PRIOR = dict(h=0.003, v=4.0, nu=4.0, g_shrink=30.0)


def tiny_model(mode, kind="bernoulli"):
    """6 groups x 4 rows of a GLMM of family ``kind`` with X = Z = [1, x]; y is a placeholder."""
    x = np.random.default_rng(100).standard_normal(24)
    X = np.column_stack([np.ones(24), x])
    groups = np.repeat(np.arange(6), 4)
    data = Dataset(y=np.zeros(24), X=X, blocks=(BlockData(Z=X, groups=groups, n_groups=6),))
    spec = ModelSpec(
        family=Family(kind=kind),
        response="y",
        fixed_effects=("1", "x"),
        random_blocks=(RandomBlock(group="g", columns=("1", "x")),),
        hyper=Hyperparameters(v=1.0, nu=1.0, prior_inclusion=PI),
        mode=mode,
    )
    return spec, data


def prior_medians(spec, data):
    """Medians of lam, tau2 and kappa under the prior of ``spec``, from 20,000 iid ``sample_prior`` draws; no mode changes them."""
    rng = np.random.default_rng(7)
    dims = ModelDims.of(spec, data)
    draws = [sample_prior(spec.hyper, dims, rng, spec.family).blocks[0] for _ in range(20_000)]
    return {name: np.median([getattr(bs, name) for bs in draws]) for name in ("lam", "tau2", "kappa")}


@pytest.fixture(scope="module")
def medians():
    return prior_medians(*tiny_model("ssvs-full"))


def successive_conditional(spec, data, medians, n_chains, n_scans, seed):
    """The test functions of every state of ``n_chains`` simulators, (n_chains, n_scans, ...), and their r draws.

    Each simulator starts at its own prior draw.  The functions are J, I,
    1{beta > 0} and 1{lam, tau2, kappa below their prior ``medians``}, and
    1{scale below ``medians["scale"]``} for a family with a scale.
    """
    rng = np.random.default_rng(seed)
    family = spec.family
    rows, r = [], []
    for _ in range(n_chains):
        state = fix_mode(sample_prior(spec.hyper, ModelDims.of(spec, data), rng, family), spec.mode)
        y = family.sample(rng, linear_predictor_all(spec, state, data), family.scale_of(state))
        for _ in range(n_scans):
            engine = GibbsEngine(spec, replace(data, y=y), rng=rng, state=state)
            engine.scan()
            state = engine.state
            y = family.sample(rng, linear_predictor_all(spec, state, data), family.scale_of(state))
            bs = state.blocks[0]
            scale = [] if family.scale is None else [[family.scale_of(state) < medians["scale"]]]
            rows.append(np.concatenate([
                state.J, bs.include, state.beta > 0,
                *(getattr(bs, name) < medians[name] for name in ("lam", "tau2", "kappa")), *scale,
            ]))
            r.append(bs.r.copy())
    return np.array(rows, dtype=float).reshape(n_chains, n_scans, -1), np.array(r).reshape(n_chains, n_scans, -1)


def chain_z(series, expected):
    """z-score of each test function's mean against its expected value, with the chains' means as batches."""
    means = series.mean(axis=1)
    se = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (means.mean(axis=0) - expected) / se


def assert_scan_keeps_the_prior(spec, data, medians):
    mode = spec.mode
    rows, r = successive_conditional(spec, data, medians, N_CHAINS, N_SCANS, seed=1)
    expected = np.full(rows.shape[-1], 0.5)
    expected[:4] = PI  # J_1, J_2, I_1, I_2
    if mode == "no-selection":
        assert np.all(rows[..., :4] == 1.0)
        rows, expected = rows[..., 4:], expected[4:]
    if mode == "ssvs-diagonal":
        assert np.all(r == 0.0)
    else:
        rows, expected = np.concatenate([rows, r > 0], axis=-1), np.append(expected, 0.5)
    z = chain_z(rows, expected)
    assert np.all(np.abs(z) < Z_MAX), np.round(z, 2)


@pytest.mark.parametrize("mode", ["ssvs-full", "ssvs-diagonal", "no-selection"])
def test_scan_keeps_the_prior(mode, medians):
    assert_scan_keeps_the_prior(*tiny_model(mode), medians)


@pytest.mark.parametrize("kind", ["gaussian", "negative_binomial"])
def test_scan_keeps_the_prior_with_a_family_scale(kind, medians):
    """ssvs-full with the gaussian sigma2 or the NB dispersion at its default prior; the scale's prior median comes from 20,000 draws.

    The NB case takes the Poisson case's ``LOG_LINK_PRIOR``, under which 5
    of 20,000 prior draws (seed 11) put max |eta| above ``ETA_CAP``; at the
    bernoulli cases' prior 10.3% did.
    """
    spec, data = tiny_model("ssvs-full", kind)
    if kind == "negative_binomial":
        spec = replace(spec, hyper=replace(spec.hyper, **LOG_LINK_PRIOR))
        medians = prior_medians(spec, data)
    scale_median = np.median(spec.family.scale.draw_prior(np.random.default_rng(8), 20_000))
    assert_scan_keeps_the_prior(spec, data, dict(medians, scale=scale_median))


def test_scan_keeps_the_prior_of_a_poisson_model():
    """ssvs-full poisson at h = 0.003, v = nu = 4 and g_shrink = 30.

    Above ``ETA_CAP`` = 30, ``Family.sample`` draws a log-link y at the cap
    and not from the model, and at the other cases' prior (h = g_shrink = 1,
    v = nu = 1) 10% of prior draws put max |eta| above it.  At this prior 4
    and 6 of 20,000 draws did (seeds 11 and 12), 9 of the 10 through the
    random block's term, whose xi variance kappa no hyperparameter scales.
    """
    spec, data = tiny_model("ssvs-full", "poisson")
    spec = replace(spec, hyper=replace(spec.hyper, **LOG_LINK_PRIOR))
    assert_scan_keeps_the_prior(spec, data, prior_medians(spec, data))

import math

import numpy as np
import pytest

from glmmselect.errors import ConfigurationError
from glmmselect.families import Family
from glmmselect.model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelSpec,
    RandomBlock,
    SamplerSettings,
)
from glmmselect.ppc import (
    MEAN_SD_COLUMNS,
    ROOTOGRAM_COLUMNS,
    ROOTOGRAM_MAX_COUNT,
    mean_sd_scatter,
    replicate_data,
    rootogram,
)
from glmmselect.sampler import run_chains


def fitted_setup(seed=0, kept=60, kind="poisson"):
    rng = np.random.default_rng(seed)
    n, n_i = 8, 4
    n_obs = n * n_i
    X = rng.standard_normal((n_obs, 2))
    X[:, 0] = 1.0
    groups = np.repeat(np.arange(n), n_i)
    y = rng.poisson(2.0, n_obs).astype(float)
    if kind == "bernoulli":
        y = np.minimum(y, 1.0)
    data = Dataset(
        y=y,
        X=X,
        blocks=(BlockData(Z=X[:, :1], groups=groups, n_groups=n),),
    )
    spec = ModelSpec(
        family=Family(kind=kind),
        response="y",
        fixed_effects=("1", "x2"),
        random_blocks=(RandomBlock(group="g", columns=("1",)),),
        hyper=Hyperparameters(v=1.0, nu=1.0),
        sampler=SamplerSettings(chains=2, adapt=20, burnin=20, kept=kept, seed=seed),
    )
    trace = run_chains(spec, data)
    return spec, data, trace


class TestReplicateData:
    def test_shape_and_counts(self):
        spec, data, trace = fitted_setup(1)
        reps = replicate_data(trace, spec, data, 25, np.random.default_rng(0))
        assert reps.shape == (25, data.n_obs)
        assert np.all(reps >= 0)
        assert np.all(reps == np.floor(reps))

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial", "gaussian", "bernoulli"])
    def test_draws_on_family_support(self, kind):
        spec, data, trace = fitted_setup(8, kept=20, kind=kind)
        for conditional in (True, False):
            reps = replicate_data(trace, spec, data, 15, np.random.default_rng(9), conditional)
            assert reps.shape == (15, data.n_obs)
            assert np.all(np.isfinite(reps))
            if kind == "gaussian":
                assert len(np.unique(reps)) == reps.size
            else:
                assert np.all(reps >= 0) and np.all(reps == np.floor(reps))
            if kind == "bernoulli":
                assert set(np.unique(reps)) <= {0.0, 1.0}

    def test_n_rep_zero(self):
        spec, data, trace = fitted_setup(2)
        reps = replicate_data(trace, spec, data, 0, np.random.default_rng(0))
        assert reps.shape == (0, data.n_obs)

    def test_negative_n_rep_raises(self):
        spec, data, trace = fitted_setup(2, kept=5)
        with pytest.raises(ConfigurationError, match="replicates must be >= 0"):
            replicate_data(trace, spec, data, -2, np.random.default_rng(0))

    def test_seeded_determinism(self):
        spec, data, trace = fitted_setup(3)
        r1 = replicate_data(trace, spec, data, 10, np.random.default_rng(5))
        r2 = replicate_data(trace, spec, data, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(r1, r2)

    def test_degenerate_posterior_unit_mean(self):
        # single repeated state with eta = 0 everywhere: replicate means -> 1
        spec, data, trace = fitted_setup(4)
        chain = trace.chains[0]
        chain.beta[:] = 0.0
        chain.J[:] = 0
        for bi in range(1):
            chain.include[bi][:] = 0
            chain.xi[bi][:] = 0.0
        trace.chains = [chain]
        reps = replicate_data(trace, spec, data, 400, np.random.default_rng(6))
        assert reps.mean() == pytest.approx(1.0, abs=3.5 / math.sqrt(400 * data.n_obs))

    def test_marginal_mode_draws_fresh_effects(self):
        spec, data, trace = fitted_setup(5)
        cond = replicate_data(trace, spec, data, 10, np.random.default_rng(7), conditional=True)
        marg = replicate_data(trace, spec, data, 10, np.random.default_rng(7), conditional=False)
        assert not np.array_equal(cond, marg)


def bins_of(observed, replicated, max_count):
    """The rootogram's rows as dicts keyed by its columns."""
    return [dict(zip(ROOTOGRAM_COLUMNS, row, strict=True)) for row in rootogram(observed, replicated, max_count)]


class TestRootogram:
    def test_rows_under_the_columns(self):
        # one (count, observed, expected, sqrt_observed, sqrt_expected) row per bin, the tail bin last
        rows = rootogram(np.array([0, 1, 1, 5]), np.array([[0, 0, 1, 2], [1, 1, 1, 9]]), max_count=2)
        assert ROOTOGRAM_COLUMNS == ("count", "observed", "expected", "sqrt_observed", "sqrt_expected")
        assert rows == [
            (0, 1.0, 1.0, 1.0, 1.0),
            (1, 2.0, 2.0, math.sqrt(2.0), math.sqrt(2.0)),
            (2, 0.0, 0.5, 0.0, math.sqrt(0.5)),
            (">2", 1.0, 0.5, 1.0, math.sqrt(0.5)),
        ]
        assert all(type(v) is float for row in rows for v in row[1:])

    def test_all_zero_single_bin(self):
        bins = bins_of(np.zeros(10), np.zeros((3, 10)), max_count=0)
        assert bins[0]["observed"] == 10
        assert bins[0]["expected"] == 10
        assert bins[1]["observed"] == 0  # tail bin

    def test_poisson_reference_frequencies(self):
        rng = np.random.default_rng(8)
        n = 10_000
        y = rng.poisson(1.0, n)
        bins = bins_of(y, np.zeros((0, n)), max_count=8)
        for c in (0, 1):
            p = math.exp(-1.0) / math.factorial(c)
            se = math.sqrt(n * p * (1 - p))
            assert abs(bins[c]["observed"] - n * p) < 3.5 * se

    def test_conservation_with_tail(self):
        rng = np.random.default_rng(9)
        y = rng.poisson(5.0, 500)
        reps = rng.poisson(5.0, (7, 500))
        bins = bins_of(y, reps, max_count=3)
        assert sum(b["observed"] for b in bins) == 500
        assert sum(b["expected"] for b in bins) == pytest.approx(500.0)

    def test_sqrt_scale(self):
        bins = bins_of(np.array([0, 0, 1, 2]), np.zeros((0, 4)), max_count=2)
        assert bins[0]["sqrt_observed"] == pytest.approx(math.sqrt(2.0))

    def test_expected_is_the_mean_of_the_replicate_frequencies(self):
        # the frequencies of all replicates together, divided once, equal the mean of each replicate's bit for bit
        rng = np.random.default_rng(10)
        for _ in range(50):
            n_rep, n, max_count = rng.integers(1, 40), rng.integers(1, 30), rng.integers(0, 12)
            reps = rng.poisson(rng.uniform(0.1, 15.0), (n_rep, n))
            per_rep = [np.bincount(np.minimum(rep, max_count + 1), minlength=max_count + 2) for rep in reps]
            want = np.mean(np.array(per_rep, dtype=float), axis=0)
            got = np.array([b["expected"] for b in bins_of(reps[0], reps, max_count)])
            assert got.tobytes() == want.tobytes()

    def test_max_count_is_bounded(self):
        # a count far past the bound falls in the tail bin; a max_count past it is refused before any bin is made
        y = np.array([0.0, 3.0, 1.1e14])
        bins = bins_of(y, np.array([y, y]), ROOTOGRAM_MAX_COUNT)
        assert len(bins) == ROOTOGRAM_MAX_COUNT + 2
        assert bins[-1]["count"] == f">{ROOTOGRAM_MAX_COUNT}"
        assert bins[-1]["observed"] == bins[-1]["expected"] == 1.0
        for max_count in (-1, ROOTOGRAM_MAX_COUNT + 1, 110_000_000_000_000):
            with pytest.raises(ConfigurationError, match=rf"max_count must be in \[0, {ROOTOGRAM_MAX_COUNT}\], got {max_count}"):
                rootogram(y, np.array([y]), max_count)

    def test_non_count_rejected(self):
        with pytest.raises(ConfigurationError):
            rootogram(np.array([0.5]), np.zeros((0, 1)), max_count=2)
        with pytest.raises(ConfigurationError):
            rootogram(np.array([-1.0]), np.zeros((0, 1)), max_count=2)


class TestMeanSd:
    def test_rows_under_the_columns(self):
        # one (i, mean, sd) row per replicate, then the observed row
        rows = mean_sd_scatter(np.array([1.0, 2.0, 6.0]), np.array([[0.0, 2.0, 4.0], [3.0, 3.0, 3.0]]))
        assert MEAN_SD_COLUMNS == ("replicate", "mean", "sd")
        assert rows == [(1, 2.0, 2.0), (2, 3.0, 0.0), ("observed", 3.0, math.sqrt(7.0))]
        assert all(type(v) is float for row in rows for v in row[1:])

    def test_constant_replicate(self):
        (_, mean, sd), _ = mean_sd_scatter(np.arange(6.0), np.full((1, 6), 3.0))
        assert mean == 3.0
        assert sd == 0.0

    def test_two_point_replicate(self):
        (_, mean, sd), _ = mean_sd_scatter(np.zeros(2), np.array([[0.0, 2.0]]))
        assert mean == pytest.approx(1.0)
        assert sd == pytest.approx(math.sqrt(2.0))

    def test_observed_row_echo(self):
        y = np.array([1.0, 2.0, 6.0])
        *_, (label, mean, sd) = mean_sd_scatter(y, np.zeros((2, 3)))
        assert label == "observed"
        assert mean == pytest.approx(y.mean())
        assert sd == pytest.approx(y.std(ddof=1))

    def test_no_replicates_leaves_the_observed_row(self):
        assert mean_sd_scatter(np.array([1.0, 3.0]), np.zeros((0, 2))) == [("observed", 2.0, math.sqrt(2.0))]

    def test_short_replicate_rejected(self):
        with pytest.raises(ConfigurationError, match="replicates need at least 2"):
            mean_sd_scatter(np.zeros(2), np.zeros((2, 1)))
        with pytest.raises(ConfigurationError, match="observed set needs at least 2"):
            mean_sd_scatter(np.zeros(1), np.zeros((2, 3)))

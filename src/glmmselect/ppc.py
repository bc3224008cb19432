"""Posterior predictive checking: replicated responses, rootogram data, and
mean/sd scatter statistics.

Replication is conditional by default: each replicate reuses the sampled
latent effects of its posterior draw, so the comparison targets in-sample fit.
Marginal replication (fresh latent effects from their fitted variances) is
available via ``conditional=False``.  The summaries return the rows of
rootogram.csv and mean_sd.csv, under ``ROOTOGRAM_COLUMNS`` and ``MEAN_SD_COLUMNS``.
"""

import numpy as np

from .errors import ConfigurationError
from .families import as_counts
from .model import Dataset, ModelSpec, block_term, linear_predictor
from .priors import draw_xi

__all__ = ["MEAN_SD_COLUMNS", "ROOTOGRAM_COLUMNS", "ROOTOGRAM_MAX_COUNT", "replicate_data", "rootogram", "mean_sd_scatter"]

# the largest max_count of a rootogram, and the cap on the CLI's default max(y): one bin per count up to it
ROOTOGRAM_MAX_COUNT = 10_000

ROOTOGRAM_COLUMNS = ("count", "observed", "expected", "sqrt_observed", "sqrt_expected")
MEAN_SD_COLUMNS = ("replicate", "mean", "sd")


def _draw_eta(data: Dataset, chain, i: int, rng, conditional: bool) -> np.ndarray:
    terms = []
    for bi, bdata in enumerate(data.blocks):
        xi = chain.xi[bi][i] if conditional else draw_xi(rng, chain.kappa[bi][i], bdata.n_groups)
        terms.append(block_term(bdata, chain.lam[bi][i], chain.r[bi][i], chain.include[bi][i], xi))
    return linear_predictor(data.X, chain.beta[i] * chain.J[i], terms, data.offset)


def replicate_data(
    trace,
    spec: ModelSpec,
    data: Dataset,
    n_rep: int,
    rng: np.random.Generator,
    conditional: bool = True,
) -> np.ndarray:
    """Simulate responses at the observed designs from sampled posterior draws.

    Returns an (n_rep, n_obs) array; rows correspond to posterior draws
    sampled uniformly (with replacement) across chains.
    """
    if n_rep < 0:
        raise ConfigurationError(f"the number of replicates must be >= 0, got {n_rep}")
    totals = [c.n_recorded for c in trace.chains]
    total = sum(totals)
    if total == 0:
        raise ConfigurationError("empty trace")
    if n_rep == 0:
        return np.zeros((0, data.n_obs))
    bounds = np.cumsum([0] + totals)
    out = np.zeros((n_rep, data.n_obs))
    fam = spec.family
    picks = rng.integers(0, total, size=n_rep)
    for row, flat in enumerate(picks):
        ci = int(np.searchsorted(bounds, flat, side="right") - 1)
        i = int(flat - bounds[ci])
        chain = trace.chains[ci]
        eta = _draw_eta(data, chain, i, rng, conditional)
        out[row] = fam.sample(rng, eta, fam.scale_of(chain, i))
    return out


def rootogram(observed: np.ndarray, replicated: np.ndarray, max_count: int) -> list:
    """Observed vs mean-expected frequencies per count value, with a tail bin.

    Rows under :data:`ROOTOGRAM_COLUMNS` for counts 0..max_count, then one
    labelled ">max_count" for the counts above; each frequency column sums to
    the number of observations.  The expected frequencies are those of all
    replicates together, divided by their number.  ``max_count`` must lie in
    [0, ``ROOTOGRAM_MAX_COUNT``].
    """
    obs_k, rep_k = as_counts(observed), as_counts(replicated)
    for k, name in ((obs_k, "observed"), (rep_k, "replicated")):
        if k is None:
            raise ConfigurationError(f"rootogram requires nonnegative integer {name} counts")
    if not 0 <= max_count <= ROOTOGRAM_MAX_COUNT:
        raise ConfigurationError(f"max_count must be in [0, {ROOTOGRAM_MAX_COUNT}], got {max_count}")

    def freqs(values):
        return np.bincount(np.minimum(values.ravel(), max_count + 1), minlength=max_count + 2).astype(float)

    obs_f = freqs(obs_k)
    exp_f = freqs(rep_k) / rep_k.shape[0] if rep_k.size else np.zeros(max_count + 2)
    labels = [*range(max_count + 1), f">{max_count}"]
    return list(zip(labels, obs_f.tolist(), exp_f.tolist(), np.sqrt(obs_f).tolist(), np.sqrt(exp_f).tolist()))


def mean_sd_scatter(observed: np.ndarray, replicated: np.ndarray) -> list:
    """Rows under :data:`MEAN_SD_COLUMNS`: (i, mean, sd) of replicate i, then ("observed", mean, sd); sd divides by n-1."""
    observed = np.asarray(observed, dtype=float)
    replicated = np.asarray(replicated, dtype=float)
    if observed.size < 2:
        raise ConfigurationError("observed set needs at least 2 observations")
    if replicated.ndim != 2:
        raise ConfigurationError("replicated sets must be 2-dimensional")
    if replicated.shape[1] < 2:
        raise ConfigurationError("replicates need at least 2 observations for an sd")
    means, sds = replicated.mean(axis=1).tolist(), replicated.std(axis=1, ddof=1).tolist()
    observed_row = ("observed", float(observed.mean()), float(observed.std(ddof=1)))
    return [*zip(range(1, len(means) + 1), means, sds), observed_row]

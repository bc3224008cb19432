"""Posterior predictive checking: replicated responses, rootogram data, and
mean/sd scatter statistics.

Replication is conditional by default: each replicate reuses the sampled
latent effects of its posterior draw, so the comparison targets in-sample fit.
Marginal replication (fresh latent effects from their fitted variances) is
available via ``conditional=False``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import Dataset, ModelSpec, linear_predictor
from .priors import draw_xi

__all__ = ["PpcSummary", "replicate_data", "rootogram", "mean_sd_scatter"]


@dataclass
class PpcSummary:
    """Replicate (mean, sd) pairs and the observed pair."""

    pairs: np.ndarray     # (n_rep, 2) replicate means and sds
    observed_pair: tuple


def _draw_eta(data: Dataset, chain, i: int, rng, conditional: bool) -> np.ndarray:
    blocks = []
    for bi, bdata in enumerate(data.blocks):
        if conditional:
            xi = chain.xi[bi][i]
        else:
            xi = draw_xi(rng, chain.kappa[bi][i], bdata.n_groups)
        blocks.append((chain.lam[bi][i], chain.r[bi][i], chain.include[bi][i], xi))
    return linear_predictor(data, chain.beta[i] * chain.J[i], blocks)


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
    if n_rep == 0:
        return np.zeros((0, data.n_obs))
    totals = [c.n_recorded for c in trace.chains]
    total = sum(totals)
    if total == 0:
        raise ConfigurationError("empty trace")
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

    Frequencies for c = 0..max_count plus one aggregate bin for counts above
    max_count; both raw and square-root scales are reported.  Every bin set
    sums to the number of observations.
    """
    observed = np.asarray(observed)
    replicated = np.asarray(replicated, dtype=float)
    for arr, name in ((observed, "observed"), (replicated, "replicated")):
        if np.any(arr < 0) or np.any(arr != np.floor(arr)):
            raise ConfigurationError(f"rootogram requires nonnegative integer {name} counts")
    if max_count < 0:
        raise ConfigurationError("max_count must be >= 0")

    def freqs(values):
        values = values.astype(np.int64)
        counts = np.bincount(np.minimum(values, max_count + 1), minlength=max_count + 2)
        return counts.astype(float)

    obs_f = freqs(observed.ravel())
    if replicated.size:
        exp_f = np.mean([freqs(rep) for rep in replicated], axis=0)
    else:
        exp_f = np.zeros(max_count + 2)
    bins = []
    for c in range(max_count + 2):
        label = c if c <= max_count else f">{max_count}"
        bins.append(
            {
                "count": label,
                "observed": float(obs_f[c]),
                "expected": float(exp_f[c]),
                "sqrt_observed": float(np.sqrt(obs_f[c])),
                "sqrt_expected": float(np.sqrt(exp_f[c])),
            }
        )
    return bins


def mean_sd_scatter(replicated: np.ndarray, observed: np.ndarray | None = None) -> PpcSummary:
    """Sample mean and sd (denominator n-1) of each replicate, plus the observed pair."""
    replicated = np.asarray(replicated, dtype=float)
    if replicated.ndim != 2:
        raise ConfigurationError("replicated sets must be 2-dimensional")
    if replicated.shape[0] and replicated.shape[1] < 2:
        raise ConfigurationError("replicates need at least 2 observations for an sd")
    pairs = np.column_stack(
        [replicated.mean(axis=1), replicated.std(axis=1, ddof=1)]
    ) if replicated.shape[0] else np.zeros((0, 2))
    obs_pair = (float("nan"), float("nan"))
    if observed is not None:
        observed = np.asarray(observed, dtype=float)
        if observed.size < 2:
            raise ConfigurationError("observed set needs at least 2 observations")
        obs_pair = (float(observed.mean()), float(observed.std(ddof=1)))
    return PpcSummary(pairs=pairs, observed_pair=obs_pair)

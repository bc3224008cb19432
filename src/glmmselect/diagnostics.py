"""Convergence diagnostics: split R-hat and autocorrelation-based ESS."""

import numpy as np

from .errors import ConfigurationError

__all__ = ["DIAGNOSTIC_COLUMNS", "gelman_rubin", "effective_sample_size", "trace_gelman_rubin", "trace_ess", "summarize_trace"]

ESS_INFLATION_CAP = 1.5
# diagnostics.csv, the rows of summarize_trace
DIAGNOSTIC_COLUMNS = ("parameter", "mean", "sd", "rhat", "ess")


def _as_chain_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ConfigurationError("expected draws shaped (chains, iterations)")
    return x


def gelman_rubin(x) -> float:
    """Split-chain potential scale reduction factor.

    ``x`` has shape (chains, draws); each chain is split in half.  Returns 1.0
    by convention when there is no variance anywhere.
    """
    x = _as_chain_matrix(x)
    n = x.shape[1]
    if n < 4:
        raise ConfigurationError("need at least 4 draws per chain for split R-hat")
    half = n // 2
    splits = []
    for chain in x:
        splits.append(chain[:half])
        splits.append(chain[half : 2 * half])
    s = np.asarray(splits)
    m, length = s.shape
    chain_means = s.mean(axis=1)
    w = s.var(axis=1, ddof=1).mean()
    if w == 0.0:
        return 1.0
    b = length * chain_means.var(ddof=1)
    var_plus = (length - 1) / length * w + b / length
    return float(np.sqrt(var_plus / w))


def _autocovariance(chain: np.ndarray) -> np.ndarray:
    n = chain.size
    centered = chain - chain.mean()
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def effective_sample_size(x) -> float:
    """ESS via Geyer's initial monotone positive sequence estimator.

    Accepts (chains, draws) or a single 1-d series.  A constant series is
    defined to have ESS equal to the total number of draws.
    """
    x = _as_chain_matrix(x)
    m, n = x.shape
    total = m * n
    if n < 8:
        raise ConfigurationError("need at least 8 draws for ESS")
    chain_vars = x.var(axis=1, ddof=1)
    if np.all(chain_vars == 0.0):
        return float(total)
    acov = np.mean([_autocovariance(chain) for chain in x], axis=0)
    w = chain_vars.mean() * (n - 1) / n
    if m > 1:
        b_over_n = x.mean(axis=1).var(ddof=1)
        var_plus = w + b_over_n
    else:
        var_plus = w * n / (n - 1)
    rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0

    # pair up lags; keep while the sums stay positive, enforce monotonicity
    max_pairs = (n - 1) // 2
    tau = 0.0
    prev = np.inf
    for k in range(max_pairs):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        prev = pair
        tau += pair
    tau = max(2.0 * tau - 1.0, 1.0 / ESS_INFLATION_CAP)
    return float(min(total / tau, total * ESS_INFLATION_CAP))


def trace_gelman_rubin(trace, name: str) -> float:
    return gelman_rubin(trace.scalar_matrix(name))


def trace_ess(trace, name: str) -> float:
    return effective_sample_size(trace.scalar_matrix(name))


def summarize_trace(trace) -> list:
    """Rows under :data:`DIAGNOSTIC_COLUMNS`, one per trace column but the xi ones."""
    rows = []
    for name in (n for n in trace.column_names() if not n.startswith("xi")):
        x = trace.scalar_matrix(name)
        pooled = x.reshape(-1)
        try:
            rhat = gelman_rubin(x)
        except ConfigurationError:
            rhat = float("nan")
        try:
            ess = effective_sample_size(x)
        except ConfigurationError:
            ess = float("nan")
        rows.append((name, float(pooled.mean()), float(pooled.std(ddof=1) if pooled.size > 1 else 0.0), rhat, ess))
    return rows

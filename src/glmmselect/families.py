"""Response families and link functions.

Supported kind/link pairs are the canonical ones: poisson/log,
negative_binomial/log, bernoulli/logit, gaussian/identity.  The negative
binomial uses the mean/overdispersion convention Var = mu + mu^2/r_disp.

This module is the one home of what differs by kind, and :class:`Family` is
the only way to look a kind up: callers pass the family, never its kind
string.  A family owns its link (the canonical one of its kind) and
normalized log-density; the per-observation kernel w y eta - A(y, eta,
scale), with w = 1 for the count kinds and w = 0 for the gaussian, whose A
is its residual term; response sampling and validation; whether responses
are counts; and the name of its scale: the ParameterState field holding the
family scale (``dispersion`` for the negative binomial, ``sigma2`` for the
gaussian, none otherwise), which also names its trace column, picks the
engine's scale update and keys the scale's prior in :mod:`glmmselect.priors`.
The scale's value is an argument of the likelihood and the sampler, never a
field of the family.

The count likelihoods' one normalizer is :func:`log_rising_factorial`, log
Gamma(k + r) - log Gamma(r) = sum_{j < k} log(r + j) for counts k: Poisson
subtracts it at r = 1, the negative binomial adds it at its r and subtracts
it at r = 1.  It is a cumulative sum over 0..max(k) that stops at
``_LGAMMA_TABLE`` entries, and larger counts take Stirling's series.  It
needs no SciPy, whose ``special`` module took 0.18 s to import, a third of
every CLI command's start-up; scalar shifts take ``math.lgamma``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = ["Family", "CANONICAL_LINKS", "ETA_CAP"]

CANONICAL_LINKS = {
    "poisson": "log",
    "negative_binomial": "log",
    "bernoulli": "logit",
    "gaussian": "identity",
}

# the ParameterState field holding each scaled kind's scale
_SCALE_FIELDS = {"negative_binomial": "dispersion", "gaussian": "sigma2"}

# responses of a log-link family are drawn at eta capped here, so exp(eta) stays a usable count mean
ETA_CAP = 30.0
_MEAN_CAP = math.exp(ETA_CAP)

# log_rising_factorial tables counts below this bound and takes Stirling's series from it on
_LGAMMA_TABLE = 256
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log k! for k < _LGAMMA_TABLE: the table of r = 1, built once
_LOG_FACTORIAL = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, _LGAMMA_TABLE)))))


def _stirling_lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) by Stirling's series to its x^-3 term.

    For x >= 256 the next term, 1 / (1260 x^5), is below 1e-15, under a
    hundredth of the rounding unit of log Gamma(256).
    """
    inv = 1.0 / x
    return (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + inv * (1.0 / 12.0 - inv * inv / 360.0)


def as_counts(y) -> np.ndarray | None:
    """``y`` as an int64 array when every entry is a nonnegative integer below 2**63, else None.

    This is the one count rule: the families' response check, the count
    log-likelihoods and the rootogram all read it.  From 2**63 up a float
    has no int64 value, so such a ``y`` is not a count here.
    """
    y = np.asarray(y, dtype=float)
    if np.all((y >= 0.0) & (y < 2.0**63) & (y == np.floor(y))):  # NaN fails each test
        return y.astype(np.int64)
    return None


def log_rising_factorial(k: np.ndarray | None, r: float = 1.0) -> np.ndarray:
    """log Gamma(k + r) - log Gamma(r) = sum_{j < k} log(r + j), for the counts k of :func:`as_counts` and a scalar r > 0.

    Counts below ``_LGAMMA_TABLE`` index the cumulative sum over 0..max(k),
    cached for r = 1; larger counts take Stirling's series, so the table
    never grows past the bound.  ``k`` None, the answer of :func:`as_counts`
    for a non-count, raises ConfigurationError.
    """
    if k is None:
        raise ConfigurationError("log-gamma of counts needs nonnegative integer y below 2**63")
    top = int(k.max()) + 1 if k.size else 1
    if top > _LGAMMA_TABLE:
        out = log_rising_factorial(np.minimum(k, _LGAMMA_TABLE - 1), r)
        big = k >= _LGAMMA_TABLE
        out[big] = _stirling_lgamma(k[big] + r) - math.lgamma(r)
        return out
    if r == 1.0:
        return _LOG_FACTORIAL[k]
    table = np.zeros(top)
    np.log(np.arange(top - 1) + r, out=table[1:])
    return np.add.accumulate(table, out=table)[k]


@dataclass(frozen=True)
class Family:
    """Response distribution plus its canonical link.

    The family scale (the NB overdispersion r_disp or the gaussian residual
    variance sigma^2) is a sampled parameter, not part of the family: the
    likelihood and sampling methods take it as ``scale``, and
    :meth:`scale_of` reads it from a state or a trace draw.  Kinds without a
    scale ignore the argument.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in CANONICAL_LINKS:
            raise ConfigurationError(f"unsupported family kind {self.kind!r}")

    @property
    def link(self) -> str:
        """The canonical link of the kind, the only one supported."""
        return CANONICAL_LINKS[self.kind]

    @property
    def scale(self) -> str | None:
        """The name of the state field holding the family scale, None for kinds without one."""
        return _SCALE_FIELDS.get(self.kind)

    @property
    def counts(self) -> bool:
        """Whether responses are nonnegative integer counts."""
        return self.kind != "gaussian"

    def scale_of(self, source, index=None):
        """The scale held by ``source``: a ParameterState, or a ChainTrace and draw ``index``.

        None for kinds without a scale.
        """
        if self.scale is None:
            return None
        value = getattr(source, self.scale)
        return value if index is None else value[index]

    def _check_scale(self, scale) -> None:
        if self.scale is None:
            return
        if scale is None:
            raise ConfigurationError(f"family {self.kind!r} needs its scale")
        if not np.all(np.asarray(scale) > 0):
            raise ConfigurationError(f"family {self.kind!r} requires a positive scale")

    def mean(self, eta: np.ndarray) -> np.ndarray:
        """Inverse link applied to the linear predictor."""
        eta = np.asarray(eta, dtype=float)
        if self.link == "log":
            with np.errstate(over="ignore"):
                return np.exp(eta)
        if self.link == "logit":
            with np.errstate(over="ignore"):  # exp(-eta) = inf gives mean 0
                return 1.0 / (1.0 + np.exp(-eta))
        return eta

    @property
    def kernel_w(self) -> float:
        """The weight w of the term w y eta in :meth:`log_kernel`: 1, or 0 for the gaussian."""
        return 0.0 if self.kind == "gaussian" else 1.0

    def kernel_a(self, y: np.ndarray, eta: np.ndarray, scale=None) -> np.ndarray:
        """Per-observation A(y, eta, scale), the part of :meth:`log_kernel` not linear in eta, unchecked.

        This is the one place each kind's eta-dependent formula is written.
        The gaussian keeps its residual form (y - eta)^2 / (2 sigma^2), with
        w = 0, which does not cancel at large y.  Overflow of ``exp`` gives
        +inf; callers set ``np.errstate`` to silence it.
        """
        if self.kind == "poisson":
            return np.exp(eta)
        if self.kind == "negative_binomial":
            return (y + scale) * np.log(scale + np.exp(eta))
        if self.kind == "bernoulli":
            return np.logaddexp(0.0, eta)
        return 0.5 * (y - eta) ** 2 / scale

    def kernel_a_derivatives(self, y: np.ndarray, eta: np.ndarray, scale=None) -> tuple:
        """The first and second derivatives of :meth:`kernel_a` in eta, per observation, unchecked.

        A'' >= 0 for every kind, so each line target of the engine is
        log-concave.  The logistic terms of the bernoulli and the negative
        binomial, p = 1 / (1 + exp(-z)) and p (1 - p) with z = eta (minus log
        r for the NB), are computed from exp(-|z|), which cannot overflow.
        The poisson's exp overflows to +inf as in :meth:`kernel_a`.
        """
        if self.kind == "poisson":
            mu = np.exp(eta)
            return mu, mu
        if self.kind == "gaussian":
            return (eta - y) / scale, np.broadcast_to(1.0 / scale, np.shape(eta))
        z = eta - np.log(scale) if self.kind == "negative_binomial" else eta
        e = np.exp(-np.abs(z))
        d = 1.0 / (1.0 + e)
        p, slope = np.where(z >= 0.0, d, e * d), e * d * d
        if self.kind == "negative_binomial":
            return (y + scale) * p, (y + scale) * slope
        return p, slope

    def log_kernel(self, y: np.ndarray, eta: np.ndarray, scale=None) -> np.ndarray:
        """Per-observation log-likelihood up to eta-free terms, w y eta - A(y, eta, scale), unchecked.

        Along a line eta = eta_0 + c x the first term is x w (y . c) plus a
        constant, so the Gibbs engine evaluates only :meth:`kernel_a` there.
        Overflow of ``exp`` gives -inf terms; callers set ``np.errstate`` to silence it.
        """
        a = self.kernel_a(y, eta, scale)
        return y * eta - a if self.kernel_w else -a

    def log_likelihood(self, y: np.ndarray, eta: np.ndarray, scale=None) -> np.ndarray:
        """Elementwise log f(y | mu = g^-1(eta), scale): :meth:`log_kernel` plus its eta-free terms.

        -inf at impossible boundaries.  Raises NumericError for a NaN
        predictor and ConfigurationError for a missing or non-positive scale;
        the count kinds raise ConfigurationError for a negative or non-integer ``y``.
        """
        y = np.asarray(y, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if np.any(np.isnan(eta)):
            raise NumericError("linear predictor contains NaN")
        self._check_scale(scale)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = self.log_kernel(y, eta, scale)
            if self.kind == "gaussian":
                return kernel - 0.5 * np.log(2.0 * np.pi * scale)
            if self.kind == "bernoulli":
                return kernel
            k = as_counts(y)
            log_factorial = log_rising_factorial(k)
            if self.kind == "poisson":
                return kernel - log_factorial
            return kernel + (log_rising_factorial(k, scale) - log_factorial + scale * np.log(scale))

    def sample(self, rng: np.random.Generator, eta: np.ndarray, scale=None) -> np.ndarray:
        """Draw responses at the given linear predictor and scale.

        For log-link families eta is capped at ``ETA_CAP`` before
        exponentiation so extreme draws cannot overflow the count sampler.
        NB responses are Poisson draws at Gamma(r, scale mu / r) rates: numpy's
        negative_binomial raises at r below 1e-100 and gives only zeros above 1e17.
        The rate is g (mu / r) for g ~ Gamma(r, 1), as numpy's gamma forms it;
        where mu / r overflows it is (g / r) mu instead, and every rate is
        capped at exp(``ETA_CAP``), the mean cap of the other log-link draws.
        Every kind returns a float array shaped like ``eta``, 0-d included.
        """
        self._check_scale(scale)
        eta = np.asarray(eta, dtype=float)
        if self.link == "log":
            eta = np.minimum(eta, ETA_CAP)
        mu = self.mean(eta)
        if self.kind == "poisson":
            y = rng.poisson(mu)
        elif self.kind == "negative_binomial":
            g = rng.standard_gamma(scale, mu.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # lanes of inf or NaN are not picked, or are capped
                theta = mu / scale
                rate = np.where(np.isinf(theta), g / scale * mu, g * theta)
            y = rng.poisson(np.minimum(rate, _MEAN_CAP))
        elif self.kind == "bernoulli":
            y = rng.random(mu.shape) < mu
        else:
            y = rng.normal(eta, np.sqrt(scale))
        return np.asarray(y, dtype=float)

    def validate_response(self, y: np.ndarray) -> None:
        y = np.asarray(y)
        if not np.all(np.isfinite(y)):
            raise ConfigurationError("responses must be finite")
        if self.counts and as_counts(y) is None:
            raise ConfigurationError(f"family {self.kind!r} requires nonnegative integer responses below 2**63")
        if self.kind == "bernoulli" and np.any(y > 1):
            raise ConfigurationError("bernoulli responses must be 0 or 1")

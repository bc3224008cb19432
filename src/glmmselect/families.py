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
are counts; and its :class:`Scale`: the ParameterState field holding the
family scale (``dispersion`` for the negative binomial, ``sigma2`` for the
gaussian, none otherwise), which also names its trace column and picks the
engine's scale update, with the scale's prior log-density and prior draw.
The scale's value is an argument of the likelihood and the sampler, never a
field of the family.  The Gamma and inverse-gamma helpers those priors use
live here so that :mod:`glmmselect.priors` shares them without a cycle.

Log-gamma lives here as well, without SciPy, whose ``special`` module took
0.18 s to import, a third of every CLI command's start-up, for three
functions.  Scalar shapes and scales take ``math.lgamma``.  The count
likelihoods' log Gamma(y + r) goes through :func:`lgamma_counts`, which uses
that y is an integer: for y >= 1, log Gamma(y + r) = log Gamma(r + 1) +
sum_{1 <= j < y} log(r + j), one cumulative sum over 0..max(y).  The table
stops at ``_LGAMMA_TABLE`` entries; larger counts take Stirling's series.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = ["Family", "Scale", "CANONICAL_LINKS", "ETA_CAP"]

CANONICAL_LINKS = {
    "poisson": "log",
    "negative_binomial": "log",
    "bernoulli": "logit",
    "gaussian": "identity",
}

NB_DISPERSION_SHAPE = 0.01
NB_DISPERSION_RATE = 0.01
SIGMA2_IG_SHAPE = 0.01
SIGMA2_IG_SCALE = 0.01

# responses of a log-link family are drawn at eta capped here, so exp(eta) stays a usable count mean
ETA_CAP = 30.0
_MEAN_CAP = math.exp(ETA_CAP)

# lgamma_counts tables log Gamma(y + r) for y below this bound and uses Stirling's series from it on
_LGAMMA_TABLE = 256
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def invgamma_logpdf(x, shape: float, scale: float):
    """IG(shape, scale) log-density: x^-(a+1) exp(-scale/x) normalized."""
    x = np.asarray(x, dtype=float)
    return shape * np.log(scale) - math.lgamma(shape) - (shape + 1.0) * np.log(x) - scale / x


def gamma_logpdf(x, shape: float, rate: float):
    x = np.asarray(x, dtype=float)
    return shape * np.log(rate) - math.lgamma(shape) + (shape - 1.0) * np.log(x) - rate * x


def _lgamma_table(r: float, top: int) -> np.ndarray:
    """log Gamma(r + k) for k = 0..max(top, 2) - 1."""
    table = np.empty(max(top, 2))
    table[0] = math.lgamma(r)
    table[1] = math.lgamma(r + 1.0)
    np.log(np.arange(1.0, top - 1) + r, out=table[2:])
    tail = table[1:]
    np.add.accumulate(tail, out=tail)
    return table


# log k! = log Gamma(1 + k), k < _LGAMMA_TABLE: the table of r = 1, built once
_LOG_FACTORIAL = _lgamma_table(1.0, _LGAMMA_TABLE)


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


def _count_index(y) -> tuple:
    """Counts ``y`` as an index array, and max(y) + 1 (1 when there are none).

    A ``y`` that :func:`as_counts` rejects raises ConfigurationError: the
    table identity of :func:`lgamma_counts` holds for counts only.
    """
    k = as_counts(y)
    if k is None:
        raise ConfigurationError("log-gamma of counts needs nonnegative integer y below 2**63")
    return k, int(k.max()) + 1 if k.size else 1


def _lgamma_at(k: np.ndarray, top: int, r=None) -> np.ndarray:
    """log Gamma(k + r) for the index array ``k`` of :func:`_count_index`, whose maximum is top - 1.

    ``r`` None stands for r = 1, whose table is built once.
    """
    if top > _LGAMMA_TABLE:
        out = _lgamma_at(np.minimum(k, _LGAMMA_TABLE - 1), _LGAMMA_TABLE, r)
        big = k >= _LGAMMA_TABLE
        out[big] = _stirling_lgamma(k[big] + (1.0 if r is None else r))
        return out
    table = _LOG_FACTORIAL if r is None else _lgamma_table(r, top)
    return table[k]


def lgamma_counts(y, r=None) -> np.ndarray:
    """log Gamma(y + r) for nonnegative integer counts ``y`` and a scalar shift r > 0.

    None, the default, stands for r = 1.  Counts
    below ``_LGAMMA_TABLE`` index the table log Gamma(r), log Gamma(r + 1) +
    cumsum_{1 <= j < k} log(r + j) over k = 0..max(y); larger counts take
    Stirling's series, so the table never grows past the bound.  A negative
    or non-integer ``y`` raises ConfigurationError.
    """
    return _lgamma_at(*_count_index(y), r)


def sample_invgamma(rng, shape, scale, size=None):
    """IG(shape, scale) draws; an array ``scale`` without ``size`` gives one draw per entry."""
    if size is None and np.ndim(scale):
        size = np.shape(scale)
    # numpy's gamma(shape, s) is s * standard_gamma(shape); an array s takes its slow broadcasting path
    g = rng.standard_gamma(shape, size=size) * (1.0 / scale)
    # tiny shapes (e.g. nu = 0.01) underflow to exactly 0; cap at the float
    # boundary so downstream draws stay finite
    g = np.maximum(g, 1e-300)
    return 1.0 / g


@dataclass(frozen=True)
class Scale:
    """A family scale: the ParameterState/ChainTrace field holding it, and its prior."""

    field: str
    log_prior: Callable[[float], float]
    draw_prior: Callable[..., np.ndarray]  # (rng, size=None), as numpy samplers take


_SCALES = {
    # NB overdispersion ~ Gamma(0.01, rate 0.01)
    "negative_binomial": Scale(
        "dispersion",
        lambda x: float(gamma_logpdf(x, NB_DISPERSION_SHAPE, NB_DISPERSION_RATE)),
        # the tiny shape underflows to exactly 0 (about 0.06% of draws); floor as sample_invgamma does
        lambda rng, size=None: np.maximum(rng.gamma(NB_DISPERSION_SHAPE, 1.0 / NB_DISPERSION_RATE, size), 1e-300),
    ),
    # gaussian residual variance sigma2 ~ IG(0.01, 0.01)
    "gaussian": Scale(
        "sigma2",
        lambda x: float(invgamma_logpdf(x, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE)),
        lambda rng, size=None: sample_invgamma(rng, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE, size),
    ),
}


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
    def scale(self) -> Scale | None:
        return _SCALES.get(self.kind)

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
        value = getattr(source, self.scale.field)
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
            if self.kind == "poisson":
                return kernel - lgamma_counts(y)
            if self.kind == "negative_binomial":
                counts = _count_index(y)
                return kernel + (
                    _lgamma_at(*counts, scale) - math.lgamma(scale) - _lgamma_at(*counts) + scale * np.log(scale)
                )
            if self.kind == "gaussian":
                return kernel - 0.5 * np.log(2.0 * np.pi * scale)
            return kernel

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

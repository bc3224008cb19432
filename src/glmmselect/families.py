"""Response families and link functions.

Supported kind/link pairs are the canonical ones: poisson/log,
negative_binomial/log, bernoulli/logit, gaussian/identity.  The negative
binomial uses the mean/overdispersion convention Var = mu + mu^2/r_disp.

This module is the one home of what differs by kind.  A :class:`Family` owns
its link and normalized log-density, the per-observation kernel the Gibbs
engine sums, response sampling and validation, whether responses are counts,
the family at a given state's scale, and its :class:`Scale`: the ParameterState
field holding the family scale (``dispersion`` for the negative binomial,
``sigma2`` for the gaussian, none otherwise), which also names its trace
column and picks the engine's scale update, with the scale's prior
log-density and prior draw.  The Gamma and inverse-gamma helpers those priors
use live here so that :mod:`glmmselect.priors` shares them without a cycle.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit, gammaln

from .errors import ConfigurationError, NumericError

__all__ = ["Family", "Scale", "CANONICAL_LINKS", "family_scale", "scale_field"]

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


def invgamma_logpdf(x, shape, scale):
    """IG(shape, scale) log-density: x^-(a+1) exp(-scale/x) normalized."""
    x = np.asarray(x, dtype=float)
    return shape * np.log(scale) - gammaln(shape) - (shape + 1.0) * np.log(x) - scale / x


def gamma_logpdf(x, shape, rate):
    x = np.asarray(x, dtype=float)
    return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x


def sample_invgamma(rng, shape, scale, size=None):
    g = rng.gamma(shape, 1.0 / scale, size=size)
    # tiny shapes (e.g. nu = 0.01) underflow to exactly 0; cap at the float
    # boundary so downstream draws stay finite
    g = np.maximum(g, 1e-300)
    return 1.0 / g


@dataclass(frozen=True)
class Scale:
    """A family scale: the ParameterState/ChainTrace field holding it, and its prior."""

    field: str
    log_prior: Callable[[float], float]
    draw_prior: Callable[[np.random.Generator], float]


_SCALES = {
    # NB overdispersion ~ Gamma(0.01, rate 0.01)
    "negative_binomial": Scale(
        "dispersion",
        lambda x: float(gamma_logpdf(x, NB_DISPERSION_SHAPE, NB_DISPERSION_RATE)),
        # the tiny shape underflows to exactly 0 (about 0.06% of draws); floor as sample_invgamma does
        lambda rng: float(max(rng.gamma(NB_DISPERSION_SHAPE, 1.0 / NB_DISPERSION_RATE), 1e-300)),
    ),
    # gaussian residual variance sigma2 ~ IG(0.01, 0.01)
    "gaussian": Scale(
        "sigma2",
        lambda x: float(invgamma_logpdf(x, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE)),
        lambda rng: float(sample_invgamma(rng, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE)),
    ),
}


def family_scale(kind: str) -> Scale | None:
    """The scale of a family kind; None for kinds without one."""
    return _SCALES.get(kind)


def scale_field(kind: str) -> str | None:
    """The field holding the scale of a family kind; None for kinds without one."""
    scale = _SCALES.get(kind)
    return scale.field if scale is not None else None


@dataclass(frozen=True)
class Family:
    """Response distribution plus link.

    ``dispersion`` is the NB overdispersion r_disp (> 0) or the gaussian
    residual variance sigma^2 (> 0); it must be absent for the other kinds.
    A model's family leaves it unset: the scale is a sampled parameter, and
    :meth:`at_scale` supplies it to :meth:`log_likelihood` and :meth:`sample`.
    """

    kind: str
    link: str | None = None
    dispersion: float | None = None

    def __post_init__(self):
        if self.kind not in CANONICAL_LINKS:
            raise ConfigurationError(f"unsupported family kind {self.kind!r}")
        link = self.link if self.link is not None else CANONICAL_LINKS[self.kind]
        if link != CANONICAL_LINKS[self.kind]:
            raise ConfigurationError(
                f"unsupported link {link!r} for family {self.kind!r}"
            )
        object.__setattr__(self, "link", link)
        if self.dispersion is not None:
            if self.scale is None:
                raise ConfigurationError(f"family {self.kind!r} takes no dispersion")
            if not self.dispersion > 0:
                raise ConfigurationError(f"family {self.kind!r} requires a positive dispersion")

    @property
    def scale(self) -> Scale | None:
        return _SCALES.get(self.kind)

    @property
    def counts(self) -> bool:
        """Whether responses are nonnegative integer counts."""
        return self.kind != "gaussian"

    def at_scale(self, source, index=None) -> "Family":
        """This family at the scale in ``source``: a ParameterState, or a ChainTrace and draw ``index``."""
        if self.scale is None:
            return self
        value = getattr(source, self.scale.field)
        return replace(self, dispersion=float(value if index is None else value[index]))

    def _dispersion(self) -> float:
        if self.dispersion is None:
            raise ConfigurationError(f"family {self.kind!r} needs its scale: call at_scale first")
        return self.dispersion

    def mean(self, eta: np.ndarray) -> np.ndarray:
        """Inverse link applied to the linear predictor."""
        eta = np.asarray(eta, dtype=float)
        if self.link == "log":
            with np.errstate(over="ignore"):
                return np.exp(eta)
        if self.link == "logit":
            return expit(eta)
        return eta

    def log_likelihood(self, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Elementwise log f(y | mu = g^-1(eta)); -inf at impossible boundaries."""
        y = np.asarray(y, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if np.any(np.isnan(eta)):
            raise NumericError("linear predictor contains NaN")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "poisson":
                return y * eta - np.exp(eta) - gammaln(y + 1.0)
            if self.kind == "negative_binomial":
                r = self._dispersion()
                mu = np.exp(eta)
                return (
                    gammaln(y + r)
                    - gammaln(r)
                    - gammaln(y + 1.0)
                    + r * np.log(r)
                    + y * eta
                    - (y + r) * np.log(r + mu)
                )
            if self.kind == "bernoulli":
                # y*eta - log(1 + exp(eta)), stable for large |eta|
                return y * eta - np.logaddexp(0.0, eta)
            sigma2 = self._dispersion()
            return -0.5 * (np.log(2.0 * np.pi * sigma2) + (y - eta) ** 2 / sigma2)

    def log_kernel(self, y: np.ndarray, eta: np.ndarray, scale_value: float | None) -> np.ndarray:
        """Per-observation log-likelihood up to eta-free terms, unchecked (sampler inner loop).

        ``scale_value`` is the state's value of :attr:`scale`; kinds without one ignore it.
        Overflow of ``exp`` gives -inf terms; callers set ``np.errstate`` to silence it.
        """
        if self.kind == "poisson":
            return y * eta - np.exp(eta)
        if self.kind == "negative_binomial":
            return y * eta - (y + scale_value) * np.log(scale_value + np.exp(eta))
        if self.kind == "bernoulli":
            return y * eta - np.logaddexp(0.0, eta)
        return -0.5 * (y - eta) ** 2 / scale_value

    def sample(self, rng: np.random.Generator, eta: np.ndarray, eta_cap: float = 30.0) -> np.ndarray:
        """Draw responses at the given linear predictor.

        For log-link families eta is capped at ``eta_cap`` before
        exponentiation so extreme draws cannot overflow the count sampler;
        the number of capped entries is available via :func:`clipped_count`.
        """
        eta = np.asarray(eta, dtype=float)
        if self.link == "log":
            eta = np.minimum(eta, eta_cap)
        mu = self.mean(eta)
        if self.kind == "poisson":
            return rng.poisson(mu).astype(float)
        if self.kind == "negative_binomial":
            r = self._dispersion()
            return rng.negative_binomial(r, r / (r + mu)).astype(float)
        if self.kind == "bernoulli":
            return (rng.random(mu.shape) < mu).astype(float)
        return rng.normal(eta, np.sqrt(self._dispersion()))

    def clipped_count(self, eta: np.ndarray, eta_cap: float = 30.0) -> int:
        if self.link != "log":
            return 0
        return int(np.sum(np.asarray(eta) > eta_cap))

    def validate_response(self, y: np.ndarray) -> None:
        y = np.asarray(y)
        if not np.all(np.isfinite(y)):
            raise ConfigurationError("responses must be finite")
        if self.counts:
            if np.any(y < 0) or np.any(y != np.floor(y)):
                raise ConfigurationError(
                    f"family {self.kind!r} requires nonnegative integer responses"
                )
        if self.kind == "bernoulli" and np.any(y > 1):
            raise ConfigurationError("bernoulli responses must be 0 or 1")

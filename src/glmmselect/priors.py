"""Log-density evaluators and direct samplers for every prior in the model.

Hierarchies (per coefficient / effect):

  fixed effects    beta ~ N(0, sigma2/(g*theta)), theta ~ Exp(phi^2/2),
                   phi ~ Gamma(1, 1); inclusion J ~ Bernoulli(pi)
  random-effect    lam ~ pi * N+(0, tau2 h^2) + (1-pi) * delta_0 via indicator I;
  scales           tau2 ~ IG(nu/2, v/2)
  correlations     every packed r coordinate ~ N(0, 1), iid; coordinates
                   killed by excluded effects keep the same density as their
                   pseudo-prior, so the prior does not depend on the
                   indicators.  Sigma_r is fixed at I and is not a setting.
  latent effects   xi ~ N(0, kappa) with kappa ~ Exp(m^2/2), m ~ Gamma(1, 1)
  family scale     the prior of its family (NB overdispersion ~ Gamma(0.01,
                   rate 0.01), gaussian sigma2 ~ IG(0.01, 0.01)); see
                   :mod:`glmmselect.families`

Excluded coefficients keep evolving under the same slab density (pseudo-prior
scheme), so indicator flips stay reversible with exact Bernoulli conditionals.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .families import family_scale, gamma_logpdf, invgamma_logpdf, sample_invgamma, scale_field
from .model import BlockState, Hyperparameters, ModelDims, ParameterState

__all__ = [
    "log_prior_beta",
    "log_prior_lambda",
    "log_prior_gamma_vec",
    "log_prior_xi",
    "log_prior_state",
    "sample_prior",
    "halfnormal_logpdf",
    "invgamma_logpdf",
    "sample_invgamma",
    "sample_halfnormal",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _require_positive(**values):
    for name, val in values.items():
        if not np.all(np.asarray(val) > 0):
            raise ConfigurationError(f"{name} must be positive")


def normal_logpdf(x, var):
    return -0.5 * (_LOG_2PI + np.log(var)) - 0.5 * np.asarray(x) ** 2 / var


def halfnormal_logpdf(x, var):
    """N+(0, var) log-density on [0, inf); -inf below zero."""
    x = np.asarray(x, dtype=float)
    out = math.log(2.0) + normal_logpdf(x, var)
    return np.where(x < 0, -np.inf, out)


def exponential_logpdf(x, rate):
    return np.log(rate) - rate * np.asarray(x, dtype=float)


def sample_halfnormal(rng, var, size=None):
    return np.abs(rng.normal(0.0, np.sqrt(var), size=size))


def log_prior_beta(beta, theta, phi, sigma2=1.0, g_shrink=1.0):
    """Three-stage shrinkage prior for one fixed effect (raw value)."""
    _require_positive(theta=theta, phi=phi, sigma2=sigma2, g_shrink=g_shrink)
    var = sigma2 / (g_shrink * np.asarray(theta, dtype=float))
    lp = normal_logpdf(beta, var)
    lp = lp + exponential_logpdf(theta, np.asarray(phi) ** 2 / 2.0)
    lp = lp + gamma_logpdf(phi, 1.0, 1.0)
    return lp if np.ndim(lp) else float(lp)


def log_prior_lambda(lam, include, tau2, h, v, nu, prior_inclusion=0.5):
    """Spike-and-slab prior for one random-effect scale (raw value + indicator).

    The raw lam always carries the slab density (pseudo-prior when excluded);
    the indicator contributes log(pi) or log(1-pi).  The slab variance tau2
    carries its IG(nu/2, v/2) density.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ConfigurationError("lam must be nonnegative")
    _require_positive(tau2=tau2, h=h, v=v, nu=nu)
    include = np.asarray(include)
    mass = np.where(include.astype(bool), math.log(prior_inclusion), math.log1p(-prior_inclusion))
    lp = mass + halfnormal_logpdf(lam, np.asarray(tau2) * h * h)
    lp = lp + invgamma_logpdf(tau2, nu / 2.0, v / 2.0)
    return lp if np.ndim(lp) else float(lp)


def log_prior_gamma_vec(r):
    """Prior of the packed correlation coordinates: iid N(0, 1), whatever the indicators."""
    return float(np.sum(normal_logpdf(r, 1.0)))


def log_prior_xi(xi, kappa, m):
    """Stagewise latent-effect prior; kappa is a variance."""
    _require_positive(kappa=kappa, m=m)
    lp = normal_logpdf(xi, kappa)
    lp = lp + exponential_logpdf(kappa, np.asarray(m) ** 2 / 2.0)
    lp = lp + gamma_logpdf(m, 1.0, 1.0)
    return lp if np.ndim(lp) else float(lp)


def log_prior_state(hyper: Hyperparameters, state: ParameterState, family_kind: str = "poisson") -> float:
    """Joint log prior of a full state, pseudo-priors included."""
    pi = hyper.prior_inclusion
    total = 0.0
    # fixed effects: indicator mass + shrinkage hierarchy on raw values
    total += float(np.sum(np.where(state.J.astype(bool), math.log(pi), math.log1p(-pi))))
    total += float(
        np.sum(
            normal_logpdf(state.beta, state.sigma2 / (hyper.g_shrink * state.theta))
            + exponential_logpdf(state.theta, state.phi**2 / 2.0)
            + gamma_logpdf(state.phi, 1.0, 1.0)
        )
    )
    for bs in state.blocks:
        total += float(
            np.sum(log_prior_lambda(bs.lam, bs.include, bs.tau2, hyper.h, hyper.v, hyper.nu, pi))
        )
        total += log_prior_gamma_vec(bs.r)
        total += float(np.sum(normal_logpdf(bs.xi, bs.kappa[None, :])))
        total += float(np.sum(exponential_logpdf(bs.kappa, bs.m**2 / 2.0)))
        total += float(np.sum(gamma_logpdf(bs.m, 1.0, 1.0)))
    scale = family_scale(family_kind)
    if scale is not None:
        total += scale.log_prior(getattr(state, scale.field))
    return total


def sample_prior(
    hyper: Hyperparameters,
    dims: ModelDims,
    rng: np.random.Generator,
    family_kind: str = "poisson",
    mode: str = "ssvs-full",
    n: int | None = None,
) -> ParameterState:
    """Exact draw from the full joint prior (initialization and checks).

    With ``n``, a batch of n independent draws: every array gains a leading
    axis of length n, the family scale (if the kind has one) is an (n, 1)
    column, and :meth:`ParameterState.take` picks one draw.  A batch uses
    the generator in its own order, so it differs from n unbatched calls.
    """
    pi = hyper.prior_inclusion
    scale, field = family_scale(family_kind), scale_field(family_kind)
    lead = () if n is None else (n,)
    scale_shape = None if n is None else (n, 1)

    def draw_scale():
        value = scale.draw_prior(rng, scale_shape)
        return float(value) if n is None else value

    # sigma2 enters the beta prior, so it is drawn first; any other scale is drawn last
    sigma2 = draw_scale() if field == "sigma2" else 1.0
    phi = rng.gamma(1.0, 1.0, size=lead + (dims.l,))
    theta = rng.exponential(2.0 / phi**2)
    beta = rng.normal(0.0, np.sqrt(sigma2 / (hyper.g_shrink * theta)))
    if mode == "no-selection":
        J = np.ones(lead + (dims.l,), dtype=np.int8)
    else:
        J = (rng.random(lead + (dims.l,)) < pi).astype(np.int8)
    blocks = []
    for q, n_groups in dims.blocks:
        if mode == "no-selection":
            include = np.ones(lead + (q,), dtype=np.int8)
        else:
            include = (rng.random(lead + (q,)) < pi).astype(np.int8)
        tau2 = sample_invgamma(rng, hyper.nu / 2.0, hyper.v / 2.0, size=lead + (q,))
        lam = sample_halfnormal(rng, tau2 * hyper.h**2)
        r = rng.normal(0.0, 1.0, size=lead + (q * (q - 1) // 2,))
        m = rng.gamma(1.0, 1.0, size=lead + (q,))
        kappa = rng.exponential(2.0 / m**2)
        xi = rng.normal(0.0, 1.0, size=lead + (n_groups, q)) * np.sqrt(kappa)[..., None, :]
        blocks.append(
            BlockState(lam=lam, include=include, tau2=tau2, r=r, xi=xi, kappa=kappa, m=m)
        )
    dispersion = draw_scale() if field == "dispersion" else None
    return ParameterState(
        beta=beta, J=J, theta=theta, phi=phi, blocks=blocks, dispersion=dispersion, sigma2=sigma2
    )

"""The prior of the model, stated once: one draw function per stage, one density for the whole.

Hierarchies (per coefficient / effect), each with the function that draws it:

  fixed effects    beta ~ N(0, sigma2/(g*theta)), theta ~ Exp(phi^2/2),
                   phi ~ Gamma(1, 1): :func:`draw_shrinkage`; inclusion
                   J ~ Bernoulli(pi)
  random-effect    lam ~ pi * N+(0, tau2 h^2) + (1-pi) * delta_0 via indicator I;
  scales           tau2 ~ IG(nu/2, v/2): :func:`draw_slab`
  correlations     every packed r coordinate ~ N(0, 1), iid: :func:`draw_correlations`;
                   coordinates killed by excluded effects keep the same density
                   as their pseudo-prior, so the prior does not depend on the
                   indicators.  Sigma_r is fixed at I and is not a setting.
  latent effects   xi ~ N(0, kappa) with kappa ~ Exp(m^2/2), m ~ Gamma(1, 1):
                   :func:`draw_latent`, or :func:`draw_xi` for xi given kappa
  family scale     NB overdispersion ~ Gamma(0.01, rate 0.01), gaussian
                   sigma2 ~ IG(0.01, 0.01), keyed by the state field that
                   ``Family.scale`` names: :func:`draw_scale`, with its
                   density :func:`scale_logpdf`

:func:`sample_prior` draws a whole state from these stage functions, and
the Gibbs engine redraws each excluded effect's hierarchy with the same
ones.  :func:`log_prior_state` is the one prior density: the joint log
prior of a state, every stage included.

Excluded coefficients keep evolving under the same slab density (pseudo-prior
scheme), so indicator flips stay reversible with exact Bernoulli conditionals.

The full conditionals of the scale latents have closed forms, and the Gibbs
engine draws them exactly with the samplers here:

  tau2 | lam        IG(nu/2 + 1/2, v/2 + lam^2 / (2 h^2)), by :func:`sample_invgamma`
  phi | theta,      density proportional to x^2 exp(-x - t x^2 / 2) on x > 0 with
  m | kappa         t = theta or kappa: a modified half-normal (Sun, Kong & Pal
                    2023, Commun. Stat. Theory Methods), by
                    :func:`sample_modified_halfnormal`
  kappa | xi, m     GIG(1 - n_groups/2, sum_g xi_g^2, m^2), the generalized
                    inverse Gaussian, by :func:`sample_gig` (Devroye 2014,
                    "Random variate generation for the generalized inverse
                    Gaussian distribution", Stat. Comput.)

Both rejection samplers take arrays of parameters and raise ``SamplerError``
when a draw is still pending after ``_MAX_ROUNDS`` rounds.  Each accepts
with probability above one half per round for every parameter they take
(the GIG above 0.82 on a grid over |p| up to 100 and sqrt(chi psi) from
1e-6 to 1e3; the modified half-normal for t from 1e-8 to 1e8), so that
happens only when the setup broke.
"""

import math

import numpy as np

from .errors import ConfigurationError, SamplerError
from .families import Family
from .model import BlockState, Hyperparameters, ModelDims, ParameterState

__all__ = [
    "draw_shrinkage",
    "draw_slab",
    "draw_correlations",
    "draw_latent",
    "draw_xi",
    "draw_scale",
    "log_prior_state",
    "sample_prior",
    "halfnormal_logpdf",
    "gamma_logpdf",
    "invgamma_logpdf",
    "scale_logpdf",
    "sample_invgamma",
    "sample_modified_halfnormal",
    "sample_gig",
]

_LOG_2PI = math.log(2.0 * math.pi)
# a rejection sampler that has not accepted every draw after this many rounds raises SamplerError
_MAX_ROUNDS = 200

# the family-scale priors: NB overdispersion ~ Gamma(shape, rate), gaussian sigma2 ~ IG(shape, scale)
NB_DISPERSION_SHAPE = 0.01
NB_DISPERSION_RATE = 0.01
SIGMA2_IG_SHAPE = 0.01
SIGMA2_IG_SCALE = 0.01


def normal_logpdf(x, var):
    return -0.5 * (_LOG_2PI + np.log(var)) - 0.5 * np.asarray(x) ** 2 / var


def halfnormal_logpdf(x, var):
    """N+(0, var) log-density on [0, inf); -inf below zero."""
    x = np.asarray(x, dtype=float)
    out = math.log(2.0) + normal_logpdf(x, var)
    return np.where(x < 0, -np.inf, out)


def exponential_logpdf(x, rate):
    return np.log(rate) - rate * np.asarray(x, dtype=float)


def gamma_logpdf(x, shape: float, rate: float):
    x = np.asarray(x, dtype=float)
    return shape * np.log(rate) - math.lgamma(shape) + (shape - 1.0) * np.log(x) - rate * x


def invgamma_logpdf(x, shape: float, scale: float):
    """IG(shape, scale) log-density: x^-(a+1) exp(-scale/x) normalized."""
    x = np.asarray(x, dtype=float)
    return shape * np.log(scale) - math.lgamma(shape) - (shape + 1.0) * np.log(x) - scale / x


def sample_invgamma(rng, shape, scale, size=None):
    """IG(shape, scale) draws; an array ``scale`` without ``size`` gives one draw per entry."""
    if size is None and np.ndim(scale):
        size = np.shape(scale)
    # numpy's gamma(shape, s) is s * standard_gamma(shape); an array s takes its slow broadcasting path
    g = rng.standard_gamma(shape, size=size) * (1.0 / scale)
    # tiny shapes (e.g. nu = 0.01) underflow to exactly 0; the floor keeps downstream draws finite
    return 1.0 / np.maximum(g, 1e-300)


def scale_logpdf(x: float, field: str) -> float:
    """Prior log-density at x of the family scale held in state field ``field``, "dispersion" or "sigma2"."""
    if field == "dispersion":
        return float(gamma_logpdf(x, NB_DISPERSION_SHAPE, NB_DISPERSION_RATE))
    return float(invgamma_logpdf(x, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE))


def _rejection(rng, proposals: list, n_uniforms: int) -> np.ndarray:
    """One draw per proposal function, by rejection.

    Each round draws ``n_uniforms`` uniforms on (0, 1] for every pending
    draw in one generator call and passes them to its proposal function,
    which returns the proposed value if it is accepted and None if not.
    Raises SamplerError when draws are still pending after ``_MAX_ROUNDS``
    rounds.  The per-draw work is scalar arithmetic: on the ten or fewer
    draws of one block, numpy's per-call cost would exceed it.
    """
    out = [0.0] * len(proposals)
    pending = list(range(len(proposals)))
    for _ in range(_MAX_ROUNDS):
        if not pending:
            return np.array(out)
        rejected = []
        for i, u in zip(pending, (1.0 - rng.random((len(pending), n_uniforms))).tolist()):
            x = proposals[i](*u)
            if x is None:
                rejected.append(i)
            else:
                out[i] = x
        pending = rejected
    raise SamplerError(f"rejection sampler left {len(pending)} draw(s) pending after {_MAX_ROUNDS} rounds")


def _flat_floats(values, shape) -> list:
    """``values`` broadcast to ``shape``, as a flat list of floats."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    return values.ravel().tolist()


def _mhn_proposal(t: float):
    """Proposal function for :func:`sample_modified_halfnormal` at one t."""
    mode = 4.0 / (1.0 + 2.0 * math.sqrt(2.0) * math.sqrt(t + 0.125))  # sqrt(1 + 8 t) without overflow
    half_scale, half_t = 0.5 * mode, 0.5 * t

    def propose(u1, u2, u3, u4):
        x = -half_scale * math.log(u1 * u2 * u3)  # Gamma(3, rate 2 / mode): a sum of three exponentials
        return x if -math.log(u4) >= half_t * (x - mode) ** 2 else None

    return propose


def sample_modified_halfnormal(rng, t) -> np.ndarray:
    """One draw per entry of t > 0 from the density proportional to x^2 exp(-x - t x^2 / 2) on x > 0.

    The proposal is Gamma(3, rate b) with b = 2 / mode, where mode =
    4 / (1 + sqrt(1 + 8 t)) is the target's mode; the log ratio of target
    to proposal, (b - 1) x - t x^2 / 2, peaks at x = (b - 1) / t = mode, so a
    proposal is kept with probability exp(-t (x - mode)^2 / 2).  A
    non-finite or non-positive t raises SamplerError.
    """
    flat = _flat_floats(t, np.shape(t))
    if not all(0.0 < t_i < math.inf for t_i in flat):
        raise SamplerError("the modified half-normal needs finite positive t")
    return _rejection(rng, [_mhn_proposal(t_i) for t_i in flat], 4).reshape(np.shape(t))


def _gig_devroye(lam: float, omega: float):
    """Proposal function for log Y, Y from the standardized GIG(lam, omega, omega), lam >= 0 (Devroye 2014).

    X = log Y - asinh(lam / omega) has the concave log density psi(x) =
    -alpha (cosh x - 1) - lam (expm1 x - x), alpha = sqrt(omega^2 + lam^2) -
    lam, which peaks at psi(0) = 0.  The hat is 1 on [-s', t'] and the
    tangents of psi at t and -s beyond, whose zeros are t' and -s'; concavity
    makes it a hat for any t, s > 0, and Devroye's choice of them bounds the
    rejection constant.  alpha cosh x is summed from exp(+-x + log(alpha /
    2)), finite wherever alpha cosh x is, also at alpha = 0; a proposal at
    which a term still overflows has psi below -1e308 and is rejected.
    """
    alpha = omega * (omega / (math.hypot(omega, lam) + lam))  # sqrt(omega^2 + lam^2) - lam without cancellation
    log_half_alpha = math.log(alpha) - math.log(2.0) if alpha > 0.0 else -math.inf

    def psi(x):
        return alpha - math.exp(x + log_half_alpha) - math.exp(log_half_alpha - x) - lam * (math.expm1(x) - x)

    def dpsi(x):
        return math.exp(log_half_alpha - x) - math.exp(x + log_half_alpha) - lam * math.expm1(x)

    right, left = -psi(1.0), -psi(-1.0)
    t = math.sqrt(2.0 / (alpha + lam)) if right > 2.0 else math.log(4.0 / (alpha + 2.0 * lam)) if right < 0.5 else 1.0
    if left > 2.0:
        s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam))
    elif left < 0.5:  # log(1 + 1/alpha + sqrt(1/alpha^2 + 2/alpha)), whose alpha^2 underflows below 1e-154
        s = math.log1p((1.0 + math.sqrt(1.0 + 2.0 * alpha)) / alpha) if alpha > 0.0 else math.inf
        s = min(s, 1.0 / lam) if lam > 0.0 else s
    else:
        s = 1.0
    eta, zeta, theta, xi = -psi(t), -dpsi(t), -psi(-s), dpsi(-s)
    r, p = 1.0 / zeta, 1.0 / xi  # the areas of the right and left tails
    t0, s0 = t - r * eta, s - p * theta
    q = t0 + s0  # the area of the flat middle
    total, shift = p + q + r, math.asinh(lam / omega)

    def propose(u, v, w):
        z = u * total
        if z < q:
            x, log_hat = -s0 + q * v, 0.0
        elif z < q + r:
            x = t0 - r * math.log(v)
            log_hat = -eta - zeta * (x - t)
        else:
            x = -s0 + p * math.log(v)
            log_hat = -theta + xi * (x + s)
        try:
            return x + shift if math.log(w) + log_hat <= psi(x) else None
        except OverflowError:
            return None

    return propose


def sample_gig(rng, p, chi, psi) -> np.ndarray:
    """Draws from GIG(p, chi, psi), density proportional to x^(p-1) exp(-(chi / x + psi x) / 2) on x > 0.

    ``p``, ``chi`` and ``psi`` broadcast; p must be finite and chi, psi
    finite and positive, or SamplerError is raised.  With omega =
    sqrt(chi psi) and alpha = sqrt(chi / psi), a draw is alpha Y for Y from
    the standardized GIG(|p|, omega, omega), inverted when p < 0.  Y comes
    from Devroye's (2014) one rejection sampler for every (|p|, omega); it
    accepts at least 0.82 of its proposals for |p| from 0 to 100 and omega
    from 1e-6 to 1e3, and it draws down to omega = 1e-300.
    """
    shape = np.broadcast_shapes(np.shape(p), np.shape(chi), np.shape(psi))
    proposals, signs, log_alphas = [], [], []
    for p_i, chi_i, psi_i in zip(*(_flat_floats(x, shape) for x in (p, chi, psi))):
        if not (math.isfinite(p_i) and 0.0 < chi_i < math.inf and 0.0 < psi_i < math.inf):
            raise SamplerError(f"GIG needs a finite p and finite positive chi, psi; got {p_i}, {chi_i}, {psi_i}")
        try:
            proposals.append(_gig_devroye(abs(p_i), math.sqrt(chi_i) * math.sqrt(psi_i)))
        except (ArithmeticError, ValueError):  # omega underflowed to 0, or a bound overflowed
            raise SamplerError(f"GIG setup failed at p = {p_i}, chi = {chi_i}, psi = {psi_i}") from None
        signs.append(-1.0 if p_i < 0.0 else 1.0)
        log_alphas.append(0.5 * (math.log(chi_i) - math.log(psi_i)))
    log_y = _rejection(rng, proposals, 3)
    return np.exp(np.array(signs) * log_y + np.array(log_alphas)).reshape(shape)


def _rate_pair(rng, shape):
    """(r, v) from the prior r ~ Gamma(1, 1), v | r ~ Exp(rate r^2 / 2): that of (phi, theta) and of (m, kappa)."""
    r = rng.gamma(1.0, 1.0, size=shape)
    return r, rng.standard_exponential(shape) * (2.0 / r**2)  # numpy's exponential(s), without its slow path


def draw_shrinkage(rng, shape, sigma2, g):
    """(phi, theta, beta) of fixed effects from their prior, each of ``shape``."""
    phi, theta = _rate_pair(rng, shape)
    # numpy's normal(0, s) is s * standard_normal(); an array s takes its slow broadcasting path
    return phi, theta, rng.standard_normal(shape) * np.sqrt(sigma2 / (g * theta))


def draw_slab(rng, shape, hyper: Hyperparameters):
    """(tau2, lam) of random-effect scales from their prior, each of ``shape``: lam | tau2 ~ N+(0, tau2 h^2)."""
    tau2 = sample_invgamma(rng, hyper.nu / 2.0, hyper.v / 2.0, size=shape)
    return tau2, np.abs(rng.standard_normal(shape) * np.sqrt(tau2 * hyper.h**2))


def draw_correlations(rng, shape):
    """Packed correlation coordinates r of ``shape`` from their iid N(0, 1) prior."""
    return rng.normal(0.0, 1.0, size=shape)


def draw_latent(rng, shape, n_groups: int):
    """(m, kappa, xi) of latent effects from their prior.

    m and kappa have ``shape``, xi has ``shape[:-1] + (n_groups, shape[-1])``.
    """
    m, kappa = _rate_pair(rng, shape)
    return m, kappa, draw_xi(rng, kappa, n_groups)


def draw_xi(rng, kappa, n_groups: int):
    """Latent effects xi ~ N(0, kappa) of ``n_groups`` groups given their variances.

    ``kappa`` has shape (..., q); xi has shape (..., n_groups, q).
    """
    return rng.normal(0.0, 1.0, size=kappa.shape[:-1] + (n_groups, kappa.shape[-1])) * np.sqrt(kappa)[..., None, :]


def draw_scale(rng, field: str, size=None):
    """Prior draws of the family scale held in state field ``field``, "dispersion" or "sigma2"; ``size`` as numpy samplers take it."""
    if field == "dispersion":
        # the tiny shape underflows to exactly 0 (about 0.06% of draws); floor as sample_invgamma does
        return np.maximum(rng.gamma(NB_DISPERSION_SHAPE, 1.0 / NB_DISPERSION_RATE, size), 1e-300)
    return sample_invgamma(rng, SIGMA2_IG_SHAPE, SIGMA2_IG_SCALE, size)


def log_prior_state(hyper: Hyperparameters, state: ParameterState, family: Family) -> float:
    """Joint log prior of a full state, pseudo-priors included: the model's one prior density.

    The family's scale, if its kind has one, adds :func:`scale_logpdf` at
    the value :meth:`Family.scale_of` reads from the state.  Raises
    ConfigurationError for a negative lam, or a non-positive tau2, h, v or nu.
    """
    pi = hyper.prior_inclusion

    def mass(indicators):
        return np.where(indicators.astype(bool), math.log(pi), math.log1p(-pi))

    total = 0.0
    # fixed effects: indicator mass + shrinkage hierarchy on raw values
    total += float(np.sum(mass(state.J)))
    total += float(
        np.sum(
            normal_logpdf(state.beta, state.sigma2 / (hyper.g_shrink * state.theta))
            + exponential_logpdf(state.theta, state.phi**2 / 2.0)
            + gamma_logpdf(state.phi, 1.0, 1.0)
        )
    )
    for bs in state.blocks:
        if np.any(bs.lam < 0):
            raise ConfigurationError("lam must be nonnegative")
        for name, value in (("tau2", bs.tau2), ("h", hyper.h), ("v", hyper.v), ("nu", hyper.nu)):
            if not np.all(np.asarray(value) > 0):
                raise ConfigurationError(f"{name} must be positive")
        # raw lam carries its slab density whether or not the effect is in (pseudo-prior)
        slab = halfnormal_logpdf(bs.lam, bs.tau2 * hyper.h * hyper.h)
        total += float(np.sum(mass(bs.include) + slab + invgamma_logpdf(bs.tau2, hyper.nu / 2.0, hyper.v / 2.0)))
        total += float(np.sum(normal_logpdf(bs.r, 1.0)))
        total += float(np.sum(normal_logpdf(bs.xi, bs.kappa[None, :])))
        total += float(np.sum(exponential_logpdf(bs.kappa, bs.m**2 / 2.0)))
        total += float(np.sum(gamma_logpdf(bs.m, 1.0, 1.0)))
    if family.scale is not None:
        total += scale_logpdf(family.scale_of(state), family.scale)
    return total


def sample_prior(
    hyper: Hyperparameters,
    dims: ModelDims,
    rng: np.random.Generator,
    family: Family,
) -> ParameterState:
    """Exact draw from the full joint prior, one stage at a time.

    The family's scale, if its kind has one, is drawn by :func:`draw_scale`
    into the state field it names.  ``model.fix_mode`` sets what a mode fixes.
    """
    pi = hyper.prior_inclusion

    # sigma2 enters the beta prior, so it is drawn first; any other scale is drawn last
    sigma2 = float(draw_scale(rng, "sigma2")) if family.scale == "sigma2" else 1.0
    phi, theta, beta = draw_shrinkage(rng, (dims.l,), sigma2, hyper.g_shrink)
    J = (rng.random(dims.l) < pi).astype(np.int8)
    blocks = []
    for q, n_groups in dims.blocks:
        include = (rng.random(q) < pi).astype(np.int8)
        tau2, lam = draw_slab(rng, (q,), hyper)
        r = draw_correlations(rng, (q * (q - 1) // 2,))
        m, kappa, xi = draw_latent(rng, (q,), n_groups)
        blocks.append(BlockState(lam=lam, include=include, tau2=tau2, r=r, xi=xi, kappa=kappa, m=m))
    dispersion = float(draw_scale(rng, "dispersion")) if family.scale == "dispersion" else None
    return ParameterState(
        beta=beta, J=J, theta=theta, phi=phi, blocks=blocks, dispersion=dispersion, sigma2=sigma2
    )

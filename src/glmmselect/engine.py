"""Metropolis-within-Gibbs engine.

One scan sweeps, in this order:

1. per fixed effect p, its indicator J_p and (if included) coefficient beta_p;
2. the shrinkage latents theta and phi of all p at once;
3. per random-effect block: per effect k its indicator I_k and (if
   included) scale lam_k; then the slab variances tau2 of the block; the
   correlations r (not in ssvs-diagonal); per included k the column
   xi[:, k] of latent effects; then kappa and m of the block;
4. the family scale, if the kind has one.

Indicators use their exact Bernoulli full conditionals (the likelihood ratio
times prior odds, valid because excluded raw values keep their slab density
as a pseudo-prior).  Included beta, lam, r and xi, whose conditionals involve
the likelihood, take slice updates (beta, lam, r) or a Metropolis-Hastings
step (xi, below).  The latents above them are exact draws
from their full conditionals (see :mod:`glmmselect.priors`): theta from a
Gamma, phi and m from the modified half-normal, tau2 from an inverse-gamma,
kappa from the generalized inverse Gaussian.  An excluded effect leaves the
likelihood alone, so the full conditional of its whole hierarchy is its
prior: the latent updates draw (phi, theta, beta), (tau2, lam) and (m,
kappa, xi) of each excluded effect jointly from the prior, with the stage
functions ``draw_shrinkage``, ``draw_slab`` and ``draw_latent`` of
:mod:`glmmselect.priors`, and r entries outside :func:`cholesky.live_pairs`
with its ``draw_correlations``.  These draws are independent from scan to
scan, so the pseudo-prior values that an indicator flip would switch in do
not drift into the heavy tails of the prior for long stretches.

An included xi column takes one Metropolis-Hastings step for all its groups
at once.  Each group's xi_gk has its own target along its rows, and is
proposed from that target's Laplace approximation N(m_g, 1/H_g), found by
damped Newton steps from 0 with the kernel derivatives of
:meth:`Family.kernel_a_derivatives` (``_group_laplace``), then accepted or
kept group by group.  The proposal does not depend on the current value.
The step draws n_groups standard normals, then n_groups uniforms, whatever
the outcome; a group whose m_g, H_g or proposed target is not finite keeps
its value.  For the gaussian family the approximation is exact, and every
proposal is accepted.  ``xi_accepted`` and ``xi_proposed`` count the groups.

Likelihood targets are line targets.  The family kernel is w y eta - A(y,
eta, scale) (:meth:`Family.log_kernel`), and every update moves eta along a
line eta_0 + c x, so up to a constant the log-likelihood there is x w (y . c)
- sum A(y, eta_0 + c x).  Each slice update, indicator draw and xi column
update computes w (y . c) once (per group for xi) and evaluates only A,
through ``_ll_terms``, at each point; the xi step's Newton steps use A' and
A'' instead.

Without a given state, a chain starts near a point estimate, overdispersed
after Gelman & Rubin (1992) so that chains set out from different points.
theta, phi, the indicators, r and m are one ``sample_prior`` draw.  beta is
drawn from N(b, 4 H^-1) around the ridge-IRLS estimate b of the GLM with the
random effects at 0, H its Newton precision (``_ridge_irls``); lam = 0.5,
tau2 = kappa = 1, the family scale is 1 and xi ~ N(0, 1).  A start whose
log-likelihood is not finite raises ``SamplerError``.  Every start, drawn or
given, then takes what the mode fixes (``model.fix_mode``).

The family scale has one update per kind.  The NB overdispersion r is
slice-updated on u = log r, whose prior draws span tens of orders of
magnitude: the target is ``Family.log_likelihood`` at the cached predictor
plus ``priors.scale_logpdf``, the terms ``log_posterior`` adds up, plus the
Jacobian u.  Its slice width is on the log scale.
The gaussian sigma2 is drawn from its inverse-gamma full conditional.

Slice widths live in one store, ``widths``: a :class:`_Width` per parameter
group keyed ``(kind, block)`` (block None for the fixed effects and the
dispersion).  Every width starts at 1.0.  While ``adapting`` is set, each
slice update adds its new value to its coordinate's running sums
(``_slice``), and from a coordinate's 20th value on its width is 2.5 running
standard deviations, clipped to [1e-4, 1e4].  Pseudo-prior draws of excluded
coordinates never reach the store, because they take no slice update: they
follow the heavy-tailed prior and would widen the slices of included ones.

The engine reads its data from ``self.data`` and caches one quantity, the
full linear predictor ``_eta`` of the current state.  Each update that moves
a term of eta moves the cache by that term's change; an indicator flip moves
it by a delta, since the on and off loadings Lambda_eff Gamma_eff differ
only in row k and column k.  Every such term reads the loadings from
:func:`cholesky.mask_factors`, the one membership rule.  At the end
of every scan, ``recompute_caches`` bounds float drift with the full sum,
:func:`model.linear_predictor` over each block's ``_block_eta``, and
``log_posterior`` reads the cache it leaves.  Code that edits ``state``
directly must call ``recompute_caches`` before the next update or
``log_posterior``.  ``scan`` owns the ``np.errstate`` guard for overflow and
invalid operations in the likelihood loop, so the per-evaluation code runs
unguarded; the xi step adds a guard for division by zero.
"""

import logging
import math

import numpy as np

from .errors import SamplerError
from .model import Dataset, ModelDims, ModelSpec, ParameterState, block_term, fix_mode, linear_predictor
# total_log_likelihood is unused here but stays importable: bench/child.py wraps engine.total_log_likelihood
from .model import total_log_likelihood  # noqa: F401
from .priors import (
    SIGMA2_IG_SCALE,
    SIGMA2_IG_SHAPE,
    draw_correlations,
    draw_latent,
    draw_shrinkage,
    draw_slab,
    draw_xi,
    log_prior_state,
    sample_gig,
    sample_invgamma,
    sample_modified_halfnormal,
    sample_prior,
    scale_logpdf,
)
from .slicing import SliceStats, slice_update
from . import cholesky

# no update calls it; bench/child.py wraps the name at --trace 1, so it stays until the benchmark
# drops that probe, together with the total_log_likelihood re-import and the zero-count _SLICE_KINDS
slice_update_vec = None

__all__ = ["GibbsEngine"]

log = logging.getLogger(__name__)

# phi, xi, kappa and m take no slice updates; their counters stay 0 but remain, for reports that list every kind
_SLICE_KINDS = ("beta", "phi", "lam", "r", "xi", "kappa", "m", "dispersion")
_WIDTH_MIN = 1e-4
_WIDTH_MAX = 1e4
_ADAPT_MIN_COUNT = 20
# the mode search of the xi proposal, GibbsEngine._group_laplace, and of the start's beta, GibbsEngine._ridge_irls
_NEWTON_MAX_STEPS = 30
_NEWTON_MAX_ETA_STEP = 2.0
_NEWTON_TOL = 0.1


class _Width:
    """Slice widths of one parameter group, with the running sums that adapt them."""

    def __init__(self, size: int):
        self.width = np.ones(size)
        # Python numbers: add runs after every adapting slice update, and numpy scalar arithmetic costs about 4x as much
        self.count = [0] * size
        self.total = [0.0] * size
        self.total_sq = [0.0] * size

    def add(self, j: int, x: float) -> None:
        """Add a draw x of coordinate j; from its 20th draw on, its width is 2.5 running standard deviations."""
        count = self.count[j] = self.count[j] + 1
        total = self.total[j] = self.total[j] + x
        total_sq = self.total_sq[j] = self.total_sq[j] + x * x
        if count >= _ADAPT_MIN_COUNT:
            mean = total / count
            sd = math.sqrt(max(total_sq / count - mean * mean, 0.0))
            self.width[j] = min(max(2.5 * sd, _WIDTH_MIN), _WIDTH_MAX)


class GibbsEngine:
    """Holds the data, the current state and its cached linear predictor."""

    def __init__(
        self,
        spec: ModelSpec,
        data: Dataset,
        rng: np.random.Generator,
        state: ParameterState | None = None,
    ):
        self.spec = spec
        self.data = data
        self.rng = rng
        self.dims = ModelDims.of(spec, data)
        spec.family.validate_response(data.y)
        self.hyper = spec.hyper
        pi = spec.hyper.prior_inclusion
        self._prior_log_odds = math.log(pi) - math.log1p(-pi)
        self.mode = spec.mode
        self.adapting = False
        self._scale_attr = spec.family.scale  # the state field is cached: every likelihood evaluation reads it
        self._wy = spec.family.kernel_w * data.y  # w y: the slope of the kernel's linear term is _wy . c
        self._update_scale = {"dispersion": self._update_dispersion, "sigma2": self._update_sigma2}.get(self._scale_attr)

        drawn = state is None
        self.state = self._draw_start() if drawn else state.copy()
        self.state.check_dims(self.dims)
        fix_mode(self.state, self.mode)

        self.widths = {("beta", None): _Width(self.dims.l)}
        for bi, (q, _) in enumerate(self.dims.blocks):
            self.widths["lam", bi] = _Width(q)
            self.widths["r", bi] = _Width(q * (q - 1) // 2)
        if self._scale_attr == "dispersion":
            self.widths["dispersion", None] = _Width(1)
        self.stats = {kind: SliceStats() for kind in _SLICE_KINDS}
        self.xi_accepted = self.xi_proposed = 0  # groups, over every xi column update
        self.recompute_caches()
        if drawn:
            ll = math.nan if np.isnan(self._eta).any() else self.log_likelihood()
            if not math.isfinite(ll):
                raise SamplerError(f"the start has log-likelihood {ll}: the model overflows near the ridge-IRLS estimate")

    # ------------------------------------------------------------------ setup

    def _draw_start(self) -> ParameterState:
        """The start of a chain without a given state (see the module docstring)."""
        start = sample_prior(self.hyper, self.dims, self.rng, self.spec.family)
        with np.errstate(over="ignore", invalid="ignore"):
            b, h = self._ridge_irls()
            chol = np.linalg.cholesky(h)
        start.beta = b + 2.0 * np.linalg.solve(chol.T, self.rng.standard_normal(b.size))  # N(b, 4 H^-1)
        for bs, (q, n_groups) in zip(start.blocks, self.dims.blocks):
            bs.lam, bs.tau2, bs.kappa = np.full(q, 0.5), np.ones(q), np.ones(q)
            bs.xi = draw_xi(self.rng, bs.kappa, n_groups)
        if self._scale_attr is not None:
            setattr(start, self._scale_attr, 1.0)
        return start

    def _ridge_irls(self):
        """The ridge-IRLS estimate b of beta, random effects at 0 and family scale at 1, and H at b.

        Newton steps from 0 on the GLM log-likelihood plus the beta prior at
        theta = sigma2 = 1, with gradient X'(w y - A') - g beta and precision
        H = X' diag(A'') X + g I.  Each step is clipped to +-1 per coordinate,
        since a Poisson step from far away overshoots.  The steps stop once
        step' H step is below ``_NEWTON_TOL`` squared, or after
        ``_NEWTON_MAX_STEPS`` of them.
        """
        data, family, g = self.data, self.spec.family, self.hyper.g_shrink
        scale = None if self._scale_attr is None else 1.0
        ridge = g * np.eye(self.dims.l)

        def derivatives(beta):
            a1, a2 = family.kernel_a_derivatives(data.y, linear_predictor(data.X, beta, offset=data.offset), scale)
            return data.X.T @ (self._wy - a1) - g * beta, (data.X.T * a2) @ data.X + ridge

        beta = np.zeros(self.dims.l)
        for _ in range(_NEWTON_MAX_STEPS):
            grad, h = derivatives(beta)
            step = np.clip(np.linalg.solve(h, grad), -1.0, 1.0)
            beta += step
            if not step @ h @ step > _NEWTON_TOL**2:  # a NaN step stops too
                break
        return beta, derivatives(beta)[1]

    # ------------------------------------------------------- cached predictor

    def _gamma_eff(self, bi: int):
        """lam_eff and effective Gamma of block bi under the current state."""
        bs = self.state.blocks[bi]
        return cholesky.mask_factors(bs.lam, bs.r, bs.include)

    def _block_eta(self, bi: int) -> np.ndarray:
        bs = self.state.blocks[bi]
        return block_term(self.data.blocks[bi], bs.lam, bs.r, bs.include, bs.xi)

    def recompute_caches(self) -> None:
        terms = map(self._block_eta, range(len(self.data.blocks)))
        self._eta = linear_predictor(self.data.X, self.state.beta_eff(), terms, self.data.offset)

    # ------------------------------------------------------------- likelihood

    def _ll_terms(self, eta: np.ndarray) -> np.ndarray:
        """Per-observation A(y, eta, scale) of the family kernel w y eta - A."""
        field = self._scale_attr
        return self.spec.family.kernel_a(self.data.y, eta, getattr(self.state, field) if field else None)

    def _line(self, eta0: np.ndarray, c: np.ndarray):
        """The log-likelihood along eta0 + c x up to a constant: x -> x w (y . c) - sum A(y, eta0 + c x)."""
        slope = float(self._wy @ c)

        def ll(x):
            return x * slope - self._ll_terms(eta0 + c * x).sum()

        return ll

    def _group_lines(self, bi: int, eta0: np.ndarray, c: np.ndarray):
        """Per group g of block bi, the log-likelihood of its rows along eta0 + c x_g, up to a constant.

        The returned function maps a vector x of one value per group to the
        vector of x_g w (y . c)_g - sum_{rows of g} A; its ``slope`` holds the
        vector w (y . c).
        """
        bdata = self.data.blocks[bi]
        groups, n_groups = bdata.groups, bdata.n_groups
        slope = np.bincount(groups, weights=self._wy * c, minlength=n_groups)

        def ll(x):
            return x * slope - np.bincount(groups, weights=self._ll_terms(eta0 + c * x[groups]), minlength=n_groups)

        ll.slope = slope
        return ll

    def log_likelihood(self) -> float:
        """Full log-likelihood (constants included) at the cached predictor."""
        family = self.spec.family
        return float(np.sum(family.log_likelihood(self.data.y, self._eta, family.scale_of(self.state))))

    def log_posterior(self) -> float:
        return self.log_likelihood() + log_prior_state(self.hyper, self.state, self.spec.family)

    # ---------------------------------------------------------- slice updates

    def _slice(self, key: tuple, j: int, target, x0, lower: float) -> float:
        """One slice update of coordinate j of parameter group ``key``; while ``adapting``, the new value tunes its width."""
        width = float(self.widths[key].width[j])
        x = slice_update(target, float(x0), width, self.rng, lower=lower, stats=self.stats[key[0]])
        if self.adapting:
            self._adapt_widths(key, j, x)
        return x

    def _adapt_widths(self, key: tuple, j: int, x: float) -> None:
        self.widths[key].add(j, x)

    def _slice_along(self, key: tuple, j: int, c, old, var, x0, lower: float = -math.inf) -> float:
        """Slice update of coordinate j of ``key``, whose term in eta is ``c * x``, under a N(0, var) prior.

        ``old`` is the value the cached eta holds and ``x0`` the start point.
        Moves the cached eta to the new value.
        """
        eta_minus = self._eta - c * old
        line = self._line(eta_minus, c)
        new = self._slice(key, j, lambda x: line(x) - 0.5 * x * x / var, x0, lower)
        self._eta = eta_minus + c * new
        return new

    # ---------------------------------------------------------- fixed effects

    def _inclusion_prob(self, ll_on: float, ll_off: float) -> float:
        """The logistic of the prior log-odds plus ll_on - ll_off; 0 or 1 at infinite differences."""
        if math.isinf(ll_on) and math.isinf(ll_off):
            raise SamplerError("both indicator branches have -inf likelihood")
        x = self._prior_log_odds + ll_on - ll_off
        try:
            return 1.0 / (1.0 + math.exp(-x))
        except OverflowError:  # exp(-x) overflows below x = -709.78, where the probability is 0
            return 0.0

    def _draw_indicator(self, eta_off: np.ndarray, delta: np.ndarray) -> bool:
        """Draw an indicator whose term in eta is ``delta`` from its full conditional; the cache keeps the drawn eta.

        ``eta_off`` is eta with the indicator off.  On the line eta_off + delta x,
        x = 1 is on and x = 0 is off.
        """
        eta_on = eta_off + delta
        ll_on = float(self._wy @ delta) - self._ll_terms(eta_on).sum()
        on = self.rng.random() < self._inclusion_prob(ll_on, -self._ll_terms(eta_off).sum())
        self._eta = eta_on if on else eta_off
        return on

    def _update_J(self, p: int) -> None:
        st = self.state
        delta = self.data.X[:, p] * st.beta[p]
        eta_off = self._eta - delta if st.J[p] else self._eta
        st.J[p] = self._draw_indicator(eta_off, delta)

    def _update_beta(self, p: int) -> None:
        """Slice update of an included beta_p; an excluded one is redrawn in ``_update_theta_phi``."""
        st = self.state
        if st.J[p]:
            var = st.sigma2 / (self.hyper.g_shrink * st.theta[p])
            st.beta[p] = self._slice_along(("beta", None), p, self.data.X[:, p], st.beta[p], var, st.beta[p])

    def _update_theta_phi(self) -> None:
        """The shrinkage latents of every fixed effect, by exact draws.

        Included p: theta_p | beta_p, phi_p ~ Gamma(3/2, rate phi_p^2/2 +
        g beta_p^2/(2 sigma2)), then phi_p | theta_p.  An excluded p leaves
        the likelihood alone, so (phi_p, theta_p, beta_p) is drawn from its
        prior, its full conditional, by ``draw_shrinkage``.
        """
        st = self.state
        g = self.hyper.g_shrink
        on = st.J == 1
        if on.any():
            rate = st.phi[on] ** 2 / 2.0 + g * st.beta[on] ** 2 / (2.0 * st.sigma2)
            st.theta[on] = self.rng.standard_gamma(1.5, rate.shape) / rate
            st.phi[on] = sample_modified_halfnormal(self.rng, st.theta[on])
        off = ~on
        if off.any():
            st.phi[off], st.theta[off], st.beta[off] = draw_shrinkage(self.rng, (np.count_nonzero(off),), st.sigma2, g)

    # --------------------------------------------------------- random effects

    def _flip_delta(self, bi: int, k: int) -> np.ndarray:
        """The term of eta that including effect k of block bi adds, at the current raw values.

        Off zeroes row and column k of the loadings (the exclusion
        invariant), so on - off is row k and column k of the on loadings,
        read from ``mask_factors`` with include[k] set to 1.
        """
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        on = bs.include.copy()
        on[k] = 1
        lam_eff, gamma = cholesky.mask_factors(bs.lam, bs.r, on)
        row = lam_eff[k] * gamma[k, :]
        col = lam_eff * gamma[:, k]
        col[k] = 0.0  # row k holds the diagonal loading
        delta = bdata.Z[:, k] * (bs.xi @ row)[bdata.groups]
        if col.any():
            delta += (bdata.Z @ col) * bs.xi[bdata.groups, k]
        return delta

    def _update_I(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        delta = self._flip_delta(bi, k)
        eta_off = self._eta - delta if bs.include[k] else self._eta
        # raw lam/r/xi densities cancel between branches (same slab pseudo-priors
        # and Sigma_r = I), so the odds reduce to prior odds times the LR
        bs.include[k] = self._draw_indicator(eta_off, delta)

    def _update_lambda(self, bi: int, k: int) -> None:
        """Slice update of an included lam_k; an excluded one is redrawn in ``_update_tau2``."""
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        if not bs.include[k]:
            return
        slab_var = bs.tau2[k] * self.hyper.h**2
        _, gamma = self._gamma_eff(bi)
        gxi_k = bs.xi @ gamma[k, :]
        c = bdata.Z[:, k] * gxi_k[bdata.groups]
        old = float(bs.lam[k])
        bs.lam[k] = self._slice_along(("lam", bi), k, c, old, slab_var, old if old > 0.0 else 1e-12, 0.0)

    def _update_tau2(self, bi: int) -> None:
        """The slab variances of block bi, by exact draws.

        Included k: tau2_k | lam_k ~ IG(nu/2 + 1/2, v/2 + lam_k^2 / (2 h^2)).
        An excluded k leaves the likelihood alone, so (tau2_k, lam_k) is drawn
        from its prior by ``draw_slab``.
        """
        bs = self.state.blocks[bi]
        hyper = self.hyper
        h2 = hyper.h**2
        on = bs.include == 1
        if on.any():
            bs.tau2[on] = sample_invgamma(self.rng, hyper.nu / 2.0 + 0.5, hyper.v / 2.0 + bs.lam[on] ** 2 / (2.0 * h2))
        off = ~on
        if off.any():
            bs.tau2[off], bs.lam[off] = draw_slab(self.rng, (np.count_nonzero(off),), hyper)

    def _update_r(self, bi: int) -> None:
        """The packed correlations r of block bi, each under its N(0, 1) prior.

        An entry outside ``cholesky.live_pairs`` leaves eta alone, so all
        such entries are drawn at once from that prior; each live entry takes
        a slice update.
        """
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        rows, cols = cholesky.tril_pairs(bdata.q)
        live = cholesky.live_pairs(self._gamma_eff(bi)[0])
        bs.r[~live] = draw_correlations(self.rng, live.size - np.count_nonzero(live))
        for j in np.flatnonzero(live):
            u, v = rows[j], cols[j]
            c = bdata.Z[:, u] * (bs.lam[u] * bs.xi[bdata.groups, v])
            bs.r[j] = self._slice_along(("r", bi), j, c, bs.r[j], 1.0, bs.r[j])

    def _group_laplace(self, bi: int, eta0: np.ndarray, c: np.ndarray, slope: np.ndarray, precision: float):
        """Per group g of block bi, the mode m_g of its line target t_g and H_g = -t_g''(m_g).

        t_g(x) = x slope_g - sum_{rows of g} A(eta0 + c x) - precision x^2 / 2
        is concave, so Newton steps from 0 find m_g.  Each step moves a
        group's eta by at most ``_NEWTON_MAX_ETA_STEP``, since A may grow like
        exp(eta) and a full step up can overshoot by far.  The search stops
        after the step in which every group's step was below ``_NEWTON_TOL``
        of its 1/sqrt(H), or after ``_NEWTON_MAX_STEPS`` steps.  A group whose
        c is all zero has no cap; the caller guards that division by zero.
        """
        groups, n_groups = self.data.blocks[bi].groups, self.data.blocks[bi].n_groups
        family, field = self.spec.family, self._scale_attr
        scale = getattr(self.state, field) if field else None
        c2 = c * c

        def derivatives(x):
            a1, a2 = family.kernel_a_derivatives(self.data.y, eta0 + c * x[groups], scale)
            grad = slope - np.bincount(groups, weights=c * a1, minlength=n_groups) - precision * x
            return grad, np.bincount(groups, weights=c2 * a2, minlength=n_groups) + precision

        reach = np.zeros(n_groups)
        np.maximum.at(reach, groups, np.abs(c))
        cap = _NEWTON_MAX_ETA_STEP / reach  # the step of x that moves the group's eta by the cap
        m = np.zeros(n_groups)
        for _ in range(_NEWTON_MAX_STEPS):
            grad, h = derivatives(m)
            step = np.minimum(np.maximum(grad / h, -cap), cap)
            m += step
            if not np.any(step * step * h > _NEWTON_TOL**2):  # NaN lanes are out of the count
                break
        return m, derivatives(m)[1]

    def _update_xi_col(self, bi: int, k: int) -> None:
        """One Metropolis-Hastings step for every group's xi_gk of an included column k at once.

        Group g's xi_gk enters only its own rows, along eta0 + c xi_gk with c
        = Z (column k of the loadings), so the groups are independent
        targets.  Each is proposed from ``_group_laplace`` and accepted with
        log ratio t_g(x') - t_g(x) + log q(x) - log q(x').
        """
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        groups, n_groups = bdata.groups, bdata.n_groups
        if not bs.include[k]:
            return
        precision = 1.0 / bs.kappa[k]
        lam_eff, gamma = self._gamma_eff(bi)
        c = bdata.Z @ (lam_eff * gamma[:, k])
        x0 = bs.xi[:, k].copy()
        eta0 = self._eta - c * x0[groups]
        line = self._group_lines(bi, eta0, c)
        with np.errstate(divide="ignore"):
            m, h = self._group_laplace(bi, eta0, c, line.slope, precision)
            z = self.rng.standard_normal(n_groups)
            prop = m + z / np.sqrt(h)
            log_u = np.log(self.rng.random(n_groups))
            t_prop = line(prop) - 0.5 * precision * prop * prop
            t_old = line(x0) - 0.5 * precision * x0 * x0
            # log q(x0) - log q(prop), without the 0.5 log h that cancels
            log_ratio = t_prop - t_old - 0.5 * (h * (x0 - m) ** 2 - z * z)
            ok = np.isfinite(m) & np.isfinite(h) & np.isfinite(t_prop)
            accept = ok & (log_u < log_ratio)
        self.xi_proposed += n_groups
        self.xi_accepted += int(np.count_nonzero(accept))
        new = np.where(accept, prop, x0)
        bs.xi[:, k] = new
        self._eta = self._eta + c * (new - x0)[groups]

    def _update_kappa_m(self, bi: int) -> None:
        """The latent-effect variances of block bi, by exact draws.

        Included k: kappa_k | xi_k, m_k ~ GIG(1 - n_groups/2, sum_g xi_gk^2,
        m_k^2), then m_k | kappa_k.  An excluded k leaves the likelihood
        alone, so (m_k, kappa_k, xi[:, k]) is drawn from its prior by ``draw_latent``.
        """
        bs = self.state.blocks[bi]
        n_groups = bs.xi.shape[0]
        on = bs.include == 1
        if on.any():
            xi_on = bs.xi[:, on]
            bs.kappa[on] = sample_gig(self.rng, 1.0 - 0.5 * n_groups, np.einsum("gk,gk->k", xi_on, xi_on), bs.m[on] ** 2)
            bs.m[on] = sample_modified_halfnormal(self.rng, bs.kappa[on])
        off = ~on
        if off.any():
            bs.m[off], bs.kappa[off], bs.xi[:, off] = draw_latent(self.rng, (np.count_nonzero(off),), n_groups)

    # --------------------------------------------------------- family scales

    def _update_dispersion(self) -> None:
        """Slice update of the NB dispersion r on u = log r, whose target carries the Jacobian u."""
        family = self.spec.family

        def tgt(u):
            r = float(np.exp(u))
            if not 0.0 < r < math.inf:  # u past the float range of r
                return -math.inf
            ll = float(np.sum(family.log_likelihood(self.data.y, self._eta, r)))
            return ll + scale_logpdf(r, "dispersion") + u

        u = self._slice(("dispersion", None), 0, tgt, math.log(self.state.dispersion), -math.inf)
        self.state.dispersion = float(np.exp(u))

    def _update_sigma2(self) -> None:
        st = self.state
        resid = self.data.y - self._eta
        ssr = float(resid @ resid)
        quad = float(np.sum(self.hyper.g_shrink * st.theta * st.beta**2))
        shape = SIGMA2_IG_SHAPE + 0.5 * (self.data.n_obs + self.dims.l)
        scale = SIGMA2_IG_SCALE + 0.5 * ssr + 0.5 * quad
        st.sigma2 = float(sample_invgamma(self.rng, shape, scale))

    # ------------------------------------------------------------------- scan

    def scan(self) -> None:
        """One full Gibbs sweep over every parameter."""
        with np.errstate(over="ignore", invalid="ignore"):
            select = self.mode != "no-selection"
            for p in range(self.dims.l):
                if select:
                    self._update_J(p)
                self._update_beta(p)
            self._update_theta_phi()
            for bi, bdata in enumerate(self.data.blocks):
                q = bdata.q
                for k in range(q):
                    if select:
                        self._update_I(bi, k)
                    self._update_lambda(bi, k)
                self._update_tau2(bi)
                if self.mode != "ssvs-diagonal" and q > 1:
                    self._update_r(bi)
                for k in range(q):
                    self._update_xi_col(bi, k)
                self._update_kappa_m(bi)
            if self._update_scale is not None:
                self._update_scale()
            self.recompute_caches()
            self.check_exclusion_invariant()

    # -------------------------------------------------------------- invariant

    def check_exclusion_invariant(self) -> None:
        """Excluded effects must contribute exact zeros to Omega and eta.

        Omega[k, k] = |L[k]|^2 for the loadings L, so with L finite, row k of
        Omega = L L^T is nonzero exactly when row k of L is (bar underflow):
        that is the leak in Omega; a nonzero column k alone leaks into eta.
        """
        for bi, bs in enumerate(self.state.blocks):
            excluded = np.flatnonzero(bs.include == 0)
            if not excluded.size:
                continue
            lam_eff, gamma = self._gamma_eff(bi)
            lg = lam_eff[:, None] * gamma
            bad_omega = (lg[excluded, :] != 0.0).any(axis=1)
            bad = bad_omega | (lg[:, excluded] != 0.0).any(axis=0)
            if bad.any():
                i = int(np.argmax(bad))
                k = excluded[i]
                if bad_omega[i]:
                    raise SamplerError(f"exclusion invariant violated in Omega (block {bi}, k {k})")
                raise SamplerError(f"excluded effect {k} contributes to eta (block {bi})")

"""Metropolis-within-Gibbs engine.

One scan sweeps, in a fixed order: fixed-effect indicators and coefficients,
their shrinkage latents, then per random-effect block the inclusion
indicators, scales, correlations, latent effects and their hierarchy, and
finally the family dispersion.  Continuous coordinates use slice updates;
indicators use their exact Bernoulli full conditionals (the likelihood ratio
times prior odds, valid because excluded raw values keep their slab density
as a pseudo-prior).  Excluded raw values are refreshed from the prior each
scan to keep indicator flips mobile.

Without a given state, a chain starts at a prior draw whose likelihood is
finite.  The search draws candidates ``_START_BATCH`` at a time with
``sample_prior(..., n=...)``, computes their predictors and log-likelihoods
as (n, n_obs) arrays, and keeps the first finite one in draw order, so the
start is exactly the prior conditioned on a finite likelihood.  Candidates
are screened with what the mode fixes already set (r = 0 in ssvs-diagonal),
as their chains would start.  A candidate with a NaN predictor counts as
infeasible.  After ``_START_BUDGET`` candidates the search raises
``SamplerError``.  On the paper's full-scale design about 1 in 500 prior
draws is feasible in the ssvs modes, and none in ``no-selection``.

The family scale has one update per kind.  The NB overdispersion is
slice-updated on the sum of ``Family.log_likelihood`` at the cached predictor
plus its ``Scale.log_prior``, the same formulas ``log_posterior`` adds up.
The gaussian sigma2 is drawn from its inverse-gamma full conditional.

Slice widths live in one store, ``widths``: a :class:`_Width` per parameter
group keyed ``(kind, block)`` (block None for the fixed effects and the
dispersion).  Every width starts at 1.0.  While ``adapting`` is set, each scan
adds the group's draws as a (rows, size) batch, averaged over rows (the groups
of xi; a single row elsewhere), and from the 20th scan on each width is 2.5
running standard deviations, clipped to [1e-4, 1e4].

The engine reads its data from ``self.data`` and caches one quantity, the
full linear predictor ``_eta`` of the current state.  Each update that moves
a term of eta moves the cache by that term's change; an indicator flip moves
it by a delta, since the on and off loadings Lambda_eff Gamma_eff differ only
in row k and column k.  A full recompute at the end of every scan bounds
float drift, and ``log_posterior`` reads the cache it leaves.  Code that
edits ``state`` directly must call ``recompute_caches`` before the next
update or ``log_posterior``.  ``scan`` owns the ``np.errstate`` guard for
overflow in the likelihood loop, so the per-evaluation code runs unguarded.
"""

import logging
import math

import numpy as np

from .errors import SamplerError
from .families import SIGMA2_IG_SCALE, SIGMA2_IG_SHAPE, scale_field
from .model import Dataset, ModelDims, ModelSpec, ParameterState, block_predictor, linear_predictor
# total_log_likelihood is unused here but stays importable: bench/child.py wraps engine.total_log_likelihood
from .model import total_log_likelihood  # noqa: F401
from .priors import (
    log_prior_state,
    sample_halfnormal,
    sample_invgamma,
    sample_prior,
)
from .slicing import SliceStats, slice_update, slice_update_vec
from . import cholesky

__all__ = ["GibbsEngine"]

log = logging.getLogger(__name__)

_SLICE_KINDS = ("beta", "phi", "lam", "r", "xi", "kappa", "m", "dispersion")
_WIDTH_MIN = 1e-4
_WIDTH_MAX = 1e4
_ADAPT_MIN_COUNT = 20
# the start search screens prior draws in batches of _START_BATCH, at most _START_BUDGET of them
_START_BATCH = 32
_START_BUDGET = 20_000


class _Width:
    """Slice widths of one parameter group, with the running sums that adapt them."""

    def __init__(self, size: int):
        self.width = np.ones(size)
        self.count = 0
        self.total = np.zeros(size)
        self.total_sq = np.zeros(size)

    def add(self, draws: np.ndarray) -> None:
        """Add one scan's (rows, size) draws; from the 20th scan, width = 2.5 sd."""
        self.count += 1
        self.total += draws.mean(axis=0)
        self.total_sq += (draws**2).mean(axis=0)
        if self.count >= _ADAPT_MIN_COUNT:
            mean = self.total / self.count
            sd = np.sqrt(np.maximum(self.total_sq / self.count - mean**2, 0.0))
            self.width = np.clip(2.5 * sd, _WIDTH_MIN, _WIDTH_MAX)


class GibbsEngine:
    """Holds the data, the current state and its cached linear predictor."""

    def __init__(
        self,
        spec: ModelSpec,
        data: Dataset,
        rng: np.random.Generator | None = None,
        state: ParameterState | None = None,
    ):
        self.spec = spec
        self.data = data
        self.rng = rng if rng is not None else np.random.default_rng(spec.sampler.seed)
        self.dims = ModelDims.of(spec, data)
        data.validate_for(spec.family)
        self.hyper = spec.hyper
        pi = spec.hyper.prior_inclusion
        self._prior_log_odds = math.log(pi) - math.log1p(-pi)
        self.mode = spec.mode
        self.adapting = False
        self._scale_field = scale_field(spec.family.kind)
        self._update_scale = {"dispersion": self._update_dispersion, "sigma2": self._update_sigma2}.get(self._scale_field)

        if state is None:
            state = self._draw_feasible_start()
        self.state = state.copy()
        self.state.check_dims(self.dims)
        self._fix_by_mode(self.state)

        self.widths = {key: _Width(draws.shape[1]) for key, draws in self._draws().items()}
        self.stats = {kind: SliceStats() for kind in _SLICE_KINDS}
        self.scan_count = 0
        self.recompute_caches()

    # ------------------------------------------------------------------ setup

    def _fix_by_mode(self, state: ParameterState) -> None:
        """Set what the mode fixes, in a state or a batch of them.

        no-selection fixes every indicator at 1 and ssvs-diagonal every r at 0.
        """
        if self.mode == "no-selection":
            state.J[:] = 1
            for bs in state.blocks:
                bs.include[:] = 1
        if self.mode == "ssvs-diagonal":
            for bs in state.blocks:
                bs.r[:] = 0.0

    def _draw_feasible_start(self) -> ParameterState:
        """Prior draw conditioned on a finite likelihood (valid start point).

        Heavy-tailed prior draws can overflow a log link; any support point is
        a legitimate chain start.  The first feasible candidate of the first
        batch that has one is kept (see the module docstring).
        """
        kind = self.spec.family.kind
        for _ in range(_START_BUDGET // _START_BATCH):
            batch = sample_prior(self.hyper, self.dims, self.rng, family_kind=kind, mode=self.mode, n=_START_BATCH)
            self._fix_by_mode(batch)  # screen each candidate as its chain would start
            feasible = self._feasible(batch)
            if feasible.any():
                return batch.take(int(np.argmax(feasible)))
        raise SamplerError(f"could not find a prior draw with finite likelihood in {_START_BUDGET} draws")

    def _feasible(self, batch: ParameterState) -> np.ndarray:
        """Per candidate of a batched prior draw: is its log-likelihood finite?

        A candidate whose linear predictor has a NaN is not; with no
        observations every candidate is.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [(bs.lam, bs.r, bs.include, bs.xi) for bs in batch.blocks]
            eta = linear_predictor(self.data, batch.beta_eff(), blocks)
            nan = np.isnan(eta).any(axis=1)
            eta[nan] = 0.0
            family = self.spec.family
            ll = family.log_likelihood(self.data.y, eta, family.scale_of(batch)).sum(axis=1)
        return ~nan & np.isfinite(ll)

    # ------------------------------------------------------- cached predictor

    def _gamma_eff(self, bi: int):
        """lam_eff and effective Gamma of block bi under the current state."""
        bs = self.state.blocks[bi]
        return cholesky.mask_factors(bs.lam, bs.r, bs.include)

    def _block_eta(self, bi: int, lam_eff, gamma) -> np.ndarray:
        bdata = self.data.blocks[bi]
        return block_predictor(bdata.Z, bdata.groups, self.state.blocks[bi].xi, lam_eff[:, None] * gamma)

    def recompute_caches(self) -> None:
        eta = self.data.X @ self.state.beta_eff()
        for bi in range(len(self.data.blocks)):
            eta = eta + self._block_eta(bi, *self._gamma_eff(bi))
        if self.data.offset is not None:
            eta = eta + self.data.offset
        self._eta = eta

    # ------------------------------------------------------------- likelihood

    def _ll_terms(self, eta: np.ndarray) -> np.ndarray:
        """Per-observation log-likelihood up to eta-independent constants."""
        field = self._scale_field
        return self.spec.family.log_kernel(self.data.y, eta, getattr(self.state, field) if field else None)

    def _ll_sum(self, eta: np.ndarray) -> float:
        return float(self._ll_terms(eta).sum())

    def log_likelihood(self) -> float:
        """Full log-likelihood (constants included) at the cached predictor."""
        if self.data.n_obs == 0:
            return 0.0
        family = self.spec.family
        return float(np.sum(family.log_likelihood(self.data.y, self._eta, family.scale_of(self.state))))

    def log_posterior(self) -> float:
        return self.log_likelihood() + log_prior_state(self.hyper, self.state, self.spec.family.kind)

    # ---------------------------------------------------------- slice updates

    def _slice(self, kind: str, target, x0, width, lower: float = -math.inf) -> float:
        """One slice update of a scalar coordinate; ``kind`` names its stats."""
        return slice_update(target, float(x0), float(width), self.rng, lower=lower, stats=self.stats[kind])

    def _slice_along(self, kind: str, c, old, var, width, x0, lower: float = -math.inf) -> float:
        """Slice update of a coordinate whose term in eta is ``c * x``, under a N(0, var) prior.

        ``old`` is the value the cached eta holds and ``x0`` the start point.
        Moves the cached eta to the new value.
        """
        eta_minus = self._eta - c * old

        def tgt(x):
            return self._ll_sum(eta_minus + c * x) - 0.5 * x * x / var

        new = self._slice(kind, tgt, x0, width, lower)
        self._eta = eta_minus + c * new
        return new

    def _slice_rate(self, kind: str, x0, t, width) -> float:
        """Slice update of a rate latent (phi, m): target 2 log x - x - t x^2 / 2 on x > 0."""
        return self._slice(kind, lambda x: 2.0 * math.log(x) - x - t * x * x / 2.0, x0, width, 0.0)

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

    def _draw_indicator(self, eta_on: np.ndarray, eta_off: np.ndarray) -> bool:
        """Draw an indicator from its full conditional given eta with it on and off; the cache keeps the drawn eta."""
        on = self.rng.random() < self._inclusion_prob(self._ll_sum(eta_on), self._ll_sum(eta_off))
        self._eta = eta_on if on else eta_off
        return on

    def _beta_prior_var(self, p: int) -> float:
        return self.state.sigma2 / (self.hyper.g_shrink * self.state.theta[p])

    def _update_J(self, p: int) -> None:
        st = self.state
        delta = self.data.X[:, p] * st.beta[p]
        eta_off = self._eta - delta if st.J[p] else self._eta
        st.J[p] = self._draw_indicator(eta_off + delta, eta_off)

    def _update_beta(self, p: int) -> None:
        st = self.state
        var_p = self._beta_prior_var(p)
        if st.J[p]:
            width = self.widths["beta", None].width[p]
            st.beta[p] = self._slice_along("beta", self.data.X[:, p], st.beta[p], var_p, width, st.beta[p])
        else:
            st.beta[p] = self.rng.normal(0.0, math.sqrt(var_p))

    def _update_theta_phi(self) -> None:
        st = self.state
        g = self.hyper.g_shrink
        rate = st.phi**2 / 2.0 + g * st.beta**2 / (2.0 * st.sigma2)
        st.theta = self.rng.gamma(1.5, 1.0 / rate)
        widths = self.widths["phi", None].width
        for p in range(self.dims.l):
            st.phi[p] = self._slice_rate("phi", st.phi[p], st.theta[p], widths[p])

    # --------------------------------------------------------- random effects

    def _update_I(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        was_on = bool(bs.include[k])
        bs.include[k] = 1
        lam_eff, gamma = self._gamma_eff(bi)
        bs.include[k] = was_on
        # off zeroes row and column k of the loadings (the exclusion
        # invariant), so on - off is row k and column k of the on loadings
        row = lam_eff[k] * gamma[k, :]
        col = lam_eff * gamma[:, k]
        col[k] = 0.0
        delta = bdata.Z[:, k] * (bs.xi @ row)[bdata.groups]
        if col.any():
            delta += (bdata.Z @ col) * bs.xi[bdata.groups, k]
        eta_off = self._eta - delta if was_on else self._eta
        # raw lam/r/xi densities cancel between branches (same slab pseudo-priors
        # and Sigma_r = I), so the odds reduce to prior odds times the LR
        bs.include[k] = self._draw_indicator(self._eta if was_on else self._eta + delta, eta_off)

    def _update_lambda(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        slab_var = bs.tau2[k] * self.hyper.h**2
        if not bs.include[k]:
            bs.lam[k] = sample_halfnormal(self.rng, slab_var)
            return
        _, gamma = self._gamma_eff(bi)
        gxi_k = bs.xi @ gamma[k, :]
        c = bdata.Z[:, k] * gxi_k[bdata.groups]
        old = float(bs.lam[k])
        width = self.widths["lam", bi].width[k]
        bs.lam[k] = self._slice_along("lam", c, old, slab_var, width, old if old > 0.0 else 1e-12, 0.0)

    def _update_tau2(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        shape = self.hyper.nu / 2.0 + 0.5
        scale = self.hyper.v / 2.0 + bs.lam[k] ** 2 / (2.0 * self.hyper.h**2)
        bs.tau2[k] = sample_invgamma(self.rng, shape, scale)

    def _update_r(self, bi: int, j: int) -> None:
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        rows, cols = cholesky.tril_pairs(bdata.q)
        u, v = int(rows[j]), int(cols[j])
        if not (bs.include[u] and bs.include[v]):
            bs.r[j] = self.rng.normal(0.0, 1.0)
            return
        lam_u = bs.lam[u]
        c = bdata.Z[:, u] * (lam_u * bs.xi[bdata.groups, v])
        # r has a N(0, 1) prior
        bs.r[j] = self._slice_along("r", c, bs.r[j], 1.0, self.widths["r", bi].width[j], bs.r[j])

    def _update_xi_col(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        bdata = self.data.blocks[bi]
        n_groups, groups = bdata.n_groups, bdata.groups
        kappa_k = bs.kappa[k]
        if not bs.include[k]:
            bs.xi[:, k] = self.rng.normal(0.0, math.sqrt(kappa_k), size=n_groups)
            return
        lam_eff, gamma = self._gamma_eff(bi)
        col = lam_eff * gamma[:, k]
        c = bdata.Z @ col
        x0 = bs.xi[:, k].copy()
        eta_minus = self._eta - c * x0[groups]

        def tgt(xvec):
            eta_try = eta_minus + c * xvec[groups]
            per_group = np.bincount(groups, weights=self._ll_terms(eta_try), minlength=n_groups)
            return per_group - 0.5 * xvec**2 / kappa_k

        new = slice_update_vec(tgt, x0, float(self.widths["xi", bi].width[k]), self.rng, stats=self.stats["xi"])
        bs.xi[:, k] = new
        self._eta = self._eta + c * (new - x0)[groups]

    def _update_kappa_m(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        n_groups = bs.xi.shape[0]
        ssq = float(np.sum(bs.xi[:, k] ** 2))
        m_k = bs.m[k]

        def tgt_kappa(x):
            return -0.5 * n_groups * math.log(x) - 0.5 * ssq / x - m_k**2 * x / 2.0

        bs.kappa[k] = self._slice("kappa", tgt_kappa, bs.kappa[k], self.widths["kappa", bi].width[k], 0.0)
        bs.m[k] = self._slice_rate("m", bs.m[k], bs.kappa[k], self.widths["m", bi].width[k])

    # --------------------------------------------------------- family scales

    def _update_dispersion(self) -> None:
        family = self.spec.family

        def tgt(r):
            ll = float(np.sum(family.log_likelihood(self.data.y, self._eta, r)))
            return ll + family.scale.log_prior(r)

        width = self.widths["dispersion", None].width[0]
        self.state.dispersion = self._slice("dispersion", tgt, self.state.dispersion, width, 0.0)

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
                    self._update_tau2(bi, k)
                if self.mode != "ssvs-diagonal":
                    for j in range(q * (q - 1) // 2):
                        self._update_r(bi, j)
                for k in range(q):
                    self._update_xi_col(bi, k)
                for k in range(q):
                    self._update_kappa_m(bi, k)
            if self._update_scale is not None:
                self._update_scale()
            self.recompute_caches()
            self.scan_count += 1
            if self.adapting:
                self._adapt_widths()
            self.check_exclusion_invariant()

    # ------------------------------------------------------------- adaptation

    def _draws(self) -> dict:
        """Each slice-updated parameter group, keyed (kind, block), as (rows, size) draws."""
        st = self.state
        groups = {("beta", None): st.beta, ("phi", None): st.phi}
        for bi, bs in enumerate(st.blocks):
            for kind in ("lam", "r", "xi", "kappa", "m"):
                groups[kind, bi] = getattr(bs, kind)
        if self._scale_field == "dispersion":
            groups["dispersion", None] = st.dispersion
        return {key: np.atleast_2d(draws) for key, draws in groups.items()}

    def _adapt_widths(self) -> None:
        for key, draws in self._draws().items():
            self.widths[key].add(draws)

    # -------------------------------------------------------------- invariant

    def check_exclusion_invariant(self) -> None:
        """Excluded effects must contribute exact zeros to Omega and eta."""
        for bi, bs in enumerate(self.state.blocks):
            excluded = np.flatnonzero(bs.include == 0)
            if not excluded.size:
                continue
            lam_eff, gamma = self._gamma_eff(bi)
            lg = lam_eff[:, None] * gamma
            omega = lg @ lg.T

            def leaks(m):  # per excluded k: row k or column k of m has a nonzero
                return ((m[excluded, :] != 0.0) | (m[:, excluded].T != 0.0)).any(axis=1)

            bad_omega = leaks(omega)
            bad = bad_omega | leaks(lg)
            if bad.any():
                i = int(np.argmax(bad))
                k = excluded[i]
                if bad_omega[i]:
                    raise SamplerError(f"exclusion invariant violated in Omega (block {bi}, k {k})")
                raise SamplerError(f"excluded effect {k} contributes to eta (block {bi})")


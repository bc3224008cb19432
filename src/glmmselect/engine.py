"""Metropolis-within-Gibbs engine.

One scan sweeps, in a fixed order: fixed-effect indicators and coefficients,
their shrinkage latents, then per random-effect block the inclusion
indicators, scales, correlations, latent effects and their hierarchy, and
finally the family dispersion.  Continuous coordinates use slice updates;
indicators use their exact Bernoulli full conditionals (the likelihood ratio
times prior odds, valid because excluded raw values keep their slab density
as a pseudo-prior).  Excluded raw values are refreshed from the prior each
scan to keep indicator flips mobile.

The linear predictor is cached and adjusted incrementally; a full recompute
at the start of every scan bounds float drift.  An indicator flip adjusts the
cached block term by a delta: the on and off loadings Lambda_eff Gamma_eff
differ only in row k and column k.  ``scan`` owns the ``np.errstate`` guard
for overflow in the likelihood loop, so the per-evaluation code runs unguarded.
"""

import logging
import math

import numpy as np
from scipy.special import expit, gammaln, logit

from .errors import ConfigurationError, SamplerError
from .families import NB_DISPERSION_RATE, NB_DISPERSION_SHAPE, SIGMA2_IG_SCALE, SIGMA2_IG_SHAPE, scale_field
from .model import Dataset, ModelDims, ModelSpec, ParameterState, block_predictor, total_log_likelihood
from .priors import (
    log_prior_state,
    sample_halfnormal,
    sample_invgamma,
    sample_prior,
)
from .slicing import SliceStats, slice_update, slice_update_vec
from . import cholesky

__all__ = [
    "GibbsEngine",
    "gibbs_scan",
    "update_indicator",
    "indicator_inclusion_probability",
    "DEFAULT_WIDTHS",
]

log = logging.getLogger(__name__)

DEFAULT_WIDTHS = {
    "beta": 1.0,
    "phi": 1.0,
    "lam": 1.0,
    "r": 1.0,
    "xi": 1.0,
    "kappa": 1.0,
    "m": 1.0,
    "dispersion": 1.0,
}

_WIDTH_MIN = 1e-4
_WIDTH_MAX = 1e4
_ADAPT_MIN_COUNT = 20


class _Welford:
    """Running mean/variance for slice-width adaptation."""

    def __init__(self, shape):
        self.count = 0
        self.total = np.zeros(shape)
        self.total_sq = np.zeros(shape)

    def add(self, values):
        self.count += 1
        self.total += values
        self.total_sq += np.asarray(values) ** 2

    def add_batch(self, values):
        values = np.asarray(values, dtype=float)
        self.count += 1
        self.total += values.mean(axis=0)
        self.total_sq += (values**2).mean(axis=0)

    def std(self):
        mean = self.total / self.count
        var = np.maximum(self.total_sq / self.count - mean**2, 0.0)
        return np.sqrt(var)


class GibbsEngine:
    """Holds data precomputations, the current state, and cached predictors."""

    def __init__(
        self,
        spec: ModelSpec,
        data: Dataset,
        settings=None,
        rng: np.random.Generator | None = None,
        state: ParameterState | None = None,
        assert_invariants: bool = True,
    ):
        self.spec = spec
        self.data = data
        self.settings = settings if settings is not None else spec.sampler
        self.rng = rng if rng is not None else np.random.default_rng(self.settings.seed)
        self.dims = ModelDims.of(spec, data)
        data.validate_for(spec.family)
        self.assert_invariants = assert_invariants
        self.hyper = spec.hyper
        self.mode = spec.mode
        self.adapting = False
        self._scale_field = scale_field(spec.family.kind)
        self._update_scale = {"dispersion": self._update_dispersion, "sigma2": self._update_sigma2}.get(self._scale_field)

        self.y = data.y
        self.n_obs = data.n_obs
        self._Xcols = [np.ascontiguousarray(data.X[:, p]) for p in range(data.l)]
        self._offset = data.offset if data.offset is not None else None
        self._blocks = []
        for bdata in data.blocks:
            self._blocks.append(
                {
                    "Z": np.ascontiguousarray(bdata.Z),
                    "Zcols": [np.ascontiguousarray(bdata.Z[:, k]) for k in range(bdata.q)],
                    "groups": bdata.groups,
                    "n_groups": bdata.n_groups,
                    "q": bdata.q,
                }
            )

        if state is None:
            state = self._draw_feasible_start()
        self.state = state.copy()
        self.state.check_dims(self.dims)
        if self.mode == "no-selection":
            self.state.J[:] = 1
            for bs in self.state.blocks:
                bs.include[:] = 1
        if self.mode == "ssvs-diagonal":
            for bs in self.state.blocks:
                bs.r[:] = 0.0

        self._init_widths()
        self.stats = {name: SliceStats() for name in DEFAULT_WIDTHS}
        self._welford = {}
        self.scan_count = 0
        self._eta = np.zeros(self.n_obs)
        self._eta_block = [np.zeros(self.n_obs) for _ in self._blocks]
        self.recompute_caches()

    # ------------------------------------------------------------------ setup

    def _draw_feasible_start(self) -> ParameterState:
        """Prior draw conditioned on a finite likelihood (valid start point).

        Heavy-tailed prior draws can overflow a log link; any support point is
        a legitimate chain start, so redraw until the likelihood is finite.
        """
        for _ in range(1000):
            state = sample_prior(
                self.hyper, self.dims, self.rng, family_kind=self.spec.family.kind, mode=self.mode
            )
            if self.n_obs == 0 or math.isfinite(total_log_likelihood(self.spec, state, self.data)):
                return state
        raise SamplerError("could not find a prior draw with finite likelihood")

    def _init_widths(self):
        base = dict(DEFAULT_WIDTHS)
        base.update(self.settings.slice_widths or {})
        l = self.dims.l
        self.widths = {
            "beta": np.full(l, float(base["beta"])),
            "phi": np.full(l, float(base["phi"])),
            "dispersion": float(base["dispersion"]),
        }
        self.widths["lam"] = [np.full(q, float(base["lam"])) for q, _ in self.dims.blocks]
        self.widths["r"] = [
            np.full(q * (q - 1) // 2, float(base["r"])) for q, _ in self.dims.blocks
        ]
        self.widths["xi"] = [np.full(q, float(base["xi"])) for q, _ in self.dims.blocks]
        self.widths["kappa"] = [np.full(q, float(base["kappa"])) for q, _ in self.dims.blocks]
        self.widths["m"] = [np.full(q, float(base["m"])) for q, _ in self.dims.blocks]

    # ------------------------------------------------------ cached predictors

    def _gamma_eff(self, bi: int):
        """lam_eff and effective Gamma of block bi under the current state."""
        bs = self.state.blocks[bi]
        return cholesky.mask_factors(bs.lam, bs.r, bs.include)

    def _block_eta(self, bi: int, lam_eff, gamma) -> np.ndarray:
        blk = self._blocks[bi]
        return block_predictor(blk["Z"], blk["groups"], self.state.blocks[bi].xi, lam_eff[:, None] * gamma)

    def recompute_caches(self) -> None:
        eta = self.data.X @ self.state.beta_eff()
        for bi in range(len(self._blocks)):
            lam_eff, gamma = self._gamma_eff(bi)
            self._eta_block[bi] = self._block_eta(bi, lam_eff, gamma)
            eta = eta + self._eta_block[bi]
        if self._offset is not None:
            eta = eta + self._offset
        self._eta = eta

    # ------------------------------------------------------------- likelihood

    def _ll_terms(self, eta: np.ndarray) -> np.ndarray:
        """Per-observation log-likelihood up to eta-independent constants."""
        field = self._scale_field
        return self.spec.family.log_kernel(self.y, eta, getattr(self.state, field) if field else None)

    def _ll_sum(self, eta: np.ndarray) -> float:
        return float(self._ll_terms(eta).sum())

    def log_likelihood(self) -> float:
        """Full log-likelihood (constants included) at the current state."""
        if self.n_obs == 0:
            return 0.0
        self.recompute_caches()
        return float(np.sum(self.spec.family.at_scale(self.state).log_likelihood(self.y, self._eta)))

    def log_posterior(self) -> float:
        return self.log_likelihood() + log_prior_state(self.hyper, self.state, self.spec.family.kind)

    # ---------------------------------------------------------- fixed effects

    def _inclusion_prob(self, ll_on: float, ll_off: float) -> float:
        if math.isinf(ll_on) and math.isinf(ll_off):
            raise SamplerError("both indicator branches have -inf likelihood")
        pi = self.hyper.prior_inclusion
        return float(expit(logit(pi) + ll_on - ll_off))

    def _beta_prior_var(self, p: int) -> float:
        return self.state.sigma2 / (self.hyper.g_shrink * self.state.theta[p])

    def _indicator_pair(self, which):
        """Log-likelihoods with one indicator on and off, and a setter for it.

        ``which`` is ("fixed", p) or ("random", block_index, k).  Returns
        (ll_on, ll_off, set_to); ``set_to(on)`` stores the indicator value and
        the cached predictors of that branch.
        """
        st = self.state
        if which[0] == "fixed":
            p = which[1]
            delta = self._Xcols[p] * st.beta[p]
            eta_off = self._eta - delta if st.J[p] else self._eta
            eta_on = eta_off + delta

            def set_to(on):
                st.J[p] = on
                self._eta = eta_on if on else eta_off

        elif which[0] == "random":
            bi, k = which[1], which[2]
            bs = st.blocks[bi]
            blk = self._blocks[bi]
            groups = blk["groups"]
            saved = bool(bs.include[k])
            bs.include[k] = 1
            lam_eff, gamma = self._gamma_eff(bi)
            bs.include[k] = saved
            # off zeroes row and column k of the loadings (the exclusion
            # invariant), so on - off is row k and column k of the on loadings
            row = lam_eff[k] * gamma[k, :]
            col = lam_eff * gamma[:, k]
            col[k] = 0.0
            delta = blk["Zcols"][k] * (bs.xi @ row)[groups]
            if col.any():
                delta += (blk["Z"] @ col) * bs.xi[groups, k]
            eta_on = self._eta if saved else self._eta + delta
            eta_off = self._eta - delta if saved else self._eta

            def set_to(on):
                if bool(on) != saved:
                    self._eta_block[bi] = self._eta_block[bi] + delta if on else self._eta_block[bi] - delta
                bs.include[k] = on
                self._eta = eta_on if on else eta_off

        else:
            raise ConfigurationError(f"unknown indicator selector {which!r}")
        return self._ll_sum(eta_on), self._ll_sum(eta_off), set_to

    def _update_J(self, p: int) -> None:
        ll_on, ll_off, set_to = self._indicator_pair(("fixed", p))
        set_to(self.rng.random() < self._inclusion_prob(ll_on, ll_off))

    def _update_beta(self, p: int) -> None:
        st = self.state
        var_p = self._beta_prior_var(p)
        if st.J[p]:
            c = self._Xcols[p]
            eta_minus = self._eta - c * st.beta[p]

            def tgt(x):
                return self._ll_sum(eta_minus + c * x) - 0.5 * x * x / var_p

            new = slice_update(
                tgt,
                float(st.beta[p]),
                float(self.widths["beta"][p]),
                self.rng,
                max_stepouts=self.settings.max_stepouts,
                stats=self.stats["beta"],
            )
            st.beta[p] = new
            self._eta = eta_minus + c * new
        else:
            st.beta[p] = self.rng.normal(0.0, math.sqrt(var_p))

    def _update_theta_phi(self) -> None:
        st = self.state
        g = self.hyper.g_shrink
        rate = st.phi**2 / 2.0 + g * st.beta**2 / (2.0 * st.sigma2)
        st.theta = self.rng.gamma(1.5, 1.0 / rate)
        for p in range(self.dims.l):
            theta_p = st.theta[p]

            def tgt(x):
                return 2.0 * math.log(x) - x - theta_p * x * x / 2.0

            st.phi[p] = slice_update(
                tgt,
                float(st.phi[p]),
                float(self.widths["phi"][p]),
                self.rng,
                lower=0.0,
                max_stepouts=self.settings.max_stepouts,
                stats=self.stats["phi"],
            )

    # --------------------------------------------------------- random effects

    def _update_I(self, bi: int, k: int) -> None:
        ll_on, ll_off, set_to = self._indicator_pair(("random", bi, k))
        # raw lam/r/xi densities cancel between branches (same slab pseudo-priors
        # and Sigma_r = I), so the odds reduce to prior odds times the LR
        set_to(self.rng.random() < self._inclusion_prob(ll_on, ll_off))

    def _update_lambda(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        blk = self._blocks[bi]
        slab_var = bs.tau2[k] * self.hyper.h**2
        if not bs.include[k]:
            bs.lam[k] = sample_halfnormal(self.rng, slab_var)
            return
        _, gamma = self._gamma_eff(bi)
        gxi_k = bs.xi @ gamma[k, :]
        c = blk["Zcols"][k] * gxi_k[blk["groups"]]
        old = float(bs.lam[k])
        eta_minus = self._eta - c * old
        x0 = old if old > 0.0 else 1e-12

        def tgt(x):
            return self._ll_sum(eta_minus + c * x) - 0.5 * x * x / slab_var

        new = slice_update(
            tgt,
            x0,
            float(self.widths["lam"][bi][k]),
            self.rng,
            lower=0.0,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["lam"],
        )
        bs.lam[k] = new
        self._eta = eta_minus + c * new
        self._eta_block[bi] = self._eta_block[bi] + c * (new - old)

    def _update_tau2(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        shape = self.hyper.nu / 2.0 + 0.5
        scale = self.hyper.v / 2.0 + bs.lam[k] ** 2 / (2.0 * self.hyper.h**2)
        bs.tau2[k] = sample_invgamma(self.rng, shape, scale)

    def _update_r(self, bi: int, j: int) -> None:
        bs = self.state.blocks[bi]
        blk = self._blocks[bi]
        rows, cols = cholesky.tril_pairs(blk["q"])
        u, v = int(rows[j]), int(cols[j])
        if not (bs.include[u] and bs.include[v]):
            bs.r[j] = self.rng.normal(0.0, 1.0)
            return
        lam_u = bs.lam[u]
        c = blk["Zcols"][u] * (lam_u * bs.xi[blk["groups"], v])
        old = bs.r[j]
        eta_minus = self._eta - c * old

        def tgt(x):
            return self._ll_sum(eta_minus + c * x) - 0.5 * x * x

        new = slice_update(
            tgt,
            float(old),
            float(self.widths["r"][bi][j]),
            self.rng,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["r"],
        )
        bs.r[j] = new
        self._eta = eta_minus + c * new
        self._eta_block[bi] = self._eta_block[bi] + c * (new - old)

    def _update_xi_col(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        blk = self._blocks[bi]
        n_groups = blk["n_groups"]
        kappa_k = bs.kappa[k]
        if not bs.include[k]:
            bs.xi[:, k] = self.rng.normal(0.0, math.sqrt(kappa_k), size=n_groups)
            return
        lam_eff, gamma = self._gamma_eff(bi)
        col = lam_eff * gamma[:, k]
        c = blk["Z"] @ col
        groups = blk["groups"]
        x0 = bs.xi[:, k].copy()
        eta_minus = self._eta - c * x0[groups]

        def tgt(xvec):
            eta_try = eta_minus + c * xvec[groups]
            per_group = np.bincount(groups, weights=self._ll_terms(eta_try), minlength=n_groups)
            return per_group - 0.5 * xvec**2 / kappa_k

        new = slice_update_vec(
            tgt,
            x0,
            float(self.widths["xi"][bi][k]),
            self.rng,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["xi"],
        )
        bs.xi[:, k] = new
        delta = c * (new - x0)[groups]
        self._eta = self._eta + delta
        self._eta_block[bi] = self._eta_block[bi] + delta

    def _update_kappa_m(self, bi: int, k: int) -> None:
        bs = self.state.blocks[bi]
        n_groups = bs.xi.shape[0]
        ssq = float(np.sum(bs.xi[:, k] ** 2))
        m_k = bs.m[k]

        def tgt_kappa(x):
            return -0.5 * n_groups * math.log(x) - 0.5 * ssq / x - m_k**2 * x / 2.0

        bs.kappa[k] = slice_update(
            tgt_kappa,
            float(bs.kappa[k]),
            float(self.widths["kappa"][bi][k]),
            self.rng,
            lower=0.0,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["kappa"],
        )
        kappa_k = bs.kappa[k]

        def tgt_m(x):
            return 2.0 * math.log(x) - x - kappa_k * x * x / 2.0

        bs.m[k] = slice_update(
            tgt_m,
            float(bs.m[k]),
            float(self.widths["m"][bi][k]),
            self.rng,
            lower=0.0,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["m"],
        )

    # --------------------------------------------------------- family scales

    def _update_dispersion(self) -> None:
        mu = np.exp(np.minimum(self._eta, 700.0))
        y = self.y
        n = self.n_obs

        def tgt(r):
            ll = (
                float(np.sum(gammaln(y + r)))
                - n * gammaln(r)
                + n * r * math.log(r)
                - float(np.sum((y + r) * np.log(r + mu)))
            )
            return ll + (NB_DISPERSION_SHAPE - 1.0) * math.log(r) - NB_DISPERSION_RATE * r

        self.state.dispersion = slice_update(
            tgt,
            float(self.state.dispersion),
            float(self.widths["dispersion"]),
            self.rng,
            lower=0.0,
            max_stepouts=self.settings.max_stepouts,
            stats=self.stats["dispersion"],
        )

    def _update_sigma2(self) -> None:
        st = self.state
        resid = self.y - self._eta
        ssr = float(resid @ resid)
        quad = float(np.sum(self.hyper.g_shrink * st.theta * st.beta**2))
        shape = SIGMA2_IG_SHAPE + 0.5 * (self.n_obs + self.dims.l)
        scale = SIGMA2_IG_SCALE + 0.5 * ssr + 0.5 * quad
        st.sigma2 = float(sample_invgamma(self.rng, shape, scale))

    # ------------------------------------------------------------------- scan

    def scan(self) -> None:
        """One full Gibbs sweep over every parameter."""
        with np.errstate(over="ignore", invalid="ignore"):
            self.recompute_caches()
            select = self.mode != "no-selection"
            for p in range(self.dims.l):
                if select:
                    self._update_J(p)
                self._update_beta(p)
            self._update_theta_phi()
            for bi in range(len(self._blocks)):
                q = self._blocks[bi]["q"]
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
            self.scan_count += 1
            if self.adapting:
                self._adapt_widths()
            if self.assert_invariants:
                self.check_exclusion_invariant()

    # ------------------------------------------------------------- adaptation

    def _adapt_widths(self) -> None:
        st = self.state
        self._track("beta", st.beta)
        self._track("phi", st.phi)
        for bi, bs in enumerate(st.blocks):
            self._track(f"lam{bi}", bs.lam, ("lam", bi))
            if bs.r.size:
                self._track(f"r{bi}", bs.r, ("r", bi))
            self._track_batch(f"xi{bi}", bs.xi, ("xi", bi))
            self._track(f"kappa{bi}", bs.kappa, ("kappa", bi))
            self._track(f"m{bi}", bs.m, ("m", bi))
        if st.dispersion is not None:
            self._track("dispersion", np.asarray([st.dispersion]))

    def _welford_for(self, key, shape):
        if key not in self._welford:
            self._welford[key] = _Welford(shape)
        return self._welford[key]

    def _track(self, key, values, target=None):
        w = self._welford_for(key, np.asarray(values).shape)
        w.add(values)
        self._apply_width(key, w, target)

    def _track_batch(self, key, values, target=None):
        w = self._welford_for(key, (np.asarray(values).shape[1],))
        w.add_batch(values)
        self._apply_width(key, w, target)

    def _apply_width(self, key, w, target):
        if w.count < _ADAPT_MIN_COUNT:
            return
        width = np.clip(2.5 * w.std(), _WIDTH_MIN, _WIDTH_MAX)
        if target is None:
            if key == "dispersion":
                self.widths["dispersion"] = float(width[0])
            else:
                self.widths[key] = np.maximum(width, _WIDTH_MIN)
        else:
            name, bi = target
            self.widths[name][bi] = np.maximum(width, _WIDTH_MIN)

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


# ------------------------------------------------------------ functional API


def gibbs_scan(
    state: ParameterState, spec: ModelSpec, data: Dataset, rng: np.random.Generator
) -> ParameterState:
    """One full sweep starting from ``state``; returns the new state."""
    engine = GibbsEngine(spec, data, rng=rng, state=state, assert_invariants=False)
    engine.scan()
    return engine.state


def indicator_inclusion_probability(which, state: ParameterState, spec: ModelSpec, data: Dataset) -> float:
    """Exact full-conditional inclusion probability of one indicator.

    ``which`` is ("fixed", p) or ("random", block_index, k).
    """
    engine = GibbsEngine(
        spec, data, rng=np.random.default_rng(0), state=state, assert_invariants=False
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ll_on, ll_off, _ = engine._indicator_pair(which)
    return engine._inclusion_prob(ll_on, ll_off)


def update_indicator(
    which, state: ParameterState, spec: ModelSpec, data: Dataset, rng: np.random.Generator
) -> ParameterState:
    """Draw one indicator from its exact full conditional; returns a new state."""
    new_state = state.copy()
    p_inc = indicator_inclusion_probability(which, new_state, spec, data)
    value = 1 if rng.random() < p_inc else 0
    if which[0] == "fixed":
        new_state.J[which[1]] = value
    else:
        new_state.blocks[which[1]].include[which[2]] = value
    return new_state

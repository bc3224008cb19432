"""Modified Cholesky factorization of the random-effect covariance.

The covariance of a q-dimensional random-effect vector is written as
``Omega = Lambda @ Gamma @ Gamma.T @ Lambda.T`` where ``Lambda`` is a
diagonal matrix with nonnegative entries ``lam`` and ``Gamma`` is unit
lower-triangular with subdiagonal entries packed row-major into ``r``:
(2,1), (3,1), (3,2), (4,1), ...  Setting ``lam[k] = 0`` removes effect k;
the membership constraint then zeroes row and column k of ``Gamma``
(diagonal stays 1).  That masking is written only here, in
:func:`mask_factors`; :func:`project_constraints` is its checked public form.

Identity rule: when no packed ``r`` entry is nonzero, the effective Gamma is
the identity whatever the indicators, and is returned without masking.
``ssvs-diagonal`` keeps ``r`` at zero and q = 1 has no ``r``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DecompositionError

__all__ = [
    "CholeskyFactors",
    "EffectiveFactors",
    "tril_pairs",
    "gamma_matrix",
    "pack_gamma",
    "project_constraints",
    "mask_factors",
    "assemble_covariance",
    "decompose_covariance",
    "random_effect_vector",
]


@lru_cache(maxsize=64)
def tril_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the packed subdiagonal, in packing order (cached, read-only)."""
    rows, cols = np.tril_indices(q, k=-1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def gamma_matrix(q: int, r: np.ndarray) -> np.ndarray:
    """Expand packed subdiagonal values into the full unit lower-triangular matrix."""
    r = np.asarray(r, dtype=float)
    if r.shape != (q * (q - 1) // 2,):
        raise ConfigurationError(
            f"packed subdiagonal has length {r.size}, expected {q * (q - 1) // 2} for q={q}"
        )
    g = np.eye(q)
    rows, cols = tril_pairs(q)
    g[rows, cols] = r
    return g


def pack_gamma(gamma: np.ndarray) -> np.ndarray:
    """Inverse of :func:`gamma_matrix`: extract packed subdiagonal values."""
    q = gamma.shape[0]
    rows, cols = tril_pairs(q)
    return np.asarray(gamma[rows, cols], dtype=float)


@dataclass(frozen=True)
class CholeskyFactors:
    """Raw factor values before any indicator masking.

    lam : (q,) nonnegative diagonal of Lambda.
    r   : (q*(q-1)/2,) packed subdiagonal of Gamma, row-major.
    """

    lam: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        q = self.lam.shape[0]
        if self.r.shape != (q * (q - 1) // 2,):
            raise ConfigurationError(
                f"r has length {self.r.size}, expected {q * (q - 1) // 2} for q={q}"
            )
        if np.any(self.lam < 0):
            raise ConfigurationError("lam entries must be nonnegative")

    @property
    def q(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class EffectiveFactors:
    """Indicator-masked, constraint-projected factors.

    lam_eff : (q,) with excluded entries exactly zero.
    gamma   : (q, q) unit lower-triangular with row/column k zeroed
              (diagonal 1) wherever lam_eff[k] == 0.
    """

    lam_eff: np.ndarray
    gamma: np.ndarray

    @property
    def q(self) -> int:
        return self.lam_eff.shape[0]

    def loadings(self) -> np.ndarray:
        """Lambda_eff @ Gamma_eff, the map from latent xi to the effect vector."""
        return self.lam_eff[:, None] * self.gamma


def project_constraints(factors: CholeskyFactors, include: np.ndarray) -> EffectiveFactors:
    """Apply inclusion indicators and the zero-row/column membership rule.

    ``include`` is a 0/1 vector of length q.  lam_eff[k] = include[k]*lam[k];
    whenever lam_eff[k] == 0 the whole row k and column k of Gamma are set to
    exact zeros (diagonal kept at 1).  Raw values are not modified.
    """
    include = np.asarray(include)
    if include.shape != factors.lam.shape:
        raise ConfigurationError("indicator vector length does not match lam")
    lam_eff, gamma = mask_factors(factors.lam, factors.r, include)
    return EffectiveFactors(lam_eff=lam_eff, gamma=gamma)


def mask_factors(lam: np.ndarray, r: np.ndarray, include: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`project_constraints` without input checks, as (lam_eff, gamma).

    The caller passes float ``lam`` and ``include`` of length q, and ``r`` of length q(q-1)/2.
    All three may carry the same leading draw axes; gamma is then (..., q, q).
    """
    q = lam.shape[-1]
    lam_eff = np.where(include, lam, 0.0)
    gamma = np.zeros(lam_eff.shape + (q,))
    if np.count_nonzero(r):
        gamma[(..., *tril_pairs(q))] = r
        dead = lam_eff == 0.0
        gamma[dead] = 0.0                          # rows k
        np.swapaxes(gamma, -1, -2)[dead] = 0.0     # columns k
    gamma.reshape(lam_eff.shape[:-1] + (q * q,))[..., :: q + 1] = 1.0   # the diagonal
    return lam_eff, gamma


def assemble_covariance(eff: EffectiveFactors) -> np.ndarray:
    """Omega = Lambda_eff Gamma_eff Gamma_eff' Lambda_eff', exactly symmetric."""
    lg = eff.loadings()
    omega = lg @ lg.T
    # mirror the lower triangle so omega[u, v] and omega[v, u] are bitwise equal
    iu = np.triu_indices(eff.q, k=1)
    omega[iu] = omega.T[iu]
    return omega


def decompose_covariance(omega: np.ndarray, tol: float = 1e-12) -> CholeskyFactors:
    """Recover factors from a symmetric PSD matrix.

    Diagonal entries <= tol are treated as removed effects (lam[k] = 0 and the
    corresponding r entries zero); the remaining principal submatrix must be
    positive definite.  Sign convention lam >= 0.
    """
    omega = np.asarray(omega, dtype=float)
    q = omega.shape[0]
    if omega.shape != (q, q):
        raise DecompositionError("omega must be square")
    if not np.all(np.isfinite(omega)):
        raise DecompositionError("omega has non-finite entries")
    asym = np.max(np.abs(omega - omega.T)) if q else 0.0
    if asym > max(tol, 1e-8 * max(1.0, np.max(np.abs(omega)))):
        raise DecompositionError(f"omega is not symmetric (max asymmetry {asym:.3g})")
    omega = (omega + omega.T) / 2.0

    active = np.diag(omega) > tol
    # a zero-variance effect must not covary with anything
    for k in np.flatnonzero(~active):
        row = np.abs(omega[k, :])
        if np.any(row[np.arange(q) != k] > max(tol, 1e-8)):
            raise DecompositionError(
                f"row {k} has zero variance but nonzero covariances; not PSD within tol"
            )

    lam = np.zeros(q)
    gamma = np.eye(q)
    idx = np.flatnonzero(active)
    if idx.size:
        sub = omega[np.ix_(idx, idx)]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            try:
                chol = np.linalg.cholesky(sub + tol * np.eye(idx.size))
            except np.linalg.LinAlgError as exc:
                raise DecompositionError("active submatrix is not PSD within tol") from exc
        lam[idx] = np.diag(chol)
        gamma[np.ix_(idx, idx)] = chol / np.diag(chol)[:, None]
    return CholeskyFactors(lam=lam, r=pack_gamma(gamma))


def random_effect_vector(eff: EffectiveFactors, xi: np.ndarray) -> np.ndarray:
    """Map latent standard-normal coordinates to the effect vector Lambda Gamma xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (eff.q,):
        raise ConfigurationError(f"xi has shape {xi.shape}, expected ({eff.q},)")
    return eff.loadings() @ xi

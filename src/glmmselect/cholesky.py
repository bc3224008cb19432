"""Modified Cholesky factorization of the random-effect covariance.

The covariance of a q-dimensional random-effect vector is written as
``Omega = Lambda @ Gamma @ Gamma.T @ Lambda.T`` where ``Lambda`` is a
diagonal matrix with nonnegative entries ``lam`` and ``Gamma`` is unit
lower-triangular with subdiagonal entries packed row-major into ``r``:
(2,1), (3,1), (3,2), (4,1), ...  Setting ``lam[k] = 0`` removes effect k;
the membership constraint then zeroes row and column k of ``Gamma``
(diagonal stays 1).  That masking is written only here: :func:`mask_factors`
returns the masked factors as a plain ``(lam_eff, gamma)`` pair, and the map
from latent xi to the effect vector is the loadings ``lam_eff[:, None] *
gamma``; :func:`effect_loadings` gives row k and column k of those loadings
with effect k included, the terms an indicator flip of k adds or removes,
without building the (q, q) matrices.  :func:`decompose_covariance` goes the other
way, from a covariance to a ``(lam, gamma)`` pair of the same form.

Identity rule: when no packed ``r`` entry is nonzero, the effective Gamma is
the identity whatever the indicators, and is returned without masking.
``ssvs-diagonal`` keeps ``r`` at zero and q = 1 has no ``r``.
"""

from functools import lru_cache

import numpy as np

from .errors import DecompositionError

__all__ = ["tril_pairs", "mask_factors", "effect_loadings", "decompose_covariance"]


@lru_cache(maxsize=64)
def tril_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the packed subdiagonal, in packing order (cached, read-only)."""
    rows, cols = np.tril_indices(q, k=-1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def mask_factors(lam: np.ndarray, r: np.ndarray, include: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply inclusion indicators and the zero-row/column membership rule.

    lam_eff[k] = lam[k] where include[k], else 0, and wherever lam_eff[k] == 0
    row k and column k of the unit lower-triangular (q, q) gamma are exact
    zeros (diagonal kept at 1).  Raw values are not modified.  The caller
    passes float ``lam`` and ``include`` of length q, and ``r`` of length
    q(q-1)/2, unchecked.
    """
    q = lam.shape[0]
    lam_eff = np.where(include, lam, 0.0)
    gamma = np.zeros((q, q))
    if np.count_nonzero(r):
        gamma[tril_pairs(q)] = r
        dead = lam_eff == 0.0
        gamma[dead] = 0.0       # rows k
        gamma[:, dead] = 0.0    # columns k
    gamma.reshape(q * q)[:: q + 1] = 1.0   # the diagonal
    return lam_eff, gamma


def effect_loadings(lam: np.ndarray, r: np.ndarray, include: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row k and column k of the loadings ``lam_eff[:, None] * gamma`` with include[k] set to 1.

    The entries equal those of :func:`mask_factors` bit for bit, without the
    (q, q) matrices: row k holds lam[k] r_(k, j) for j < k, column k holds
    lam[j] r_(j, k) for j > k, each where effect j has lam_eff[j] != 0, and
    both hold lam[k] at k.  With lam[k] = 0, or every r zero (the identity
    rule), there are no r terms.
    """
    q = lam.shape[-1]
    row, col = np.zeros(q), np.zeros(q)
    lam_k = lam[k]
    if lam_k != 0.0 and np.count_nonzero(r):
        dead = (lam == 0.0) | (include == 0)  # lam_eff == 0, k aside
        start = k * (k - 1) // 2  # packed (k, 0), ..., (k, k - 1)
        row[:k] = lam_k * r[start : start + k]
        col[k + 1 :] = lam[k + 1 :] * r[_below_index(q, k)]
        row[dead] = col[dead] = 0.0
    row[k] = col[k] = lam_k
    return row, col


@lru_cache(maxsize=256)
def _below_index(q: int, k: int) -> np.ndarray:
    """Packed positions of the entries (j, k), j = k + 1, ..., q - 1 (cached, read-only)."""
    j = np.arange(k + 1, q)
    index = j * (j - 1) // 2 + k
    index.flags.writeable = False
    return index


def decompose_covariance(omega: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(lam, gamma)`` from a symmetric PSD matrix.

    omega = LG @ LG.T for the loadings LG = lam[:, None] * gamma, with gamma
    unit lower-triangular.  Diagonal entries <= tol are treated as removed
    effects (lam[k] = 0 and row and column k of gamma zero off the diagonal);
    the remaining principal submatrix must be positive definite.  Sign
    convention lam >= 0.
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
    return lam, gamma


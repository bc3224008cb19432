"""Modified Cholesky factorization of the random-effect covariance.

The covariance of a q-dimensional random-effect vector is written as
``Omega = Lambda @ Gamma @ Gamma.T @ Lambda.T`` where ``Lambda`` is a
diagonal matrix with nonnegative entries ``lam`` and ``Gamma`` is unit
lower-triangular with subdiagonal entries packed row-major into ``r``:
(2,1), (3,1), (3,2), (4,1), ...  Setting ``lam[k] = 0`` removes effect k;
the membership constraint then zeroes row and column k of ``Gamma``
(diagonal stays 1).  Every function here takes or returns raw ``(lam, r)``
in that packing, and the one road from them to eta is :func:`live_pairs`
(the r entries whose two effects both have lam_eff != 0) ->
:func:`mask_factors` (the masked ``(lam_eff, gamma)`` pair, whose loadings
``lam_eff[:, None] * gamma`` callers read every part of) ->
``model.block_term`` -> ``model.linear_predictor``.
:func:`decompose_covariance` goes the other way, from a covariance to
``(lam, r)``.

Identity rule: when no packed ``r`` entry is nonzero, the effective Gamma is
the identity whatever the indicators, and is returned without masking.
``ssvs-diagonal`` keeps ``r`` at zero and q = 1 has no ``r``.
"""

from functools import lru_cache

import numpy as np

from .errors import DecompositionError

__all__ = ["tril_pairs", "live_pairs", "mask_factors", "decompose_covariance"]

ZERO_VARIANCE_TOL = 1e-12


@lru_cache(maxsize=64)
def tril_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the packed subdiagonal, in packing order (cached, read-only)."""
    rows, cols = np.tril_indices(q, k=-1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def live_pairs(lam_eff: np.ndarray) -> np.ndarray:
    """Which packed r entries move the loadings: those whose two effects both have lam_eff != 0, as a bool mask."""
    rows, cols = tril_pairs(lam_eff.shape[0])
    alive = lam_eff != 0.0
    return alive[rows] & alive[cols]


def mask_factors(lam: np.ndarray, r: np.ndarray, include: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply inclusion indicators and the zero-row/column membership rule.

    lam_eff[k] = lam[k] where include[k], else 0, and gamma is the unit
    lower-triangular (q, q) matrix holding the :func:`live_pairs` entries of
    ``r``, with exact zeros for the others: wherever lam_eff[k] == 0, row k
    and column k of gamma are zero off the diagonal.  Raw values are not
    modified.  The caller passes float ``lam`` and ``include`` of length q,
    and ``r`` of length q(q-1)/2, unchecked.
    """
    q = lam.shape[0]
    lam_eff = np.where(include, lam, 0.0)
    gamma = np.zeros((q, q))
    if np.count_nonzero(r):
        gamma[tril_pairs(q)] = np.where(live_pairs(lam_eff), r, 0.0)
    gamma.reshape(q * q)[:: q + 1] = 1.0   # the diagonal
    return lam_eff, gamma


def decompose_covariance(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the factors ``(lam, r)`` from a symmetric PSD matrix, ``r`` packed in :func:`tril_pairs` order.

    omega = LG @ LG.T for the loadings LG = lam[:, None] * gamma, with gamma
    the unit lower-triangular matrix that holds ``r``.  Diagonal entries <=
    ``ZERO_VARIANCE_TOL`` are treated as removed effects (lam[k] = 0 and
    every r entry of effect k zero), so ``(lam, r)`` is its own masked form
    under :func:`mask_factors` with every effect included.  The remaining
    principal submatrix must be positive definite, after a
    ``ZERO_VARIANCE_TOL`` ridge if need be.  Sign convention lam >= 0.
    """
    omega = np.asarray(omega, dtype=float)
    q = omega.shape[0]
    if omega.shape != (q, q):
        raise DecompositionError("omega must be square")
    if not np.all(np.isfinite(omega)):
        raise DecompositionError("omega has non-finite entries")
    asym = np.max(np.abs(omega - omega.T)) if q else 0.0
    if asym > 1e-8 * max(1.0, np.max(np.abs(omega))):
        raise DecompositionError(f"omega is not symmetric (max asymmetry {asym:.3g})")
    omega = (omega + omega.T) / 2.0

    active = np.diag(omega) > ZERO_VARIANCE_TOL
    # a zero-variance effect must not covary with anything
    for k in np.flatnonzero(~active):
        row = np.abs(omega[k, :])
        if np.any(row[np.arange(q) != k] > 1e-8):
            raise DecompositionError(
                f"row {k} has zero variance but nonzero covariances; not PSD"
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
                chol = np.linalg.cholesky(sub + ZERO_VARIANCE_TOL * np.eye(idx.size))
            except np.linalg.LinAlgError as exc:
                raise DecompositionError("active submatrix is not PSD") from exc
        lam[idx] = np.diag(chol)
        gamma[np.ix_(idx, idx)] = chol / np.diag(chol)[:, None]
    return lam, gamma[tril_pairs(q)]


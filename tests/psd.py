"""The dense PSD rule, the reference that tests check
`thzest.baselines.check_psd_toeplitz` against.

No set-up code builds an N_T x N_T covariance: the package checks the
oracle covariances from their Toeplitz first columns.
"""

import numpy as np


def toeplitz(first_col) -> np.ndarray:
    """The real symmetric Toeplitz matrix with the given first column."""
    first_col = np.asarray(first_col)
    lags = np.arange(len(first_col))
    return first_col[np.abs(np.subtract.outer(lags, lags))]


def check_psd_covariance(channel_cov: np.ndarray) -> None:
    """Raise ValueError unless channel_cov is Hermitian positive semidefinite.

    PSD here means that R + tau I has a Cholesky factor, with tau =
    1e-8 max(1, max_i R_ii).  The largest diagonal entry never exceeds the
    largest eigenvalue, so this rejects every matrix that the eigenvalue
    rule lambda_min < -1e-8 max(1, lambda_max) rejects, at the cost of one
    factorisation instead of an eigendecomposition.
    """
    herm_err = np.max(np.abs(channel_cov - channel_cov.conj().T))
    if herm_err > 1e-8 * max(1.0, np.max(np.abs(channel_cov))):
        raise ValueError("non-PSD covariance: channel_cov is not Hermitian")
    hermitian = 0.5 * (channel_cov + channel_cov.conj().T)
    tau = 1e-8 * max(1.0, float(np.max(np.real(np.diagonal(hermitian)))))
    hermitian[np.diag_indices_from(hermitian)] += tau
    try:
        np.linalg.cholesky(hermitian)
    except np.linalg.LinAlgError:
        raise ValueError("non-PSD covariance: negative eigenvalue") from None


def dense_accepts(first_col) -> bool:
    """Whether the dense rule accepts the Toeplitz matrix of first_col."""
    try:
        check_psd_covariance(toeplitz(first_col))
    except ValueError:
        return False
    return True

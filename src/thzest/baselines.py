"""Reference estimators: least squares, oracle LMMSE, and greedy joint OMP."""

from __future__ import annotations

import numpy as np

from .arrays import SPEED_OF_LIGHT, ArrayConfig


def ls_estimate(pilot_matrix: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from y = B h + noise.

    y is one observation or a P x M stack of them, one per column.  With
    P <= N_T this is the minimum-norm solution B^H (B B^H)^{-1} y; with more
    pilots than antennas it is (B^H B)^{-1} B^H y.  Either way it is one
    GEMM and one solve.  On 32 x 256 pilot matrices the minimum-norm form
    gave identical bytes under OPENBLAS_NUM_THREADS=1 and 2, where `lstsq`
    and `pinv` did not.  The tall form did not, on 300 x 256 ones.
    """
    b_h = pilot_matrix.conj().T
    n_pilots, n_antennas = pilot_matrix.shape
    if n_pilots > n_antennas:
        return np.linalg.solve(b_h @ pilot_matrix, b_h @ y)
    return b_h @ np.linalg.solve(pilot_matrix @ b_h, y)


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
    try:
        np.linalg.cholesky(hermitian + tau * np.eye(hermitian.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError("non-PSD covariance: negative eigenvalue") from None


def mmse_estimate(pilot_matrix: np.ndarray, y: np.ndarray,
                  channel_cov: np.ndarray, noise_var: float) -> np.ndarray:
    """LMMSE estimate R B^H (B R B^H + mu^2 I)^{-1} y.

    Either y is one observation and channel_cov one N_T x N_T covariance,
    or y is P x M and channel_cov an (M, N_T, N_T) stack, one covariance
    per column; the estimate then is N_T x M, from one batched solve.  The
    covariances meet B^H in one GEMM with [Re B^H | Im B^H], so a real
    stack is never copied to complex.  channel_cov must be Hermitian
    positive semidefinite; callers that build it check it once with
    `check_psd_covariance`.
    """
    b_h = pilot_matrix.conj().T
    n_antennas, n_pilots = b_h.shape
    parts = channel_cov.reshape(-1, n_antennas) @ np.concatenate(
        [b_h.real, b_h.imag], axis=1)
    cross = (parts[:, :n_pilots] + 1j * parts[:, n_pilots:]).reshape(
        channel_cov.shape[:-1] + (n_pilots,))
    gram = pilot_matrix @ cross + noise_var * np.eye(pilot_matrix.shape[0])
    return (cross @ np.linalg.solve(gram, y.T[..., np.newaxis]))[..., 0].T


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) = (1/pi) int_0^pi cos(x cos t) dt by the midpoint rule.

    The integrand is even and 2*pi-periodic in t, so n midpoints miss only
    the Fourier terms J_{2kn}(x), k >= 1.  With n > max|x| + 32 those fall
    below rounding.  It is also even about t = pi/2, so the sum doubles the
    first n//2 nodes and, for odd n, adds the middle node's cos(0) = 1.
    """
    x = np.asarray(x, dtype=float)
    n = int(np.max(np.abs(x), initial=0.0)) + 33
    t = (np.arange(n // 2) + 0.5) * (np.pi / n)
    half = np.sum(np.cos(np.multiply.outer(x, np.cos(t))), axis=-1)
    return (2.0 * half + n % 2) / n


def oracle_covariance(config: ArrayConfig, freq_hz: float) -> np.ndarray:
    """Channel covariance under the uniform direction prior, in closed form.

    For a single unit-power path, R = N_T * E{a'(theta) a'^H(theta)} with the
    physical angle uniform over [-pi/2, pi/2] and the steering evaluated at
    the subcarrier frequency (so the prior already carries the split).
    Entry (i, k) is E{exp(j kappa (i - k) sin theta)} = J0(kappa |i - k|)
    with kappa = 2 pi d f / c0: a real symmetric Toeplitz matrix.
    """
    kappa = 2.0 * np.pi * config.element_spacing_m * freq_hz / SPEED_OF_LIGHT
    idx = np.arange(config.n_antennas)
    first_col = _bessel_j0(kappa * idx)
    return first_col[np.abs(idx[:, np.newaxis] - idx[np.newaxis, :])]


def omp_estimate_joint(pilot_matrix: np.ndarray, atoms: np.ndarray,
                       received: np.ndarray, sparsity: int):
    """OMP with a single support shared by every subcarrier.

    Atom selection maximizes the correlation energy summed over subcarriers;
    per-subcarrier gains are then refit by least squares on the common
    support.  This is the split-blind wideband baseline: it presumes the
    beamspace support does not move with frequency.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1")
    sensed = pilot_matrix @ atoms
    col_norms = np.linalg.norm(sensed, axis=0)
    residual = received.copy()
    support: list[int] = []
    for _ in range(sparsity):
        corr = np.sum(np.abs(sensed.conj().T @ residual) ** 2, axis=1) / col_norms ** 2
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = sensed[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, received, rcond=None)
        residual = received - sub @ coeffs
    est = atoms[:, support] @ coeffs
    return tuple(support), est

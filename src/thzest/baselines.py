"""Reference estimators: least squares, oracle LMMSE, and greedy joint OMP."""

from __future__ import annotations

import numpy as np

from .arrays import SPEED_OF_LIGHT, ArrayConfig


def ls_estimate(pilot_matrix: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares channel estimate B^+ y."""
    h, *_ = np.linalg.lstsq(pilot_matrix, y, rcond=None)
    return h


def check_psd_covariance(channel_cov: np.ndarray) -> None:
    """Raise ValueError unless channel_cov is Hermitian positive semidefinite."""
    herm_err = np.max(np.abs(channel_cov - channel_cov.conj().T))
    if herm_err > 1e-8 * max(1.0, np.max(np.abs(channel_cov))):
        raise ValueError("non-PSD covariance: channel_cov is not Hermitian")
    eigvals = np.linalg.eigvalsh(0.5 * (channel_cov + channel_cov.conj().T))
    if eigvals[0] < -1e-8 * max(1.0, eigvals[-1]):
        raise ValueError("non-PSD covariance: negative eigenvalue")


def mmse_estimate(pilot_matrix: np.ndarray, y: np.ndarray,
                  channel_cov: np.ndarray, noise_var: float) -> np.ndarray:
    """LMMSE estimate R B^H (B R B^H + mu^2 I)^{-1} y.

    channel_cov must be Hermitian positive semidefinite; callers that build
    it check it once with `check_psd_covariance`.
    """
    cross = channel_cov @ pilot_matrix.conj().T
    gram = pilot_matrix @ cross + noise_var * np.eye(pilot_matrix.shape[0])
    return cross @ np.linalg.solve(gram, y)


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) = (1/pi) int_0^pi cos(x cos t) dt by the midpoint rule.

    The integrand is even and 2*pi-periodic in t, so n midpoints miss only
    the Fourier terms J_{2kn}(x), k >= 1.  With n > max|x| + 32 those fall
    below rounding.
    """
    x = np.asarray(x, dtype=float)
    n = int(np.max(np.abs(x), initial=0.0)) + 33
    t = (np.arange(n) + 0.5) * (np.pi / n)
    return np.mean(np.cos(np.multiply.outer(x, np.cos(t))), axis=-1)


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

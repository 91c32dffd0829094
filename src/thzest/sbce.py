"""Sparse-Bayesian-learning EM channel estimator with beam-split tracking.

The estimator runs independently per subcarrier.  Each EM iteration updates
the posterior of the sparse beamspace coefficients, re-estimates the
per-atom prior variances and the noise floor, and refits the diagonal
unit-modulus perturbation that maps the carrier-frequency dictionary onto
the subcarrier's split-shifted steering directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (SPEED_OF_LIGHT, ArrayConfig, Dictionary, SubcarrierGrid,
                     steering_far)


class SingularCovarianceError(RuntimeError):
    """Raised when an observation covariance is numerically singular."""


@dataclass(frozen=True)
class SbceConfig:
    convergence_tol: float = 1e-3
    max_iters: int = 200


@dataclass(frozen=True)
class SbceResult:
    est_direction_sine: float
    est_beam_split: np.ndarray     # length M
    est_channel: np.ndarray        # N_T x M
    iterations: int
    converged: bool


#: Floor of the noise-variance estimate, relative to the per-pilot received
#: energy ||y||^2 / P.  Without it the estimate collapses at SNRs far above
#: any of interest and the Cholesky factor of Pi_y breaks down.
NOISE_FLOOR_REL = 1e-12


class _DftFactor(NamedTuple):
    """The perturbed dictionary P' = B C D as the product A W.

    On the grid (2n - N - 1)/N of a half-wavelength array, atom n is atom 0
    times w^{in} with w = exp(2 pi j / N), so P' = A W with the P x N_T
    factor A = B diag(c * d_0) and W_in = w^{in}.  a_hat = F ifft(A, F) and
    f_a = fft(A, F) are its zero-padded row transforms, F >= 2 N_T - 1.
    """

    a: np.ndarray
    a_hat: np.ndarray
    f_a: np.ndarray
    n_grid: int


def _dft_factor(a: np.ndarray, n_grid: int) -> _DftFactor:
    """Factor of P' = A W over an N-point grid, with F a power of two."""
    n_fft = 1 << (2 * a.shape[1] - 2).bit_length()
    return _DftFactor(a, n_fft * np.fft.ifft(a, n_fft, axis=1),
                      np.fft.fft(a, n_fft, axis=1), n_grid)


class _EStep(NamedTuple):
    """Posterior quantities of one E-step, all reduced to P x P algebra."""

    l_inv: np.ndarray       # L^{-1} with Pi_y = L L^H
    z: np.ndarray           # posterior mean
    post_var: np.ndarray    # diag(Pi)
    trace_term: float       # Tr{P' Pi P'^H}
    fitted: np.ndarray      # P' z


def _e_step(factor: _DftFactor, sigma: np.ndarray, noise_var: float,
            y: np.ndarray) -> _EStep:
    """Posterior of the sparse coefficients, with P' = A W never formed.

    With S = P' Sigma P'^H, Pi_y = S + mu^2 I = L L^H and u = Pi_y^{-1} y:
    - S = A T A^H with T Toeplitz, T_ik = tau_{i-k}, tau_d = sum_n sigma_n
      w^{dn}; embedded in an F-point circulant with spectrum lam this is
      S = a_hat diag(lam) a_hat^H / F;
    - Pi_nn = sigma_n - sigma_n^2 rho_n with rho_n = ||L^{-1} A w_n||^2
      = sum_d q_d w^{dn}, q the row autocorrelation of L^{-1} A summed over
      rows and folded onto N lags;
    - z = sigma * fft(A^H u, N) and P' z = S u;
    - Tr{P' Pi P'^H} = Tr{S} - ||L^{-1} S||_F^2.
    Each call costs O(P^2 F + N log N) instead of O(P^2 N).
    """
    a, a_hat, f_a, n_grid = factor
    k, n_fft = a.shape[1], a_hat.shape[1]
    tau = n_grid * np.fft.ifft(sigma)
    col = np.zeros(n_fft, dtype=complex)
    col[:k] = tau[:k]
    col[n_fft - k + 1:] = tau[n_grid - k + 1:]
    lam = np.fft.fft(col).real
    s_mat = (a_hat * lam) @ a_hat.conj().T / n_fft
    s_mat = 0.5 * (s_mat + s_mat.conj().T)
    eye = np.eye(s_mat.shape[0])
    try:
        chol = np.linalg.cholesky(s_mat + noise_var * eye)
        l_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    u = l_inv.conj().T @ (l_inv @ y)
    z = sigma * np.fft.fft(a.conj().T @ u, n_grid)
    g = l_inv @ f_a
    lags = np.fft.ifft(np.sum(g.real ** 2 + g.imag ** 2, axis=0))
    folded = np.zeros(n_grid, dtype=complex)
    folded[:k] = lags[:k]
    folded[n_grid - k + 1:] += lags[n_fft - k + 1:]
    rho = n_grid * np.fft.ifft(folded).real
    post_var = sigma - sigma ** 2 * rho
    trace_term = float(np.real(np.trace(s_mat))) - float(
        np.linalg.norm(l_inv @ s_mat) ** 2)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(post_var))
            and np.isfinite(trace_term)):
        raise SingularCovarianceError("non-finite posterior")
    return _EStep(l_inv, z, post_var, trace_term, s_mat @ u)


def posterior_update(effective_matrix: np.ndarray, sigma: np.ndarray,
                     noise_var: float, y: np.ndarray):
    """Posterior mean and covariance of the sparse coefficients.

    Returns (z, Pi) with Pi_y = P' Sigma P'^H + mu^2 I,
    Pi = Sigma - Sigma P'^H Pi_y^{-1} P' Sigma and z = Sigma P'^H Pi_y^{-1} y,
    from the same E-step the EM loop runs: any P x N matrix is A W with
    A = fft(P', axis=1) / N.
    """
    n_grid = effective_matrix.shape[1]
    factor = _dft_factor(np.fft.fft(effective_matrix, axis=1) / n_grid, n_grid)
    post = _e_step(factor, sigma, noise_var, y)
    # cond(Pi_y) = cond(L)^2 = cond(L^{-1})^2 for the Cholesky factor L.
    if np.linalg.cond(post.l_inv) ** 2 > 1e12:
        raise SingularCovarianceError("observation covariance is singular")
    v = post.l_inv @ (effective_matrix * sigma[np.newaxis, :])
    pi = np.diag(sigma).astype(complex) - v.conj().T @ v
    pi = 0.5 * (pi + pi.conj().T)
    return post.z, pi


def update_perturbation_diag(n_antennas: int, grid_dir: float,
                             freq_hz: float, carrier_hz: float) -> np.ndarray:
    """Diagonal of the perturbation mapping a(phi) onto a(eta*phi).

    c_i = exp(j*pi*(i-1)*delta) with delta = (f_m/f_c - 1)*phi.
    """
    if abs(grid_dir) > 1.0:
        raise ValueError("invalid direction: |grid_dir| > 1")
    delta = (freq_hz / carrier_hz - 1.0) * grid_dir
    return np.exp(1j * np.pi * np.arange(n_antennas) * delta)


def beam_split_from_c(c: np.ndarray) -> float:
    """Recover the split from the perturbation phases via unwrapping."""
    mods = np.abs(c)
    if np.max(np.abs(mods - 1.0)) > 1e-6:
        raise ValueError("non-unimodular input: |c_i| must equal 1")
    n = c.shape[0]
    phases = np.unwrap(np.angle(c))
    idx = np.arange(1, n)
    return float(np.mean(phases[1:] / (np.pi * idx)))


@dataclass
class _SubcarrierFit:
    """Converged EM quantities for one subcarrier."""

    factor: _DftFactor
    sigma: np.ndarray
    noise_var: float
    c: np.ndarray
    peak_index: int
    iterations: int
    converged: bool


def _fit_subcarrier(y: np.ndarray, pilot_matrix: np.ndarray,
                    dictionary: Dictionary, freq_hz: float, carrier_hz: float,
                    config: SbceConfig) -> _SubcarrierFit:
    """Run the EM loop for one subcarrier without materializing Pi or B C D.

    Each iteration is one `_e_step` on the P x N_T factor of B C D.  The
    factor is rebuilt only when the peak atom it was built for changes.
    """
    n_pilots, n_antennas = pilot_matrix.shape
    n_grid = dictionary.grid_size
    atom0 = dictionary.atoms[:, 0]

    sigma = np.ones(n_grid)
    energy = float(np.linalg.norm(y) ** 2) / n_pilots
    noise_var = max(1e-6, 0.01 * energy)
    c = np.ones(n_antennas, dtype=complex)
    factor = _dft_factor(pilot_matrix * (c * atom0), n_grid)
    built_for = -1          # peak atom that c and factor belong to
    peak = 0
    converged = False
    iterations = config.max_iters
    # When the true direction falls midway between two grid cells the peak
    # can alternate between them forever, with the perturbation rebuild and
    # the prior variances flipping in a period-2 limit cycle.  Detect the
    # alternation and pin the perturbation to the stronger cell; with a
    # fixed dictionary the remaining iterations converge smoothly.
    prev_peaks = [-1, -1]
    flips = 0
    pinned = False

    for it in range(1, config.max_iters + 1):
        post = _e_step(factor, sigma, noise_var, y)
        z, post_var = post.z, post.post_var

        # mu^2 update from the same E-step quantities.
        residual = float(np.linalg.norm(y - post.fitted) ** 2)
        noise_var = max((residual + max(post.trace_term, 0.0)) / n_pilots,
                        NOISE_FLOOR_REL * energy)

        # Tipping's fixed-point form sigma_n = |z_n|^2 / gamma_n with
        # gamma_n = 1 - Pi_nn / sigma_n.  Same stationary points as the EM
        # form sigma_n = |z_n|^2 + Pi_nn but reaches them in a fraction of
        # the iterations, and unlike the bare point form sigma_n = |z_n|^2
        # it cannot collapse to all-zero.
        quality = np.clip(
            1.0 - post_var / np.maximum(sigma, 1e-300), 1e-12, 1.0)
        sigma_new = np.abs(z) ** 2 / quality
        if not pinned:
            peak = int(np.argmax(np.abs(z) ** 2))
            if peak == prev_peaks[0] and peak != prev_peaks[1]:
                flips += 1
            elif peak != prev_peaks[1]:
                flips = 0
            if flips >= 3:
                if sigma_new[prev_peaks[1]] > sigma_new[peak]:
                    peak = prev_peaks[1]
                pinned = True
            prev_peaks = [prev_peaks[1], peak]
            if peak != built_for:
                c = update_perturbation_diag(
                    n_antennas, float(dictionary.grid_points[peak]),
                    freq_hz, carrier_hz)
                factor = _dft_factor(pilot_matrix * (c * atom0), n_grid)
                built_for = peak

        delta_sigma = np.linalg.norm(sigma_new - sigma)
        sigma = sigma_new
        norm_sigma = np.linalg.norm(sigma)
        if norm_sigma > 0 and delta_sigma / norm_sigma < config.convergence_tol:
            converged = True
            iterations = it
            break

    return _SubcarrierFit(factor, sigma, noise_var, c, peak,
                          iterations, converged)


def run_sbce(observation, dictionary: Dictionary, grid: SubcarrierGrid,
             config: SbceConfig = SbceConfig(),
             array_config: ArrayConfig | None = None) -> SbceResult:
    """Estimate direction, per-subcarrier beam-split, and the channel."""
    from .refine import refine_direction

    pilot_matrix = observation.beamformer
    n_antennas = pilot_matrix.shape[1]
    if array_config is None:
        array_config = ArrayConfig.half_wavelength(n_antennas, grid.carrier_freq_hz)
    if dictionary.atoms.shape[0] != n_antennas:
        raise ValueError("dimension mismatch: dictionary rows != n_antennas")
    ratio = 2.0 * array_config.element_spacing_m \
        * array_config.carrier_freq_hz / SPEED_OF_LIGHT
    if abs(ratio - 1.0) > 1e-12:
        raise ValueError("SBCE needs half-wavelength element spacing, got "
                         f"2 d f_c / c0 = {ratio!r}")
    carrier = grid.carrier_freq_hz

    fits = [
        _fit_subcarrier(observation.received[:, m], pilot_matrix, dictionary,
                        float(grid.frequencies[m]), carrier, config)
        for m in range(grid.n_subcarriers)
    ]

    center = fits[grid.center_index]
    # The refinement reads B C D of the centre subcarrier: B C D = A W.
    n_grid = dictionary.grid_size
    effective = n_grid * np.fft.ifft(center.factor.a, n_grid, axis=1)
    direction = refine_direction(
        float(dictionary.grid_points[center.peak_index]),
        observation.received[:, [grid.center_index]], pilot_matrix, center.c,
        effective, center.sigma, center.noise_var,
        center.peak_index, array_config)
    direction = float(np.clip(direction, -1.0, 1.0))

    nominal = steering_far(array_config, direction,
                           array_config.carrier_freq_hz)
    splits = np.zeros(grid.n_subcarriers)
    est = np.zeros((n_antennas, grid.n_subcarriers), dtype=complex)
    for m in range(grid.n_subcarriers):
        c_m = update_perturbation_diag(n_antennas, direction,
                                       float(grid.frequencies[m]), carrier)
        splits[m] = beam_split_from_c(c_m)
        steer = c_m * nominal
        g = pilot_matrix @ steer
        denom = float(np.real(np.vdot(g, g)))
        gain = np.vdot(g, observation.received[:, m]) / denom if denom > 0 else 0.0
        est[:, m] = steer * gain

    return SbceResult(
        est_direction_sine=direction,
        est_beam_split=splits,
        est_channel=est,
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits),
    )

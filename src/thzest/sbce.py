"""Sparse-Bayesian-learning EM channel estimator with beam-split tracking.

The channel is line-of-sight dominant, so one EM fit serves every
subcarrier: SBCE fits the centre subcarrier alone for a grid direction,
refines it on the wideband periodogram of all M subcarriers
(`refine.refine_direction`) and maps it onto every subcarrier through the
diagonal unit-modulus perturbation C_m, which turns the carrier-frequency
steering vector into subcarrier m's split-shifted one.  Each EM iteration
updates the posterior of the sparse beamspace coefficients, re-estimates
the per-atom prior variances and the noise floor, and refits the
perturbation from the peak atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (Dictionary, SubcarrierGrid, _check_dft_grid, _split_diag,
                     steering_far)
from . import refine


class SingularCovarianceError(RuntimeError):
    """Raised when an observation covariance is numerically singular."""


@dataclass(frozen=True)
class SbceResult:
    """SBCE's estimates; `iterations` and `converged` describe its one EM
    fit, that of the centre subcarrier."""

    est_direction_sine: float
    est_beam_split: np.ndarray     # length M
    est_channel: np.ndarray        # N_T x M
    iterations: int
    converged: bool


#: Floor of the noise-variance estimate, relative to the per-pilot received
#: energy ||y||^2 / P.  Without it the estimate collapses at SNRs far above
#: any of interest and the Cholesky factor of Pi_y breaks down.
NOISE_FLOOR_REL = 1e-12

#: A fit has converged once an iteration moves sigma by less than this,
#: relative to ||sigma||; it stops unconverged after MAX_ITERS iterations.
CONVERGENCE_TOL = 1e-3
MAX_ITERS = 200


class _DftFactor(NamedTuple):
    """The perturbed dictionary P' = B C D as A W.

    On the grid (2n - N - 1)/N of a half-wavelength array, atom n is atom 0
    times w^{in} with w = exp(2 pi j / N), so P' = A W with the P x N_T
    factor A = B diag(c * d_0) and W_in = w^{in}.  a_hat = F ifft(A, F) and
    f_a = fft(A, F) are its zero-padded row transforms, P x F with
    F >= 2 N_T - 1.  N is the length of the sigma that goes with it.
    """

    a: np.ndarray
    a_hat: np.ndarray
    f_a: np.ndarray


def _dft_factor(a: np.ndarray) -> _DftFactor:
    """The P x N_T factor A with its row transforms, two FFTs of F points,
    F the power of two >= 2 N_T - 1."""
    n_fft = 1 << (2 * a.shape[1] - 2).bit_length()
    return _DftFactor(a, n_fft * np.fft.ifft(a, n_fft), np.fft.fft(a, n_fft))


class _EStep(NamedTuple):
    """Posterior quantities of one E-step, all from P x P algebra."""

    l_inv: np.ndarray       # P x P: L^{-1} with Pi_y = L L^H
    z: np.ndarray           # N: posterior mean
    post_var: np.ndarray    # N: diag(Pi)
    trace_term: float       # Tr{P' Pi P'^H}
    fitted: np.ndarray      # P: P' z


def _gram(factor: _DftFactor, sigma: np.ndarray) -> np.ndarray:
    """S = P' Sigma P'^H = A T A^H, T Toeplitz with T_ik = tau_{i-k},
    tau_d = sum_n sigma_n w^{dn}; embedded in an F-point circulant with
    spectrum lam, S = a_hat diag(lam) a_hat^H / F.  P x P."""
    a, a_hat, _ = factor
    k, n_fft, n_grid = a.shape[1], a_hat.shape[1], len(sigma)
    tau = n_grid * np.fft.ifft(sigma)
    col = np.zeros(n_fft, dtype=complex)
    col[:k] = tau[:k]
    col[n_fft - k + 1:] = tau[n_grid - k + 1:]
    lam = np.fft.fft(col).real
    s_mat = (a_hat * lam) @ a_hat.conj().T / n_fft
    return 0.5 * (s_mat + s_mat.conj().T)


def _e_step(factor: _DftFactor, sigma: np.ndarray, noise_var: float,
            y: np.ndarray) -> _EStep:
    """Posterior of the sparse coefficients, P' = A W never formed.

    With prior variances sigma (N), noise variance mu^2 = noise_var,
    observation y (P), S = P' Sigma P'^H from `_gram`, Pi_y = S + mu^2 I
    = L L^H and u = Pi_y^{-1} y:
    - Pi_nn = sigma_n - sigma_n^2 rho_n with rho_n = ||L^{-1} A w_n||^2
      = sum_d q_d w^{dn}, q the row autocorrelation of L^{-1} A summed over
      rows and folded onto N lags;
    - z = sigma * fft(A^H u, N) and P' z = S u;
    - Tr{P' Pi P'^H} = Tr{S} - ||L^{-1} S||_F^2.
    It costs O(P^2 F + N log N) instead of O(P^2 N).
    """
    a, a_hat, f_a = factor
    k, n_fft, n_grid = a.shape[1], a_hat.shape[1], len(sigma)
    s_mat = _gram(factor, sigma)
    try:
        chol = np.linalg.cholesky(s_mat + noise_var * np.eye(len(s_mat)))
        l_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    u = l_inv.conj().T @ (l_inv @ y)
    z = sigma * np.fft.fft(a.conj().T @ u, n_grid)
    g = l_inv @ f_a
    g2 = g.real ** 2
    g2 += g.imag ** 2
    lags = np.fft.ifft(np.sum(g2, axis=0))
    folded = np.zeros(n_grid, dtype=complex)
    folded[:k] = lags[:k]
    folded[n_grid - k + 1:] += lags[n_fft - k + 1:]
    rho = n_grid * np.fft.ifft(folded).real
    post_var = sigma - sigma ** 2 * rho
    trace_term = float(np.real(np.trace(s_mat))) \
        - float(np.linalg.norm(l_inv @ s_mat) ** 2)
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
    factor = _dft_factor(np.fft.fft(effective_matrix, axis=1) / len(sigma))
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

    c_i = exp(j*pi*(i-1)*delta) with delta = (f_m/f_c - 1)*phi.  Each call
    is an EM rebuild: `run_sbce` maps its subcarriers through `_split_diag`.
    """
    if abs(grid_dir) > 1.0:
        raise ValueError("invalid direction: |grid_dir| > 1")
    return _split_diag(n_antennas, (freq_hz / carrier_hz - 1.0) * grid_dir)


def beam_split_from_c(c: np.ndarray) -> float:
    """Recover the split from the perturbation phases via unwrapping."""
    mods = np.abs(c)
    if np.max(np.abs(mods - 1.0)) > 1e-6:
        raise ValueError("non-unimodular input: |c_i| must equal 1")
    n = c.shape[0]
    phases = np.unwrap(np.angle(c))
    idx = np.arange(1, n)
    return float(np.mean(phases[1:] / (np.pi * idx)))


class _Fit(NamedTuple):
    """Converged EM quantities of one fit."""

    sigma: np.ndarray        # N
    noise_var: float
    peak_index: int
    iterations: int
    converged: bool


def _fit(y: np.ndarray, pilot_matrix: np.ndarray, dictionary: Dictionary,
         freq_hz: float, carrier_hz: float) -> _Fit:
    """EM loop of one subcarrier's observation y, never forming Pi or B C D.

    Each iteration is one `_e_step`.  The factor A = B diag(c * d_0) is
    rebuilt only when the peak atom changes, which the first iteration
    always does.
    """
    n_pilots, n_antennas = pilot_matrix.shape
    energy = float(np.linalg.norm(y) ** 2) / n_pilots
    noise_var = max(1e-6, 0.01 * energy)
    sigma = np.ones(dictionary.grid_size)
    # Peak atom -1 stands for C = I, the factor at the start.
    peak, c = -1, np.ones(n_antennas, dtype=complex)
    factor = _dft_factor(pilot_matrix * dictionary.first_atom)
    # When the true direction falls midway between two grid cells the peak
    # can alternate between them forever, with the perturbation rebuild and
    # the prior variances flipping in a period-2 limit cycle.  Detect the
    # alternation and pin the perturbation to the stronger cell; with a
    # fixed dictionary the remaining iterations converge smoothly.
    before, flips, pinned = -1, 0, False    # before: the peak before `peak`

    for it in range(1, MAX_ITERS + 1):
        post = _e_step(factor, sigma, noise_var, y)

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
            1.0 - post.post_var / np.maximum(sigma, 1e-300), 1e-12, 1.0)
        power = np.abs(post.z) ** 2
        sigma_new = power / quality
        if not pinned:
            new, last = int(np.argmax(power)), peak
            if new == before and new != last:
                flips += 1
            elif new != last:
                flips = 0
            if flips >= 3:
                if sigma_new[last] > sigma_new[new]:
                    new = last
                pinned = True
            before, peak = last, new
            if new != last:
                c = update_perturbation_diag(
                    n_antennas, float(dictionary.grid_points[peak]), freq_hz,
                    carrier_hz)
                factor = _dft_factor(
                    pilot_matrix * (c * dictionary.first_atom))

        delta_sigma = np.linalg.norm(sigma_new - sigma)
        norm_sigma = np.linalg.norm(sigma_new)
        sigma = sigma_new
        if norm_sigma > 0 and delta_sigma / norm_sigma < CONVERGENCE_TOL:
            return _Fit(sigma, noise_var, peak, it, True)
    return _Fit(sigma, noise_var, peak, MAX_ITERS, False)


def run_sbce(observation, dictionary: Dictionary,
             grid: SubcarrierGrid) -> SbceResult:
    """Estimate direction, splits and channel on the dictionary's array.

    One EM fit of the centre subcarrier gives the coarse direction, the
    wideband periodogram of all M subcarriers refines it, and each
    subcarrier's split and channel follow from it through C_m.
    """
    pilot_matrix = observation.beamformer
    n_antennas = pilot_matrix.shape[1]
    array_config = dictionary.config
    if array_config.n_antennas != n_antennas:
        raise ValueError("dimension mismatch: dictionary rows != n_antennas")
    _check_dft_grid(array_config, "SBCE")
    # Every f/f_c is taken at the array's carrier, the one C_m maps from.
    carrier = array_config.carrier_freq_hz

    center = grid.center_index
    fit = _fit(observation.received[:, center], pilot_matrix, dictionary,
               float(grid.frequencies[center]), carrier)

    direction = refine.refine_direction(
        float(dictionary.grid_points[fit.peak_index]), observation.received,
        pilot_matrix, grid.frequencies / carrier,
        dictionary.grid_size)

    # Subcarrier m's split is (f_m/f_c - 1) theta and its steering vector
    # C_m a(theta); its gain is g^H y_m / ||g||^2 with g = B C_m a(theta),
    # zero where g vanishes.
    splits = (grid.frequencies / carrier - 1.0) * direction
    steer = _split_diag(n_antennas, splits) * steering_far(
        array_config, direction, carrier)[:, np.newaxis]
    g = pilot_matrix @ steer
    power = np.sum(g.real ** 2 + g.imag ** 2, axis=0)
    gain = np.divide(np.sum(g.conj() * observation.received, axis=0), power,
                     out=np.zeros(len(power), dtype=complex), where=power > 0)

    return SbceResult(
        est_direction_sine=direction,
        est_beam_split=splits,
        est_channel=steer * gain,
        iterations=fit.iterations,
        converged=fit.converged,
    )

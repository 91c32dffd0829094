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

The fits of several observations, such as the trial-users of a harness
chunk, run as one stack of rows (`fit_centres`): every FFT, product and
factorisation of an iteration serves all live rows, while each row's fit
stays bit for bit the one it gets alone.  A row leaves the stack when it
converges or its covariance algebra breaks down.
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
    """The perturbed dictionaries P'_r = B_r C_r D of a stack of rows as A_r W.

    On the grid (2n - N - 1)/N of a half-wavelength array, atom n is atom 0
    times w^{in} with w = exp(2 pi j / N), so P' = A W with the P x N_T
    factor A = B diag(c * d_0) and W_in = w^{in}.  a_hat = F ifft(A, F) and
    f_a = fft(A, F) are its zero-padded row transforms, F >= 2 N_T - 1;
    a_hat is kept as its conjugate, the form `_gram` reads.  Every array
    carries a leading row axis: a is R x P x N_T, a_hat_conj and f_a are
    R x P x F.  N is the length of the sigma that goes with it.
    """

    a: np.ndarray
    a_hat_conj: np.ndarray
    f_a: np.ndarray


def _fft_size(n_antennas: int) -> int:
    """F: the power of two >= 2 N_T - 1."""
    return 1 << (2 * n_antennas - 2).bit_length()


def _dft_factor(a: np.ndarray) -> _DftFactor:
    """R x P x N_T factors A_r with their row transforms, two FFTs for all."""
    n_fft = _fft_size(a.shape[-1])
    return _DftFactor(a, (n_fft * np.fft.ifft(a, n_fft)).conj(),
                      np.fft.fft(a, n_fft))


def _herm(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(stack.conj(), -1, -2)


class _EStep(NamedTuple):
    """Posterior quantities of one E-step per row, all from P x P algebra."""

    l_inv: np.ndarray       # R x P x P: L^{-1} with Pi_y = L L^H
    z: np.ndarray           # R x N: posterior mean
    post_var: np.ndarray    # R x N: diag(Pi)
    trace_term: np.ndarray  # R: Tr{P' Pi P'^H}
    fitted: np.ndarray      # R x P: P' z
    failed: np.ndarray      # R: the row's covariance algebra broke down


def _gram(factor: _DftFactor, sigma: np.ndarray) -> np.ndarray:
    """S = P' Sigma P'^H = A T A^H of every row, T Toeplitz with T_ik =
    tau_{i-k}, tau_d = sum_n sigma_n w^{dn}; embedded in an F-point circulant
    with spectrum lam, S = a_hat diag(lam) a_hat^H / F.  R x P x P."""
    a, a_hat_conj, _ = factor
    k, n_fft, n_grid = a.shape[-1], a_hat_conj.shape[-1], sigma.shape[-1]
    tau = n_grid * np.fft.ifft(sigma)
    col = np.zeros((len(sigma), n_fft), dtype=complex)
    col[:, :k] = tau[:, :k]
    col[:, n_fft - k + 1:] = tau[:, n_grid - k + 1:]
    lam = np.fft.fft(col).real
    # a_hat diag(lam) is formed in place: one R x P x F temporary, not two.
    weighted = a_hat_conj.conj()
    weighted *= lam[:, np.newaxis, :]
    s_mat = weighted @ np.swapaxes(a_hat_conj, -1, -2) / n_fft
    return 0.5 * (s_mat + _herm(s_mat))


def _row_dots(x: np.ndarray) -> np.ndarray:
    """x[r] . x[r] of every row of a real R x n stack, by the dot call that
    np.linalg.norm makes for one row: the (1 x n) @ (n x 1) products of a
    stacked matmul are those very calls, bit for bit."""
    return (x[:, np.newaxis, :] @ x[:, :, np.newaxis])[:, 0, 0]


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x[r]) ** 2 of every complex x[r], bit for bit.

    Each norm is squared alone, as a numpy scalar: squaring an array of
    norms computes x * x, which can differ in the last bit from the scalar
    power."""
    x = x.reshape(len(x), -1)
    norms = np.sqrt(_row_dots(x.real) + _row_dots(x.imag))
    return np.array([norm ** 2 for norm in norms])


def _each(factorise, stack: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """factorise(stack), matrix by matrix once a stacked call raises
    LinAlgError: a matrix that fails alone flags its row in failed and gets
    the identity, so that one row's breakdown stops no other row."""
    try:
        return factorise(stack)
    except np.linalg.LinAlgError:
        out = np.empty_like(stack)
        for r, mat in enumerate(stack):
            try:
                out[r] = factorise(mat)
            except np.linalg.LinAlgError:
                out[r] = np.eye(len(mat))
                failed[r] = True
        return out


def _e_step(factor: _DftFactor, sigma: np.ndarray, noise_var: np.ndarray,
            y: np.ndarray) -> _EStep:
    """Posterior of every row's sparse coefficients, P' = A W never formed.

    Row r has its own factor A_r, prior variances sigma[r] (R x N), noise
    variance noise_var[r] and observation y[r] (R x P); each FFT, product
    and factorisation below serves all rows in one call.  Per row, with
    S = P' Sigma P'^H from `_gram`, Pi_y = S + mu^2 I = L L^H and
    u = Pi_y^{-1} y:
    - Pi_nn = sigma_n - sigma_n^2 rho_n with rho_n = ||L^{-1} A w_n||^2
      = sum_d q_d w^{dn}, q the row autocorrelation of L^{-1} A summed over
      rows and folded onto N lags;
    - z = sigma * fft(A^H u, N) and P' z = S u;
    - Tr{P' Pi P'^H} = Tr{S} - ||L^{-1} S||_F^2.
    Each row costs O(P^2 F + N log N) instead of O(P^2 N).  A row whose
    Cholesky factor or inverse does not exist, or whose posterior is not
    finite, is flagged in `failed`; its other fields are meaningless.
    """
    a, _, f_a = factor
    k, n_fft, n_grid = a.shape[-1], f_a.shape[-1], sigma.shape[-1]
    s_mat = _gram(factor, sigma)
    failed = np.zeros(len(sigma), dtype=bool)
    chol = _each(np.linalg.cholesky,
                 s_mat + noise_var[:, np.newaxis, np.newaxis]
                 * np.eye(s_mat.shape[-1]), failed)
    l_inv = _each(np.linalg.inv, chol, failed)
    u = _herm(l_inv) @ (l_inv @ y[:, :, np.newaxis])
    z = sigma * np.fft.fft((_herm(a) @ u)[:, :, 0], n_grid)
    # |g|^2 is squared in place in g's own memory.
    g = l_inv @ f_a
    g2 = np.square(g.real, out=g.real)
    g2 += np.square(g.imag, out=g.imag)
    lags = np.fft.ifft(np.sum(g2, axis=1))
    folded = np.zeros((len(sigma), n_grid), dtype=complex)
    folded[:, :k] = lags[:, :k]
    folded[:, n_grid - k + 1:] += lags[:, n_fft - k + 1:]
    rho = n_grid * np.fft.ifft(folded).real
    post_var = sigma - sigma ** 2 * rho
    trace_term = s_mat.trace(axis1=1, axis2=2).real \
        - _sq_norms(l_inv @ s_mat)
    failed |= ~(np.isfinite(z).all(axis=1) & np.isfinite(post_var).all(axis=1)
                & np.isfinite(trace_term))
    return _EStep(l_inv, z, post_var, trace_term, (s_mat @ u)[:, :, 0],
                  failed)


def posterior_update(effective_matrix: np.ndarray, sigma: np.ndarray,
                     noise_var: float, y: np.ndarray):
    """Posterior mean and covariance of the sparse coefficients.

    Returns (z, Pi) with Pi_y = P' Sigma P'^H + mu^2 I,
    Pi = Sigma - Sigma P'^H Pi_y^{-1} P' Sigma and z = Sigma P'^H Pi_y^{-1} y,
    from the same E-step the EM loop runs, on a stack of one row: any P x N
    matrix is A W with A = fft(P', axis=1) / N.
    """
    factor = _dft_factor(
        np.fft.fft(effective_matrix, axis=1)[np.newaxis] / len(sigma))
    post = _e_step(factor, sigma[np.newaxis], np.array([noise_var]),
                   y[np.newaxis])
    l_inv = post.l_inv[0]
    # cond(Pi_y) = cond(L)^2 = cond(L^{-1})^2 for the Cholesky factor L.
    if post.failed[0] or np.linalg.cond(l_inv) ** 2 > 1e12:
        raise SingularCovarianceError("observation covariance is singular")
    v = l_inv @ (effective_matrix * sigma[np.newaxis, :])
    pi = np.diag(sigma).astype(complex) - v.conj().T @ v
    pi = 0.5 * (pi + pi.conj().T)
    return post.z[0], pi


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


#: Most complex elements of the R x P x F factor transforms that one stack
#: of fits holds.  Bigger stacks save little per-call overhead but grow the
#: E-step's temporaries: 16 desk rows (P = 16, F = 128) share one stack,
#: while paper-size ones (P = 32, F = 512) run two at a time.
STACK_ELEMENTS = 1 << 15


def stack_rows(n_pilots: int, n_antennas: int) -> int:
    """How many fits of P pilots on N_T antennas one stack holds."""
    return max(1, STACK_ELEMENTS // (n_pilots * _fft_size(n_antennas)))


def _fit_stack(y: np.ndarray, pilot_matrices: np.ndarray,
               dictionary: Dictionary, freq_hz: float,
               carrier_hz: float) -> list:
    """The EM loop of every row r, its observation y[r] (R x P) with its
    pilot matrix pilot_matrices[r] (R x P x N_T), never forming Pi or B C D.

    Entry r of the result is row r's `_Fit`, or the SingularCovarianceError
    that ended it.  Each iteration is one `_e_step` for every live row.  A
    row's factor A_r = B_r diag(c_r * d_0) is rebuilt only when its peak
    atom changes, which the first iteration always does.  A row leaves the
    stack when it converges or breaks down, and the stack is compacted
    only then.  Every step is per row, so a row's fit does not depend on
    the other rows of its stack.
    """
    n_rows, n_pilots, n_antennas = pilot_matrices.shape
    fits = [None] * n_rows
    rows = np.arange(n_rows)
    b = pilot_matrices
    energy = _sq_norms(y) / n_pilots
    noise_var = np.array([max(1e-6, 0.01 * e) for e in energy.tolist()])
    sigma = np.ones((n_rows, dictionary.grid_size))
    # Peak atom -1 stands for C = I, the factor of every row at the start.
    peak = np.full(n_rows, -1)
    a, a_hat_conj, f_a = _dft_factor(b * dictionary.first_atom)
    # When the true direction falls midway between two grid cells the peak
    # can alternate between them forever, with the perturbation rebuild and
    # the prior variances flipping in a period-2 limit cycle.  Detect the
    # alternation and pin the row's perturbation to the stronger cell; with
    # a fixed dictionary the remaining iterations converge smoothly.
    before = np.full(n_rows, -1)        # the peak before the current one
    flips = np.zeros(n_rows, dtype=int)
    pinned = np.zeros(n_rows, dtype=bool)

    for it in range(1, MAX_ITERS + 1):
        post = _e_step(_DftFactor(a, a_hat_conj, f_a), sigma, noise_var, y)
        # A broken row runs the rest of the iteration on meaningless values
        # and leaves with the converged ones.
        failed = post.failed
        for r in rows[failed]:
            fits[r] = SingularCovarianceError(
                f"observation covariance broke down at EM iteration {it}")

        # mu^2 update from the same E-step quantities.
        noise_var = np.array([
            max((residual + max(trace, 0.0)) / n_pilots, NOISE_FLOOR_REL * e)
            for residual, trace, e in zip(_sq_norms(y - post.fitted).tolist(),
                                          post.trace_term.tolist(),
                                          energy.tolist())])

        # Tipping's fixed-point form sigma_n = |z_n|^2 / gamma_n with
        # gamma_n = 1 - Pi_nn / sigma_n.  Same stationary points as the EM
        # form sigma_n = |z_n|^2 + Pi_nn but reaches them in a fraction of
        # the iterations, and unlike the bare point form sigma_n = |z_n|^2
        # it cannot collapse to all-zero.
        quality = np.clip(
            1.0 - post.post_var / np.maximum(sigma, 1e-300), 1e-12, 1.0)
        power = np.abs(post.z) ** 2
        sigma_new = power / quality
        peak_now = np.argmax(power, axis=1)
        for r in np.flatnonzero(~pinned & ~failed):
            new, last = int(peak_now[r]), int(peak[r])
            if new == before[r] and new != last:
                flips[r] += 1
            elif new != last:
                flips[r] = 0
            if flips[r] >= 3:
                if sigma_new[r, last] > sigma_new[r, new]:
                    new = last
                pinned[r] = True
            before[r], peak[r] = last, new
            if new != last:
                c = update_perturbation_diag(
                    n_antennas, float(dictionary.grid_points[new]), freq_hz,
                    carrier_hz)
                # Row by row, so that the transforms' temporaries stay
                # those of one row.
                a[r] = b[r] * (c * dictionary.first_atom)
                _, a_hat_conj[r], f_a[r] = _dft_factor(a[r])

        delta_sigma = np.sqrt(_row_dots(sigma_new - sigma))
        norm_sigma = np.sqrt(_row_dots(sigma_new))
        done = ~failed & (norm_sigma > 0)
        done[done] = delta_sigma[done] / norm_sigma[done] < CONVERGENCE_TOL
        sigma = sigma_new
        for r in np.flatnonzero(done):
            fits[rows[r]] = _Fit(sigma[r], float(noise_var[r]), int(peak[r]),
                                 it, True)
        if done.any() or failed.any():
            keep = ~(done | failed)
            (rows, y, b, energy, noise_var, sigma, a, a_hat_conj, f_a, peak,
             before, flips, pinned) = (
                x[keep] for x in (rows, y, b, energy, noise_var, sigma, a,
                                  a_hat_conj, f_a, peak, before, flips,
                                  pinned))
            if not len(rows):
                return fits
    for r, row in enumerate(rows):
        fits[row] = _Fit(sigma[r], float(noise_var[r]), int(peak[r]),
                         MAX_ITERS, False)
    return fits


def _array_carrier(dictionary: Dictionary, n_antennas: int) -> float:
    """The carrier of the dictionary's array, which every f/f_c is taken at
    since C_m maps from it; ValueError unless that array has n_antennas
    elements at half-wavelength spacing."""
    array_config = dictionary.config
    if array_config.n_antennas != n_antennas:
        raise ValueError("dimension mismatch: dictionary rows != n_antennas")
    _check_dft_grid(array_config, "SBCE")
    return array_config.carrier_freq_hz


def fit_centres(observations, dictionary: Dictionary,
                grid: SubcarrierGrid) -> list:
    """The centre-subcarrier EM fit of every observation, in one stack.

    Entry r is observation r's fit, bit for bit the one it gets alone, or
    the SingularCovarianceError that ended it: a breakdown fails only its
    own observation, at the iteration where it would fail alone.
    `run_sbce` takes an entry as its `fit`.  The stack's temporaries grow
    with its rows; `stack_rows` bounds them.
    """
    pilot_matrices = np.array([obs.beamformer for obs in observations])
    carrier = _array_carrier(dictionary, pilot_matrices.shape[-1])
    center = grid.center_index
    y = np.array([obs.received[:, center] for obs in observations])
    return _fit_stack(y, pilot_matrices, dictionary,
                      float(grid.frequencies[center]), carrier)


def run_sbce(observation, dictionary: Dictionary, grid: SubcarrierGrid,
             fit=None) -> SbceResult:
    """Estimate direction, splits and channel on the dictionary's array.

    One EM fit of the centre subcarrier gives the coarse direction, the
    wideband periodogram of all M subcarriers refines it, and each
    subcarrier's split and channel follow from it through C_m.  `fit` is
    the observation's entry of `fit_centres`; without it the observation
    is fitted alone, as a stack of one.
    """
    if fit is None:
        [fit] = fit_centres([observation], dictionary, grid)
    if isinstance(fit, SingularCovarianceError):
        raise fit
    pilot_matrix = observation.beamformer
    n_antennas = pilot_matrix.shape[1]
    carrier = _array_carrier(dictionary, n_antennas)
    array_config = dictionary.config

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

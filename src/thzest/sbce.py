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

The fits of a queue of observations, such as the trial-users of every
sweep point of a harness chunk, run as one stack of rows (`fit_centres`):
every FFT, product and factorisation of an E-step serves all rows, while
each row's fit stays bit for bit the one it gets alone.  A row leaves the
stack when it converges, hits the iteration cap or its covariance algebra
breaks down, and the next observation takes its slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (Dictionary, SubcarrierGrid, _check_dft_grid, _fft_size,
                     _lag_spectrum, _split_diag, steering)
from . import refine


class SingularCovarianceError(np.linalg.LinAlgError):
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
    factor A = B diag(c * d_0) and W_in = w^{in}.  f_a = fft(A, F) is its
    zero-padded row transform, F >= 2 N_T - 1, the one `_gram` and `_e_step`
    read.  Every array carries a leading row axis: a is R x P x N_T and f_a
    is R x P x F.  work, of f_a's shape, is the scratch in which `_gram`
    weights the transform and `_e_step` forms L^{-1} f_a, so that an E-step
    allocates no R x P x F array.  N is the length of the sigma that goes
    with it.
    """

    a: np.ndarray
    f_a: np.ndarray
    work: np.ndarray


def _dft_factor(a: np.ndarray) -> _DftFactor:
    """R x P x N_T factors A_r with their row transforms, one FFT for all."""
    f_a = np.fft.fft(a, _fft_size(a.shape[-1]))
    return _DftFactor(a, f_a, np.empty_like(f_a))


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
    tau_{i-k}, tau_d = sum_n sigma_n w^{dn}; embedded in an F-point circulant,
    S = f_a diag(lam') f_a^H / F, where lam', the circulant spectrum of
    tau' = fft(sigma) = conj(tau), is tau's index-reversed.  R x P x P.

    sigma is real, so tau' is Hermitian: rfft gives its lags 0 .. N/2, and
    a lag d > N/2, reached only when the grid wraps (N < 2 N_T - 1), is
    conj(tau'_{N-d}).  lam' is then the `_lag_spectrum` of tau'_0 ..
    tau'_{N_T-1}."""
    a, f_a, work = factor
    k, n_fft, n_grid = a.shape[-1], f_a.shape[-1], sigma.shape[-1]
    lag = np.arange(k)
    wrapped = lag > n_grid // 2
    lags = np.fft.rfft(sigma)[:, np.where(wrapped, n_grid - lag, lag)]
    np.conjugate(lags, out=lags, where=wrapped)
    lam = _lag_spectrum(lags, n_fft)
    # conj(f_a) diag(lam') f_a^T = S^T is formed in the factor's workspace.
    weighted = np.conjugate(f_a, out=work)
    weighted *= lam[:, np.newaxis, :]
    s_mat = np.swapaxes(weighted @ np.swapaxes(f_a, -1, -2), -1, -2) / n_fft
    return 0.5 * (s_mat + _herm(s_mat))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """||x[r]||^2 of every row of a real or complex stack: one reduction
    per row, so a row's value does not depend on the other rows."""
    x = x.reshape(len(x), -1)
    return np.sum(x.real ** 2 + x.imag ** 2, axis=1)


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
    Each row costs O(P^2 F + N log N) instead of O(P^2 N).  sigma and
    |L^{-1} f_a|^2 are real, so tau, lam and rho come from half-length
    transforms (rfft, `_lag_spectrum`), in one code path for the padded
    (N >= 2 N_T - 1), wrapped and square (N = N_T) grids.  A row whose
    Cholesky factor or inverse does not exist, or whose posterior is not
    finite, is flagged in `failed`; its other fields are meaningless.
    """
    a, f_a, work = factor
    k, n_fft, n_grid = a.shape[-1], f_a.shape[-1], sigma.shape[-1]
    s_mat = _gram(factor, sigma)
    failed = np.zeros(len(sigma), dtype=bool)
    chol = _each(np.linalg.cholesky,
                 s_mat + noise_var[:, np.newaxis, np.newaxis]
                 * np.eye(s_mat.shape[-1]), failed)
    l_inv = _each(np.linalg.inv, chol, failed)
    u = _herm(l_inv) @ (l_inv @ y[:, :, np.newaxis])
    # A^H u = conj(u^H A): u is conjugated, not A.
    z = sigma * np.fft.fft((_herm(u) @ a)[:, 0, :].conj(), n_grid)
    # g = L^{-1} f_a takes the workspace from `_gram`'s weighted transform;
    # |g|^2 is squared in place, in one pass over g's memory, and summed
    # over rows before its real and imaginary halves are added.
    g = np.matmul(l_inv, f_a, out=work)
    g2 = g.view(np.float64)
    np.square(g2, out=g2)
    g2 = np.sum(g2, axis=1)
    g2 = g2[:, 0::2] + g2[:, 1::2]
    # rho_n = sum_{|d| < N_T} q_d w^{dn}, q = ifft(|g|^2) summed over rows,
    # so rho is the N-point spectrum of the lags h_d = F conj(q_d) =
    # rfft(|g|^2)_d, over F.
    rho = _lag_spectrum(np.fft.rfft(g2)[:, :k], n_grid) / n_fft
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


def update_perturbation_diag(n_antennas: int, grid_dir, freq_hz,
                             carrier_hz: float) -> np.ndarray:
    """Diagonal of the perturbation mapping a(phi) onto a(eta*phi).

    c_i = exp(j*pi*(i-1)*delta) with delta = (f_m/f_c - 1)*phi, an N_T
    vector, or the N_T x K columns of an array of K directions, each with
    its own frequency when freq_hz is an array of K.  Each call is an EM
    rebuild of all the rows whose peak moved: `run_sbce` maps its
    subcarriers through `_split_diag`.
    """
    # Negated so that a NaN fails it.
    if not np.all(np.abs(grid_dir) <= 1.0):
        raise ValueError("invalid direction: |grid_dir| > 1")
    return _split_diag(n_antennas, (freq_hz / carrier_hz - 1.0) * grid_dir)


def beam_split_from_c(c: np.ndarray) -> float:
    """Recover the split from the perturbation phases via unwrapping."""
    mods = np.abs(c)
    # Negated so that a NaN fails it.
    if not np.max(np.abs(mods - 1.0)) <= 1e-6:
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


#: Most complex elements of the R x P x F factor transform that one stack
#: of fits holds.  Bigger stacks save little per-call overhead but grow the
#: E-step's temporaries: 16 desk rows (P = 16, F = 128) share one stack,
#: while paper-size ones (P = 32, F = 512) run two at a time.
STACK_ELEMENTS = 1 << 15


def stack_rows(n_pilots: int, n_antennas: int) -> int:
    """How many fits of P pilots on N_T antennas one stack holds."""
    return max(1, STACK_ELEMENTS // (n_pilots * _fft_size(n_antennas)))


def fit_centres(observations, dictionary: Dictionary):
    """Centre-subcarrier EM fits of a queue of observations, in one stack.

    `observations` yields (key, observation, grid) triples, and the
    generator yields (key, fit), key the caller's own object, as the
    triple's row leaves the stack: fit is its `_Fit`, bit for bit the one
    it gets alone, or the SingularCovarianceError that ended it.  A
    breakdown fails only its own observation, at the iteration of its own
    fit where it would fail alone.  `run_sbce` takes a fit as its `fit`.

    A row is an observation's centre column y with its pilots B at its own
    grid's centre frequency, so the rows of different sweep points share a
    stack.  The stack holds at most `stack_rows` rows, which bounds its
    temporaries.  Each iteration is one `_e_step` for every row, never
    forming Pi or B C D.  A row's factor A = B diag(c * d_0) is rebuilt
    only when its peak atom moves, which its first iteration always does;
    the rows that move share one `update_perturbation_diag` call.  A row
    leaves when it converges, reaches `MAX_ITERS` iterations of its own or
    breaks down, and the next observation takes its slot in place, so the
    stack stays full until the queue drains; only then is it compacted.
    The stack keeps a reference to a row's pilots, a copy of its centre
    column and its key, and one R x P x F workspace that every E-step
    reuses; the leaving rows of an iteration are yielded, after the
    iteration's posterior is dropped, and their keys dropped before the
    next observation is read, so draws kept in the keys number at most
    `stack_rows`.  Every step is per row, so a row's fit does not depend
    on the other rows of its stack.
    ValueError unless the pilots have the N_T of the dictionary's
    half-wavelength array.
    """
    array_config = dictionary.config
    n_antennas = array_config.n_antennas
    _check_dft_grid(array_config, "SBCE")
    first_atom = dictionary.first_atom
    queue = iter(observations)
    head = next(queue, None)
    if head is None:
        return
    n_pilots = len(head[1].beamformer)
    queue = itertools.chain([head], queue)
    del head
    n_rows = stack_rows(n_pilots, n_antennas)
    n_fft = _fft_size(n_antennas)
    # The caller's key and the row's pilots B in each slot.
    rows, b = (np.empty(n_rows, dtype=object) for _ in range(2))
    y = np.empty((n_rows, n_pilots), dtype=complex)
    freq, energy, noise_var = (np.empty(n_rows) for _ in range(3))
    sigma = np.empty((n_rows, dictionary.grid_size))
    factor = _DftFactor(
        np.empty((n_rows, n_pilots, n_antennas), dtype=complex),
        *(np.empty((n_rows, n_pilots, n_fft), dtype=complex)
          for _ in range(2)))

    def set_factor(slot, diag):
        """A = B diag(diag) of a slot, diag = c * d_0, and its row
        transform, in place."""
        np.multiply(b[slot], diag, out=factor.a[slot])
        np.fft.fft(factor.a[slot], n_fft, out=factor.f_a[slot])

    # When the true direction falls midway between two grid cells the peak
    # can alternate between them forever, with the perturbation rebuild and
    # the prior variances flipping in a period-2 limit cycle.  Detect the
    # alternation and pin the row's perturbation to the stronger cell; with
    # a fixed dictionary the remaining iterations converge smoothly.  A row
    # whose flips reach 3 is pinned: the loop skips it from then on.
    # `before` is the peak before the current one, and `its` counts each
    # row's own iterations.
    peak, before, flips, its = (np.empty(n_rows, dtype=int)
                                for _ in range(4))

    def admit(slot, item):
        """Start the fit of item = (key, observation, grid) in a slot;
        False when the queue has drained and item is None."""
        if item is None:
            return False
        rows[slot], obs, grid = item
        if obs.beamformer.shape[1] != n_antennas:
            raise ValueError(
                "dimension mismatch: dictionary rows != n_antennas")
        center = grid.center_index
        b[slot] = np.asarray(obs.beamformer, dtype=complex)
        y[slot] = obs.received[:, center]
        freq[slot] = grid.frequencies[center]
        energy[slot] = _sq_norms(y[slot:slot + 1])[0] / n_pilots
        noise_var[slot] = np.maximum(1e-6, 0.01 * energy[slot])
        sigma[slot] = 1.0
        # Peak atom -1 stands for C = I, the factor of every new row.
        peak[slot] = before[slot] = -1
        flips[slot] = its[slot] = 0
        set_factor(slot, first_atom)
        return True

    leaving = np.arange(n_rows)     # every slot starts empty
    while True:
        keep = np.ones(len(rows), dtype=bool)
        for r in leaving:
            keep[r] = admit(r, next(queue, None))
        if not keep.all():
            factor = _DftFactor(factor.a[keep], factor.f_a[keep],
                                factor.work[:keep.sum()])
            rows, b, y, freq, energy, noise_var, sigma, peak, before, flips, \
                its = (x[keep] for x in (rows, b, y, freq, energy, noise_var,
                                         sigma, peak, before, flips, its))
            if not len(rows):
                return
        its += 1
        post = _e_step(factor, sigma, noise_var, y)
        # A broken row runs the rest of the iteration on meaningless values
        # and leaves with the converged ones.
        failed = post.failed

        # mu^2 update from the same E-step quantities.
        noise_var = np.maximum(
            (_sq_norms(y - post.fitted) + np.maximum(post.trace_term, 0.0))
            / n_pilots, NOISE_FLOOR_REL * energy)

        # Tipping's fixed-point form sigma_n = |z_n|^2 / gamma_n with
        # gamma_n = 1 - Pi_nn / sigma_n.  Same stationary points as the EM
        # form sigma_n = |z_n|^2 + Pi_nn but reaches them in a fraction of
        # the iterations, and unlike the bare point form sigma_n = |z_n|^2
        # it cannot collapse to all-zero.
        quality = np.clip(
            1.0 - post.post_var / np.maximum(sigma, 1e-300), 1e-12, 1.0)
        power = np.abs(post.z) ** 2
        sigma_new = power / quality
        # A live row's peak moves to its strongest atom.  A move back to
        # the peak before is a flip, any other move resets the count, and
        # from 3 flips on a move is kept only towards the stronger cell.
        new = np.argmax(power, axis=1)
        live = (flips < 3) & ~failed
        moved = live & (new != peak)
        flips[moved] = np.where(new == before, flips + 1, 0)[moved]
        at = np.arange(len(rows))
        moved &= (flips < 3) | (sigma_new[at, peak] <= sigma_new[at, new])
        before[live] = peak[live]
        peak[moved] = new[moved]
        if moved.any():
            c = update_perturbation_diag(
                n_antennas, dictionary.grid_points[peak[moved]], freq[moved],
                array_config.carrier_freq_hz)
            for r, c_r in zip(np.flatnonzero(moved), c.T):
                set_factor(r, c_r * first_atom)

        delta_sigma = np.sqrt(_sq_norms(sigma_new - sigma))
        norm_sigma = np.sqrt(_sq_norms(sigma_new))
        done = ~failed & (norm_sigma > 0)
        done[done] = delta_sigma[done] / norm_sigma[done] < CONVERGENCE_TOL
        sigma = sigma_new
        # The posterior goes before the leaving rows' estimators run.
        del post, quality, power, sigma_new
        leaving = np.flatnonzero(done | failed | (its >= MAX_ITERS))
        for r in leaving:
            if failed[r]:
                yield rows[r], SingularCovarianceError(
                    "observation covariance broke down at EM iteration "
                    f"{its[r]}")
            else:
                # A copy: the slot's sigma row is overwritten on a refill.
                yield rows[r], _Fit(sigma[r].copy(), float(noise_var[r]),
                                    int(peak[r]), int(its[r]), bool(done[r]))
        rows[leaving] = None


def run_sbce(observation, dictionary: Dictionary, grid: SubcarrierGrid,
             fit=None) -> SbceResult:
    """Estimate direction, splits and channel on the dictionary's array.

    One EM fit of the centre subcarrier gives the coarse direction, the
    wideband periodogram of all M subcarriers refines it, and each
    subcarrier's split and channel follow from it through C_m.  `fit` is
    the observation's fit from `fit_centres`; without it the observation
    is fitted alone, as a stack of one.
    """
    if fit is None:
        [(_, fit)] = fit_centres([(None, observation, grid)], dictionary)
    if isinstance(fit, SingularCovarianceError):
        raise fit
    pilot_matrix = observation.beamformer
    array_config = dictionary.config
    carrier = array_config.carrier_freq_hz

    direction = refine.refine_direction(
        float(dictionary.grid_points[fit.peak_index]), observation.received,
        pilot_matrix, grid.frequencies / carrier,
        dictionary.grid_size)

    # Subcarrier m's split is (f_m/f_c - 1) theta and its steering vector
    # C_m a(theta); its gain is g^H y_m / ||g||^2 with g = B C_m a(theta),
    # zero where g vanishes.
    splits = (grid.frequencies / carrier - 1.0) * direction
    steer = _split_diag(array_config.n_antennas, splits) * steering(
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

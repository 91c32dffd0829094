"""Off-grid direction refinement by a wideband periodogram.

Subcarrier m sees the one line-of-sight direction s through its own
perturbation C_m, as the carrier steering vector a(eta_m s) with
eta_m = f_m / f_c.  With v_m = B^H y_m, the refined direction is the argmax,
over a fine sine grid around the coarse estimate, of

    sum_m |v_m^H a(eta_m s)|^2 / ||B a(eta_m s)||^2,

the likelihood of one path with its own gain on every subcarrier,
concentrated over the gains.  On a uniform grid both terms are zoom DFTs of
length-N_T sequences, which one batched chirp-z transform evaluates.
"""

from __future__ import annotations

import numpy as np

from .arrays import _row_autocorrelation

N_SCAN_POINTS = 401


def _zoom_dft(x: np.ndarray, start: np.ndarray, step: np.ndarray,
              n_out: int) -> np.ndarray:
    """X[..., m, k] = sum_n x[..., m, n] exp(j n (start_m + k step_m)) for
    k < n_out, x of shape (..., M, N).

    Bluestein's chirp-z transform: n k = (n^2 + k^2 - (k - n)^2) / 2 turns
    the sum into a convolution with the chirp exp(-j step (k - n)^2 / 2),
    three FFTs of F >= N + n_out - 1 points along the last axis.  The
    pre-chirp, both transforms of the convolution and the post-chirp run
    in place in one zero-padded (..., M, F) buffer, and the kernel is
    transformed in place; the result is a view of that buffer.
    """
    n_in = x.shape[-1]
    n_fft = 1 << (n_in + n_out - 2).bit_length()
    start = np.asarray(start)[:, np.newaxis]
    half_step = 0.5 * np.asarray(step)[:, np.newaxis]
    n = np.arange(n_in)
    # Lags -(N - 1)..n_out - 1 wrap onto the F points; the rest are unread.
    lag = np.arange(n_fft)
    lag = np.where(lag < n_out, lag, lag - n_fft)
    kernel = -1j * half_step * lag ** 2
    np.exp(kernel, out=kernel)
    np.fft.fft(kernel, out=kernel)
    buf = np.zeros(x.shape[:-1] + (n_fft,), dtype=complex)
    np.multiply(x, np.exp(1j * (start * n + half_step * n ** 2)),
                out=buf[..., :n_in])
    np.fft.fft(buf, out=buf)
    buf *= kernel
    np.fft.ifft(buf, out=buf)
    conv = buf[..., :n_out]
    # chirp * conv, in that order: complex products need not commute in
    # the last bit.
    return np.multiply(np.exp(1j * half_step * np.arange(n_out) ** 2), conv,
                       out=conv)


def _periodogram(received: np.ndarray, pilot_matrix: np.ndarray,
                 eta: np.ndarray, start: float, step: float,
                 n_points: int) -> np.ndarray:
    """sum_m |v_m^H a(eta_m s)|^2 / ||B a(eta_m s)||^2 at the sines
    s = start + k step, k < n_points.

    received is the P x M observation and eta the M ratios f_m / f_c to the
    carrier of the half-wavelength array.  ||B a(eta s)||^2 is
    sum_d r_d e^{j pi d eta s} / N_T with r_d the sum of the d-th diagonal
    of B^H B and r_{-d} = conj(r_d), so numerator and denominator are one
    zoom DFT of a (2, M, N_T) stack.
    """
    r = _row_autocorrelation(pilot_matrix)
    # Row m of Y^H B is v_m^H; each row of r goes with one subcarrier.
    seqs = np.stack(np.broadcast_arrays(received.conj().T @ pilot_matrix, r))
    phase = np.pi * np.asarray(eta)
    num, den = _zoom_dft(seqs, phase * start, phase * step, n_points)
    power = (num.real ** 2 + num.imag ** 2) / (2.0 * den.real - r[0].real)
    return np.sum(power, axis=0)


def refine_direction(coarse_dir: float, received: np.ndarray,
                     pilot_matrix: np.ndarray, eta: np.ndarray,
                     n_grid: int) -> float:
    """Fine-grid argmax of the wideband periodogram around coarse_dir.

    received, pilot_matrix and eta are as in `_periodogram`.  The scan
    spans two cells of the n_grid-point grid either side of coarse_dir, in
    N_SCAN_POINTS points clipped to [-1, 1]: the centre fit's peak can sit
    more than half a cell from the wideband one.
    """
    # Negated so that a NaN fails it.
    if not abs(coarse_dir) <= 1.0:
        raise ValueError("invalid direction: |coarse_dir| > 1")
    half_width = 4.0 / n_grid
    grid = np.linspace(coarse_dir - half_width, coarse_dir + half_width,
                       N_SCAN_POINTS)
    # Never empty: |coarse_dir| <= 1 keeps at least the lower or upper half.
    grid = grid[np.abs(grid) <= 1.0]
    power = _periodogram(received, pilot_matrix, eta, grid[0],
                         2.0 * half_width / (N_SCAN_POINTS - 1), grid.size)
    return float(grid[int(np.argmax(power))])

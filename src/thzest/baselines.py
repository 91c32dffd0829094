"""Reference estimators: least squares, oracle LMMSE, and greedy joint OMP.

LMMSE and OMP work from the structure of the problem rather than from dense
matrices: each oracle covariance is real symmetric Toeplitz, held as its
first column and the spectrum of its circulant embedding, and on a
half-wavelength array the dictionary's atoms are a zero-padded DFT.
Neither forms an N_T x N_T, N_T x grid or P x grid matrix.
"""

from __future__ import annotations

import numpy as np

from .arrays import (SPEED_OF_LIGHT, ArrayConfig, Dictionary, _check_dft_grid,
                     _fft_size, _lag_spectrum, _row_autocorrelation, steering)


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


def check_psd_toeplitz(first_cols: np.ndarray) -> None:
    """Raise ValueError unless every real symmetric Toeplitz matrix T whose
    first column is a row of the (M, N) first_cols is positive semidefinite.

    PSD here means that T + tau I is positive definite, with tau =
    1e-8 max(1, t_0), the rule under which a dense Cholesky factor of
    T + tau I exists.  The Schur recursion tests it from the first columns
    in O(M N^2), every column in one pass: T + tau I is positive definite
    exactly when each of its N - 1 reflection coefficients rho has
    |rho| < 1.  Each step applies the hyperbolic rotation in the mixed
    form of Bojanczyk, Brent, de Hoog and Sweet (SIAM J. Matrix Anal.
    Appl. 16(1), 1995), which is about as stable as Cholesky, here without
    its 1 / sqrt(1 - rho^2) scaling: scaling both generators alike leaves
    every later rho unchanged.  A column with a NaN or infinite entry, or
    with t_0 <= 0, is rejected.
    """
    cols = np.atleast_2d(first_cols)
    if not np.isrealobj(cols):
        raise ValueError("non-PSD covariance: Toeplitz columns must be real")
    if not np.isfinite(cols).all():
        raise ValueError("non-PSD covariance: an entry is not finite")
    if not (cols[:, 0] > 0.0).all():
        raise ValueError("non-PSD covariance: variance t_0 <= 0")
    n_cols, n = cols.shape
    # Generators of T + tau I, whose displacement T - Z T Z^T is
    # (u u^T - v v^T) / u_0, Z the down shift; one column per matrix, so
    # that each step's views are contiguous.
    u = cols.T.astype(float, order="C")
    u[0] += 1e-8 * np.maximum(1.0, u[0])
    v = cols.T.astype(float, order="C")
    v[0] = 0.0
    # 1 - rho^2 of every step; a matrix whose step fails carries on with
    # meaningless values and is rejected at the end.
    one_minus_rho2 = np.ones((n, n_cols))
    w = np.empty_like(u)
    rho, lo, hi = np.empty((3, n_cols))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(1, n):
            # The Schur complement's generators: u shifted down by one and
            # v without its zeroed head, both views of length n - i.
            u_i, v_i, w_i = u[:n - i], v[i:], w[:n - i]
            np.divide(v_i[0], u_i[0], out=rho)
            c2 = one_minus_rho2[i]
            np.subtract(1.0, rho, out=lo)
            np.add(1.0, rho, out=hi)
            np.multiply(lo, hi, out=c2)
            # u <- u - rho v, then v <- (1 - rho^2) v - rho u with the new u.
            np.multiply(v_i, rho, out=w_i)
            u_i -= w_i
            v_i *= c2
            np.multiply(u_i, rho, out=w_i)
            v_i -= w_i
    if not (one_minus_rho2 > 0.0).all():
        raise ValueError("non-PSD covariance: negative eigenvalue")


def toeplitz_spectrum(first_cols: np.ndarray) -> np.ndarray:
    """Spectra of the F-point circulants that embed the real symmetric
    Toeplitz matrices whose first columns are the rows of the (M, N)
    first_cols, F the power of two >= 2 N - 1: that matrix times x is
    ifft(spectrum * fft(x, F))[:N].  (M, F)."""
    n = first_cols.shape[-1]
    n_fft = _fft_size(n)
    cols = np.zeros((len(first_cols), n_fft))
    cols[:, :n] = first_cols
    cols[:, n_fft - n + 1:] = first_cols[:, :0:-1]
    return np.fft.fft(cols).real


def mmse_estimate(pilot_matrix: np.ndarray, y: np.ndarray,
                  cov_spectra: np.ndarray, noise_var: float) -> np.ndarray:
    """LMMSE estimates R_m B^H (B R_m B^H + mu^2 I)^{-1} y_m, N_T x M.

    y is P x M, one observation per column, and row m of the (M, F)
    cov_spectra is the circulant-embedding spectrum lam_m of the real
    symmetric Toeplitz covariance R_m (`toeplitz_spectrum`), F >= 2 N_T - 1.
    With B_hat = F ifft(B, F) the gram B R_m B^H is
    B_hat diag(lam_m) B_hat^H / F, one P x F x P product per subcarrier,
    then one batched P x P solve gives x_m, and R_m (B^H x_m) is one FFT
    product per subcarrier.  No N_T x N_T matrix is formed.  Each R_m must
    be positive semidefinite; callers check the first columns of all M
    once, with `check_psd_toeplitz`, before taking their spectra.
    """
    n_pilots, n_antennas = pilot_matrix.shape
    n_fft = cov_spectra.shape[1]
    if n_fft < 2 * n_antennas - 1:
        raise ValueError(f"covariance spectra of length {n_fft} cannot "
                         f"embed {n_antennas} x {n_antennas} matrices")
    b_hat = n_fft * np.fft.ifft(pilot_matrix, n_fft)
    # lam_m is real, so B_hat diag(lam_m) B_hat^H is the conjugate of
    # (conj(B_hat) lam_m) B_hat^T, bit for bit: no conjugated copy of
    # B_hat is kept, and one P x F buffer holds each weighted factor.
    weighted = np.empty_like(b_hat)
    gram = np.empty((len(cov_spectra), n_pilots, n_pilots), dtype=complex)
    for out, lam in zip(gram, cov_spectra):
        np.conjugate(b_hat, out=weighted)
        weighted *= lam
        np.matmul(weighted, b_hat.T, out=out)
    np.conjugate(gram, out=gram)
    gram /= n_fft
    gram += noise_var * np.eye(n_pilots)
    x = np.linalg.solve(gram, y.T[..., np.newaxis])[..., 0].T
    v = np.fft.fft(pilot_matrix.conj().T @ x, n_fft, axis=0)
    return np.fft.ifft(v * cov_spectra.T, axis=0)[:n_antennas]


def _midpoint_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) = (1/pi) int_0^pi cos(x cos t) dt by the midpoint rule.

    The integrand is even and 2*pi-periodic in t, so n midpoints miss only
    the Fourier terms J_{2kn}(x), k >= 1.  With n > max|x| + 32 those fall
    below rounding.  It is also even about t = pi/2, so the sum doubles the
    first n//2 nodes and, for odd n, adds the middle node's cos(0) = 1.
    """
    n = int(np.max(np.abs(x), initial=0.0)) + 33
    t = (np.arange(n // 2) + 0.5) * (np.pi / n)
    phase = np.multiply.outer(x, np.cos(t))
    half = np.sum(np.cos(phase, out=phase), axis=-1)
    return (2.0 * half + n % 2) / n


def _hankel_series(n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P and Q in Hankel's expansion of J0 (Abramowitz &
    Stegun 9.2.9-9.2.10), P = sum_k (-1)^k a_2k u^k and
    Q = x^-1 sum_k (-1)^k a_2k+1 u^k in u = 1/x^2, where a_0 = 1 and
    a_k = a_k-1 (-(2k - 1)^2) / (8k)."""
    a = [1.0]
    for k in range(1, 2 * n_terms):
        a.append(a[-1] * -(2 * k - 1) ** 2 / (8 * k))
    signs = (-1.0) ** np.arange(n_terms)
    return signs * a[0::2], signs * a[1::2]


#: J0 switches from the midpoint rule (at most 72 nodes below it) to 16
#: terms of each Hankel series; together they stay within 1e-15 of J0 on
#: [0, 4000].
_HANKEL_X0 = 40.0
_HANKEL_P, _HANKEL_Q = _hankel_series(16)


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return acc


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0 at every entry of x, in O(1) operations per entry.

    Below x0 = 40 the midpoint rule; at and above it Hankel's expansion
    J0(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - pi/4
    (Abramowitz & Stegun 9.2.5), written as
    ((P + Q) cos x + (P - Q) sin x) / sqrt(pi x).  That form never rounds
    x - pi/4, which would cost up to ulp(x)/2 in phase: 2e-15 in J0 at
    x = 1000.  J0 is even, so negative x read |x|.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    low = x < _HANKEL_X0
    out[low] = _midpoint_j0(x[low])
    far = x[~low]
    u = 1.0 / (far * far)
    p = _horner(_HANKEL_P, u)
    q = _horner(_HANKEL_Q, u) / far
    out[~low] = ((p + q) * np.cos(far) + (p - q) * np.sin(far)) \
        / np.sqrt(np.pi * far)
    return out


def oracle_covariance(config: ArrayConfig, freq_hz: float) -> np.ndarray:
    """First column of the channel covariance under the uniform direction
    prior, in closed form.

    For a single unit-power path, R = N_T * E{a'(theta) a'^H(theta)} with the
    physical angle uniform over [-pi/2, pi/2] and the steering evaluated at
    the subcarrier frequency (so the prior already carries the split).
    Entry (i, k) is E{exp(j kappa (i - k) sin theta)} = J0(kappa |i - k|)
    with kappa = 2 pi d f / c0: a real symmetric Toeplitz matrix, returned
    as its length-N_T first column J0(kappa i).  Nothing here forms R.
    """
    kappa = 2.0 * np.pi * config.element_spacing_m * freq_hz / SPEED_OF_LIGHT
    return _bessel_j0(kappa * np.arange(config.n_antennas))


def omp_estimate_joint(pilot_matrix: np.ndarray, dictionary: Dictionary,
                       received: np.ndarray, sparsity: int):
    """OMP with a single support shared by every subcarrier.

    Atom selection maximizes the correlation energy summed over subcarriers,
    sum_m |(B a_n)^H r_m|^2 / ||B a_n||^2; per-subcarrier gains are then
    refit by least squares on the common support.  This is the split-blind
    wideband baseline: it presumes the beamspace support does not move
    with frequency.  On the half-wavelength grid atom n is `first_atom`
    times w^{in}, w = exp(2 pi j / G), so with e = B * first_atom both
    terms are G-point spectra of summed row autocorrelations: of e for the
    norms, once per call, and of the rows of X = R^T conj(e), one
    M x P x N_T product per round, for the correlations.  No sensed-atom
    block B D is formed; the support's columns are B times the steering
    vectors at their grid points.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1")
    config = dictionary.config
    _check_dft_grid(config, "OMP")
    n_grid = dictionary.grid_size
    e_conj = (pilot_matrix * dictionary.first_atom).conj()
    # ||B a_n||^2 = sum_p |sum_i e_pi w^{in}|^2 = sum_p |sum_i conj(e_pi)
    # w^{-in}|^2, the spectrum of conj(e)'s row autocorrelation.
    norms = _lag_spectrum(_row_autocorrelation(e_conj), n_grid)
    residual = received
    support: list[int] = []
    for _ in range(sparsity):
        corr = _lag_spectrum(_row_autocorrelation(residual.T @ e_conj),
                             n_grid) / norms
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        atoms = steering(config, dictionary.grid_points[support],
                         config.carrier_freq_hz)
        sub = pilot_matrix @ atoms
        coeffs, *_ = np.linalg.lstsq(sub, received, rcond=None)
        residual = received - sub @ coeffs
    return tuple(support), atoms @ coeffs

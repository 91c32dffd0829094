"""Off-grid direction refinement by a covariance-decomposition search.

After the grid-based EM has converged, the dominant atom is removed from the
model covariance and the residual sample covariance is scanned over a fine
sine-space interval around the coarse estimate.  The refined direction is
the grid point where the stationarity expression of the concentrated
likelihood crosses zero.
"""

from __future__ import annotations

import numpy as np

from .arrays import SPEED_OF_LIGHT, ArrayConfig
from .sbce import SingularCovarianceError

N_SCAN_POINTS = 201


def _solve_hermitian(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        out = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    if not np.all(np.isfinite(out)):
        raise SingularCovarianceError("non-finite solve result")
    return out


def covariance_excluding(effective_matrix: np.ndarray, sigma: np.ndarray,
                         noise_var: float, excluded_index: int) -> np.ndarray:
    """Model covariance with the excluded atom's prior variance zeroed."""
    if not 0 <= excluded_index < sigma.shape[0]:
        raise ValueError("excluded_index out of range")
    trimmed = sigma.copy()
    trimmed[excluded_index] = 0.0
    weighted = effective_matrix * trimmed[np.newaxis, :]
    cov = weighted @ effective_matrix.conj().T
    cov = 0.5 * (cov + cov.conj().T)
    return cov + noise_var * np.eye(effective_matrix.shape[0])


def _stationarity_curve(grid: np.ndarray, sample_cov: np.ndarray,
                        cov_excl: np.ndarray, c: np.ndarray,
                        pilot_matrix: np.ndarray,
                        config: ArrayConfig) -> np.ndarray:
    """Re{g^H W [g g^H W R - R W g g^H] W g_dot} at every candidate.

    g = B C a(dir) and g_dot = B C da/ddir per candidate column; W is the
    inverse of the atom-excluded covariance, applied to all 2K columns in
    one solve.
    """
    idx = np.arange(config.n_antennas)
    phase = 2.0 * np.pi * config.element_spacing_m * config.carrier_freq_hz \
        / SPEED_OF_LIGHT
    atoms = np.exp(1j * np.outer(phase * idx, grid)) / np.sqrt(config.n_antennas)
    perturbed = c[:, np.newaxis] * atoms
    g = pilot_matrix @ perturbed
    g_dot = pilot_matrix @ ((1j * np.pi * idx)[:, np.newaxis] * perturbed)
    k = grid.size
    w_all = _solve_hermitian(cov_excl, np.hstack([g, g_dot]))
    r_all = sample_cov @ w_all
    wg, w_gdot = w_all[:, :k], w_all[:, k:]
    t1 = _col_vdot(g, wg) * _col_vdot(wg, r_all[:, k:])
    t2 = _col_vdot(wg, r_all[:, :k]) * _col_vdot(g, w_gdot)
    return np.real(t1 - t2)


def _col_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise a_k^H b_k."""
    return np.sum(a.conj() * b, axis=0)


def refine_direction(coarse_dir: float, observation_cols: np.ndarray,
                     pilot_matrix: np.ndarray, c: np.ndarray,
                     effective_matrix: np.ndarray, sigma: np.ndarray,
                     noise_var: float, excluded_index: int,
                     config: ArrayConfig) -> float:
    """Fine-grid search for the zero of the likelihood stationarity expression.

    The scan spans one coarse grid cell either side of coarse_dir in
    N_SCAN_POINTS points.  Falls back to coarse_dir when the expression never
    changes sign over the interval, which covers intervals that contain no
    signal energy.
    """
    if abs(coarse_dir) > 1.0:
        raise ValueError("invalid direction: |coarse_dir| > 1")
    half_width = 1.0 / sigma.shape[0]
    cols = np.atleast_2d(observation_cols.T).T
    sample_cov = cols @ cols.conj().T / cols.shape[1]
    cov_excl = covariance_excluding(effective_matrix, sigma, noise_var,
                                    excluded_index)

    grid = np.linspace(coarse_dir - half_width, coarse_dir + half_width,
                       N_SCAN_POINTS)
    # Never empty: |coarse_dir| <= 1 keeps at least the lower or upper half.
    grid = grid[np.abs(grid) <= 1.0]
    values = _stationarity_curve(grid, sample_cov, cov_excl, c, pilot_matrix,
                                 config)
    signs = np.sign(values)
    if np.all(signs >= 0) or np.all(signs <= 0):
        return float(coarse_dir)
    return float(grid[int(np.argmin(np.abs(values)))])

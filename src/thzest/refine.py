"""Off-grid direction refinement by a covariance-decomposition search.

After the grid-based EM has converged, the dominant atom is removed from the
model covariance and the residual sample covariance is scanned over a fine
sine-space interval around the coarse estimate.  The refined direction is
the grid point where the stationarity expression of the concentrated
likelihood crosses zero.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig, steering_far
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
    perturbed = c[:, np.newaxis] * steering_far(config, grid,
                                                config.carrier_freq_hz)
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
                     cov_excl: np.ndarray, n_grid: int,
                     config: ArrayConfig) -> float:
    """Fine-grid search for the zero of the likelihood stationarity expression.

    cov_excl is the model covariance without the coarse atom.  The scan
    spans half a cell of the n_grid-point grid either side of coarse_dir,
    in N_SCAN_POINTS points.  Falls back to coarse_dir when the expression
    never changes sign over the interval, which covers intervals that
    contain no signal energy.
    """
    if abs(coarse_dir) > 1.0:
        raise ValueError("invalid direction: |coarse_dir| > 1")
    half_width = 1.0 / n_grid
    cols = np.atleast_2d(observation_cols.T).T
    sample_cov = cols @ cols.conj().T / cols.shape[1]

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

"""References for the closed-form Fisher information of `thzest.crb`: the
P x P form it is derived from, and a second-difference oracle shared by
the CRB unit tests and acceptance criterion 6; also the steering
derivatives of one path that criterion 7 checks."""

import numpy as np

from thzest.arrays import ArrayConfig
from thzest.crb import (
    ParamVector,
    _steering_and_derivs,
    _steering_derivatives,
    perturbed_steering,
)


def steering_derivatives_near(config: ArrayConfig, angle_rad: float,
                              range_m: float | None, split: float, freq_hz):
    """(d/d angle, d/d range, d/d split) of one path's perturbed steering,
    as the bound differentiates it; range_m None gives d/d range None."""
    return _steering_derivatives(
        config, perturbed_steering(config, angle_rad, split, freq_hz, range_m),
        angle_rad, range_m, freq_hz)


def dense_fim(config: ArrayConfig, params: ParamVector,
              pilot_matrix: np.ndarray, signal_powers, noise_var: float,
              freq_hz: float) -> np.ndarray:
    """The signal-parameter FIM at one frequency from P x P matrices.

    F_ij = (2/mu^2) Re Tr{M K_ij} with M = S A'^H Pi_y^{-1} A' S, Pi_y the
    P x P covariance, and K_ij = dA_i^H (I - A' A'^+) dA_j, the projector
    built from `pinv` of the P x L observed steering matrix A'.
    """
    a_mat, d_mat, paths = _steering_and_derivs(config, params, freq_hz)
    a_obs = pilot_matrix @ a_mat
    d_obs = pilot_matrix @ d_mat
    powers = np.atleast_1d(np.asarray(signal_powers, dtype=float))
    eye = np.eye(len(pilot_matrix))
    cov_y = (a_obs * powers) @ a_obs.conj().T + noise_var * eye
    m_mat = powers[:, np.newaxis] * (
        a_obs.conj().T @ np.linalg.solve(cov_y, a_obs)) * powers
    proj_d = (eye - a_obs @ np.linalg.pinv(a_obs)) @ d_obs
    k_mat = proj_d.conj().T @ proj_d
    fim = (2.0 / noise_var) * np.real(
        m_mat[paths[np.newaxis, :], paths[:, np.newaxis]] * k_mat)
    return 0.5 * (fim + fim.T)


def numeric_fim(config: ArrayConfig, params: ParamVector,
                pilot_matrix: np.ndarray, signal_powers,
                noise_var: float, freq_hz: float) -> np.ndarray:
    """Signal-parameter FIM from second differences of the log-likelihood.

    Builds the full FIM over (signal parameters, signal powers, noise
    variance) by numerically differentiating ln|Pi_y(w)| + Tr{Pi_y(w)^{-1}
    Pi_y(w0)}, then removes the nuisance block by Schur complement.  Serves
    as the independent oracle for the closed form.
    """
    powers = np.atleast_1d(np.asarray(signal_powers, dtype=float))
    n_paths = params.n_paths
    n_sig = (3 if params.is_near_field else 2) * n_paths

    def unpack(w):
        directions = w[:n_paths]
        splits = w[n_paths:2 * n_paths]
        if params.is_near_field:
            ranges = w[2 * n_paths:3 * n_paths]
            p = ParamVector(directions, splits, ranges)
        else:
            p = ParamVector(directions, splits)
        pw = w[n_sig:n_sig + n_paths]
        nv = w[n_sig + n_paths]
        return p, pw, nv

    def cov_of(w):
        p, pw, nv = unpack(w)
        a_mat = pilot_matrix @ _steering_and_derivs(config, p, freq_hz)[0]
        return (a_mat * pw[np.newaxis, :]) @ a_mat.conj().T + \
            nv * np.eye(a_mat.shape[0])

    w0 = np.concatenate([
        params.directions, params.splits,
        params.ranges if params.is_near_field else np.zeros(0),
        powers, [noise_var]])
    cov0 = cov_of(w0)

    def nll(w):
        cov = cov_of(w)
        sign, logdet = np.linalg.slogdet(cov)
        return float(logdet + np.real(np.trace(np.linalg.solve(cov, cov0))))

    steps = np.full(w0.shape, 1e-4)
    if params.is_near_field:
        steps[2 * n_paths:3 * n_paths] = 1e-4 * np.abs(params.ranges)
    steps[n_sig:n_sig + n_paths] = 1e-4 * np.maximum(powers, 1e-12)
    steps[n_sig + n_paths] = 1e-4 * noise_var

    n_all = w0.shape[0]
    hess = np.zeros((n_all, n_all))
    f0 = nll(w0)
    for i in range(n_all):
        e_i = np.zeros(n_all)
        e_i[i] = steps[i]
        hess[i, i] = (nll(w0 + e_i) - 2.0 * f0 + nll(w0 - e_i)) / steps[i] ** 2
        for j in range(i + 1, n_all):
            e_j = np.zeros(n_all)
            e_j[j] = steps[j]
            val = (nll(w0 + e_i + e_j) - nll(w0 + e_i - e_j)
                   - nll(w0 - e_i + e_j) + nll(w0 - e_i - e_j)) / \
                (4.0 * steps[i] * steps[j])
            hess[i, j] = val
            hess[j, i] = val

    f_vv = hess[:n_sig, :n_sig]
    f_vn = hess[:n_sig, n_sig:]
    f_nn = hess[n_sig:, n_sig:]
    return f_vv - f_vn @ np.linalg.solve(f_nn, f_vn.T)

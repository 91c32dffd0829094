"""Fisher information and Cramér-Rao bounds for direction, split, and range.

The unknown vector stacks, per path, the physical angle, a beam-split
offset, and (near field) the range.  The split parameter is expressed as a
phase-slope offset on top of the frequency-induced split, so ground-truth
channels correspond to offset 0 and the bound on the offset equals the
bound on the split itself.

Bounds are computed in the observed domain: the steering columns and their
derivatives are passed through the pilot beamformer before the projection,
which is the bound the estimator's RMSE can actually track.  An identity
beamformer gives the full-aperture bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import SPEED_OF_LIGHT, ArrayConfig, _split_diag, steering


@dataclass(frozen=True)
class ParamVector:
    """Per-path signal parameters; ranges present only in the near field."""

    directions: np.ndarray   # physical angles, radians
    splits: np.ndarray       # split offsets (0 for a physical channel)
    ranges: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "directions", np.atleast_1d(
            np.asarray(self.directions, dtype=float)))
        object.__setattr__(self, "splits", np.atleast_1d(
            np.asarray(self.splits, dtype=float)))
        if self.ranges is not None:
            object.__setattr__(self, "ranges", np.atleast_1d(
                np.asarray(self.ranges, dtype=float)))
            if self.ranges.shape != self.directions.shape:
                raise ValueError("ranges length must match directions")
        if self.splits.shape != self.directions.shape:
            raise ValueError("splits length must match directions")

    @property
    def n_paths(self) -> int:
        return self.directions.shape[0]

    @property
    def is_near_field(self) -> bool:
        return self.ranges is not None


@dataclass(frozen=True)
class CrbReport:
    fim: np.ndarray
    crb_diag: np.ndarray


def perturbed_steering(config: ArrayConfig, angle_rad: float, split: float,
                       freq_hz, range_m: float | None = None) -> np.ndarray:
    """Subcarrier steering vector with an explicit split offset parameter:
    the channel's steering at sin(angle_rad) times C(split).  A 1-D freq_hz
    gives one column per frequency."""
    steer = steering(config, np.sin(angle_rad), freq_hz, range_m)
    return (steer.T * _split_diag(config.n_antennas, split)).T


def _steering_derivatives(config: ArrayConfig, a: np.ndarray,
                          angle_rad: float, range_m: float | None, freq_hz):
    """Analytic (d/d angle, d/d range, d/d split) of the perturbed steering
    a = `perturbed_steering(config, angle_rad, split, freq_hz, range_m)`.

    Its phase is 2 pi d f/c0 (i-1) [sin - (i-1) d cos^2/(2 r)] + pi (i-1)
    split; range_m None is the far field, whose d/d range is None.
    """
    idx = np.arange(config.n_antennas).reshape((-1,) + (1,) * np.ndim(freq_hz))
    offs = config.element_spacing_m * idx
    slope = 2.0 * np.pi * np.asarray(freq_hz) / SPEED_OF_LIGHT * offs
    cos_a = np.cos(angle_rad)
    inv_r = 0.0 if range_m is None else 1.0 / range_m
    d_angle = 1j * slope * cos_a * (1.0 + offs * np.sin(angle_rad) * inv_r) * a
    d_range = None if range_m is None else \
        0.5j * slope * offs * (cos_a * inv_r) ** 2 * a
    d_split = 1j * np.pi * idx * a
    return d_angle, d_range, d_split


def _steering_and_derivs(config: ArrayConfig, params: ParamVector, freq_hz):
    """Columns of A' and of its derivatives, stacked as (A', D, paths).

    D has one column per parameter in the order all angles, all splits,
    all ranges, and paths[k] is the path that parameter k belongs to.  A
    scalar freq_hz gives N_T-row matrices; a 1-D array of F frequencies
    gives stacks with a leading frequency axis.
    """
    n_paths = params.n_paths
    ranges = params.ranges if params.is_near_field else [None] * n_paths
    cols, d_angles, d_splits, d_ranges = [], [], [], []
    for angle, split, r in zip(params.directions, params.splits, ranges):
        cols.append(perturbed_steering(config, angle, split, freq_hz, r))
        d_angle, d_range, d_split = _steering_derivatives(
            config, cols[-1], angle, r, freq_hz)
        d_angles.append(d_angle)
        d_splits.append(d_split)
        if d_range is not None:
            d_ranges.append(d_range)
    derivs = d_angles + d_splits + d_ranges
    paths = np.tile(np.arange(n_paths), len(derivs) // n_paths)
    # The pilot product needs the antenna axis after the frequency axis.
    return (np.moveaxis(np.stack(cols, axis=-1), 0, -2),
            np.moveaxis(np.stack(derivs, axis=-1), 0, -2), paths)


def crb(config: ArrayConfig, params: ParamVector, pilot_matrix: np.ndarray,
        signal_powers, noise_var: float, freq_hz) -> CrbReport:
    """Closed-form FIM and CRB diagonal for the stacked signal parameters.

    F_ij = (2/mu^2) Re Tr{M K_ij} with M = S A'^H Pi_y^{-1} A' S and
    K_ij = dA_i^H (I - A' A'^+) dA_j, evaluated through the pilot
    beamformer.  Both come from L x L algebra, L the path count: with the
    gram G = A'^H A' and C = A'^H D, the matrix inversion lemma gives
    A'^H Pi_y^{-1} A' = G (S G + mu^2 I)^{-1} = (G S + mu^2 I)^{-1} G and,
    since A' A'^+ = A' G^+ A'^H, (I - A' A'^+) D = D - A' (G^+ C).  That
    residual keeps the accuracy of the projector form where
    D^H D - C^H G^+ C would cancel: 4e-10 against 1e-14 relative on four
    antennas and three near-field paths.  `pinv` of G keeps a
    rank-deficient A' (two paths alike) to the projector `pinv(A')` gives.
    No P x P matrix is formed.

    The bound on each parameter is the reciprocal diagonal 1/F_ii, not the
    diagonal of the inverse: for a single far-field path at one subcarrier
    the angle and split derivatives are collinear and the joint FIM is
    exactly singular.

    freq_hz is one frequency or a 1-D array of F of them.  An array gives
    the bounds at every frequency in one pass, with a leading frequency
    axis on `fim` (F x K x K) and `crb_diag` (F x K); a scalar is the
    one-frequency case with that axis dropped.
    """
    freqs = np.atleast_1d(np.asarray(freq_hz, dtype=float))
    a_mat, d_mat, paths = _steering_and_derivs(config, params, freqs)
    a_obs = pilot_matrix @ a_mat
    d_obs = pilot_matrix @ d_mat

    powers = np.atleast_1d(np.asarray(signal_powers, dtype=float))
    if powers.shape[0] != params.n_paths:
        raise ValueError("signal_powers length must match path count")
    a_obs_h = a_obs.conj().swapaxes(-1, -2)
    gram = a_obs_h @ a_obs
    m_mat = powers[:, np.newaxis] * np.linalg.solve(
        gram * powers + noise_var * np.eye(params.n_paths), gram) * powers
    proj_d = d_obs - a_obs @ (np.linalg.pinv(gram) @ (a_obs_h @ d_obs))
    k_mat = proj_d.conj().swapaxes(-1, -2) @ proj_d
    # fim[i, j] pairs K_ij with M[path of j, path of i].
    fim = (2.0 / noise_var) * np.real(
        m_mat[..., paths[np.newaxis, :], paths[:, np.newaxis]] * k_mat)
    fim = 0.5 * (fim + fim.swapaxes(-1, -2))

    diag = np.diagonal(fim, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore"):
        crb_diag = np.where(diag > 0.0, 1.0 / diag, np.inf)
    if np.ndim(freq_hz) == 0:
        return CrbReport(fim[0], crb_diag[0])
    return CrbReport(fim, crb_diag)

"""Uniform linear array geometry: one steering phase model, dictionaries.

Sine-space directions are dimensionless (sin of the physical angle), all
frequencies are in Hz and distances in metres.  Antenna 1 is the phase
reference, so formulas written with a 1-based antenna index i carry a
factor (i - 1) that becomes ``numpy.arange(n_antennas)`` in storage order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of a ULA transmitter."""

    n_antennas: int
    carrier_freq_hz: float
    element_spacing_m: float

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 2 <= self.n_antennas < math.inf:
            raise ValueError("n_antennas must be finite and >= 2")
        if not 0.0 < self.carrier_freq_hz < math.inf:
            raise ValueError("carrier_freq_hz must be finite and positive")
        if not 0.0 < self.element_spacing_m < math.inf:
            raise ValueError("element_spacing_m must be finite and positive")

    @classmethod
    def half_wavelength(cls, n_antennas: int, carrier_freq_hz: float) -> "ArrayConfig":
        """Standard build with half-wavelength spacing at the carrier."""
        spacing = SPEED_OF_LIGHT / (2.0 * carrier_freq_hz)
        return cls(n_antennas, carrier_freq_hz, spacing)

    @property
    def aperture_m(self) -> float:
        """Physical aperture between the first and last element."""
        return (self.n_antennas - 1) * self.element_spacing_m


@dataclass(frozen=True)
class SubcarrierGrid:
    """Symmetric subcarrier frequencies around the carrier."""

    n_subcarriers: int
    bandwidth_hz: float
    carrier_freq_hz: float
    frequencies: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, n_subcarriers: int, bandwidth_hz: float,
              carrier_freq_hz: float) -> "SubcarrierGrid":
        if not 1 <= n_subcarriers < math.inf:
            raise ValueError("n_subcarriers must be finite and >= 1")
        if not 0.0 <= bandwidth_hz < math.inf:
            raise ValueError("bandwidth_hz must be finite and >= 0")
        if not 0.0 < carrier_freq_hz < math.inf:
            raise ValueError("carrier_freq_hz must be finite and positive")
        m = np.arange(1, n_subcarriers + 1, dtype=float)
        freqs = carrier_freq_hz + (bandwidth_hz / n_subcarriers) * (
            m - 1.0 - (n_subcarriers - 1.0) / 2.0)
        freqs.setflags(write=False)
        return cls(n_subcarriers, bandwidth_hz, carrier_freq_hz, freqs)

    @property
    def center_index(self) -> int:
        """Index of the subcarrier closest to the carrier frequency."""
        return int(np.argmin(np.abs(self.frequencies - self.carrier_freq_hz)))


@dataclass(frozen=True)
class Direction:
    """A physical direction kept in both angle and sine form."""

    angle_rad: float
    sine: float

    @classmethod
    def from_angle(cls, angle_rad: float) -> "Direction":
        if not -np.pi / 2 <= angle_rad <= np.pi / 2:
            raise ValueError("angle must lie in [-pi/2, pi/2]")
        return cls(float(angle_rad), float(np.sin(angle_rad)))

    @classmethod
    def from_sine(cls, sine: float) -> "Direction":
        if not abs(sine) <= 1.0:
            raise ValueError("sine-space direction must lie in [-1, 1]")
        return cls(float(np.arcsin(sine)), float(sine))


def _check_inputs(sine_dir, freq_hz, range_m=None) -> None:
    # Each test is negated so that a NaN fails it.
    if not np.all(np.abs(sine_dir) <= 1.0):
        raise ValueError(
            f"invalid direction: |{np.max(np.abs(sine_dir))}| > 1")
    if not np.all(np.asarray(freq_hz) > 0.0):
        raise ValueError("freq_hz must be positive")
    if range_m is not None and not range_m > 0.0:
        raise ValueError("invalid range: range_m must be positive")


def steering(config: ArrayConfig, sine_dir, freq_hz,
             range_m: float | None = None) -> np.ndarray:
    """The steering phase model: entry i (1-based) is exp(j psi_i)/sqrt(N) with

        psi_i = 2 pi d f/c0 (i-1) [sine - (i-1) d (1 - sine^2)/(2 r)],

    the second-order Taylor phase of a source at range r, or the plane wave
    without a range: exp(j pi (i-1) (f/f_c) sine)/sqrt(N) for half-wavelength
    spacing.  K sines or M frequencies broadcast to N_T x K, the antenna
    axis first; scalars give one N_T vector.
    """
    _check_inputs(sine_dir, freq_hz, range_m)
    ndim = len(np.broadcast_shapes(np.shape(sine_dir), np.shape(freq_hz)))
    idx = np.arange(config.n_antennas).reshape((-1,) + (1,) * ndim)
    d = config.element_spacing_m
    kappa = 2.0 * np.pi * d * np.asarray(freq_hz) / SPEED_OF_LIGHT
    if range_m is not None:
        sine_dir = sine_dir - idx * d * (1.0 - sine_dir ** 2) / (2.0 * range_m)
    return np.exp(1j * (kappa * idx * sine_dir)) / np.sqrt(config.n_antennas)


def _split_diag(n_antennas: int, delta) -> np.ndarray:
    """c_i = exp(j*pi*(i-1)*delta) of a split delta, or the N_T x M columns
    of an array of M splits: C a(theta) shifts the phase slope of a(theta)
    by pi*delta."""
    return np.exp(np.multiply.outer(1j * np.pi * np.arange(n_antennas), delta))


def fraunhofer_distance(aperture_m: float, carrier_hz: float) -> float:
    """Far-field boundary 2*G^2*f_c/c0 for an aperture G."""
    # Negated so that a NaN fails them.
    if not 0.0 < aperture_m < math.inf:
        raise ValueError("aperture_m must be finite and positive")
    if not 0.0 < carrier_hz < math.inf:
        raise ValueError("carrier_hz must be finite and positive")
    return 2.0 * aperture_m ** 2 * carrier_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class Dictionary:
    """Overcomplete sine-space grid of carrier-frequency steering vectors.

    Only the grid and `first_atom` are held: the estimators work from the
    grid's DFT structure (`_check_dft_grid`), so the N_T x N atom matrix is
    never built.
    """

    config: ArrayConfig
    grid_points: np.ndarray = field(repr=False)

    @property
    def grid_size(self) -> int:
        return self.grid_points.shape[0]

    @cached_property
    def first_atom(self) -> np.ndarray:
        """The steering vector of the first grid point; atom n is this
        times the n-th power of one phase step, elementwise."""
        atom = steering(self.config, self.grid_points[0],
                        self.config.carrier_freq_hz)
        atom.setflags(write=False)
        return atom


def build_dictionary(config: ArrayConfig, grid_size: int) -> Dictionary:
    """Steering dictionary over the equispaced grid (2n - N - 1)/N, n = 1..N.

    SBCE and OMP work from `first_atom` and the grid's DFT structure
    (`_check_dft_grid`), without an atom matrix.
    """
    if grid_size < config.n_antennas:
        raise ValueError("grid too small: grid_size must be >= n_antennas")
    n = np.arange(1, grid_size + 1)
    grid = (2.0 * n - grid_size - 1.0) / grid_size
    grid.setflags(write=False)
    return Dictionary(config, grid)


def _fft_size(n: int) -> int:
    """Circulant size F for N x N Toeplitz: the power of two >= 2 N - 1."""
    return 1 << (2 * n - 2).bit_length()


def _row_autocorrelation(rows: np.ndarray) -> np.ndarray:
    """Lags d < N of the autocorrelation summed over the rows x of the
    (K, N) rows, r_d = sum_x sum_i x_{i+d} conj(x_i); r_{-d} = conj(r_d).

    One F-point FFT per row, F = `_fft_size(N)`, so no lag wraps: the sum
    of |X|^2 over the rows, transformed back.  Its spectrum
    sum_d r_d e^{-j w d} is sum_x |sum_i x_i e^{-j w i}|^2.
    """
    n = rows.shape[-1]
    f = np.fft.fft(rows, _fft_size(n))
    return np.fft.ifft(np.sum(f.real ** 2 + f.imag ** 2, axis=0))[:n]


def _check_dft_grid(config: ArrayConfig, estimator: str) -> None:
    """Raise ValueError unless the grid's atoms are a zero-padded DFT.

    Atom n is atom 0 times exp(2j phi i n / G), phi = 2 pi d f_c / c0, so
    the atoms form a G-point DFT only when phi = pi: half-wavelength
    spacing at the carrier.
    """
    ratio = 2.0 * config.element_spacing_m * config.carrier_freq_hz \
        / SPEED_OF_LIGHT
    if abs(ratio - 1.0) > 1e-12:
        raise ValueError(f"{estimator} needs half-wavelength element "
                         f"spacing, got 2 d f_c / c0 = {ratio!r}")

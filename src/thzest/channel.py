"""Wideband multi-carrier channel synthesis and noisy pilot observations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, Direction, SubcarrierGrid, steering

#: NLoS paths are drawn 10 dB weaker than the LoS path.
NLOS_GAIN_DB = -10.0

#: Path delays are drawn uniformly from [0, DELAY_SPREAD_S].
DELAY_SPREAD_S = 20e-9

#: Near-field user ranges are drawn uniformly from this interval (metres)
#: unless a fixed range is requested.
DEFAULT_RANGE_BOUNDS_M = (1.0, 30.0)


@dataclass(frozen=True)
class PathParams:
    """Ground-truth parameters of one propagation path."""

    gain: complex
    delay_s: float
    direction: Direction
    range_m: float | None


@dataclass(frozen=True)
class ChannelRealization:
    """Per-subcarrier channel vectors together with the paths that made them."""

    paths: tuple[PathParams, ...]
    per_subcarrier: np.ndarray = field(repr=False)  # N_T x M
    grid: SubcarrierGrid
    config: ArrayConfig

    @property
    def los_path(self) -> PathParams:
        return self.paths[0]


@dataclass(frozen=True)
class PilotObservation:
    """Beamformed noisy pilot measurements, one column per subcarrier."""

    beamformer: np.ndarray = field(repr=False)  # P x N_T
    received: np.ndarray = field(repr=False)    # P x M
    noise_var: float


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def channel_from_paths(config: ArrayConfig, grid: SubcarrierGrid,
                       paths) -> np.ndarray:
    """Evaluate h[m] = sqrt(N_T/L) * sum_l alpha_l a'(theta_m,l) e^{-j2pi tau_l f_m}.

    Each path is one pass over all M subcarriers.  A path's range decides
    its steering: near field at range_m, far field when range_m is None.
    """
    paths = tuple(paths)
    if not paths:
        raise ValueError("a channel needs at least one path")
    freqs = grid.frequencies
    h = np.zeros((config.n_antennas, grid.n_subcarriers), dtype=complex)
    for p in paths:
        h += p.gain * steering(config, p.direction.sine, freqs, p.range_m) * \
            np.exp(-2j * np.pi * p.delay_s * freqs)
    return np.sqrt(config.n_antennas / len(paths)) * h


def gen_channel(config: ArrayConfig, grid: SubcarrierGrid, n_paths: int,
                scenario: str = "far", rng_seed=0,
                range_m: float | None = None) -> ChannelRealization:
    """Draw a random channel: LoS path plus (n_paths - 1) weaker NLoS paths.

    Directions are uniform in angle over [-pi/2, pi/2].  The LoS gain has
    unit magnitude and uniform phase; NLoS gains sit 10 dB below.  In the
    near-field scenario each path gets a range, either the fixed ``range_m``
    or a uniform draw from DEFAULT_RANGE_BOUNDS_M.  ValueError, before any
    draw, for another scenario or a range_m in the far field.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if scenario not in ("far", "near"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "far" and range_m is not None:
        raise ValueError("range_m needs scenario = near")
    rng = _as_rng(rng_seed)
    nlos_mag = 10.0 ** (NLOS_GAIN_DB / 20.0)
    paths = []
    for l in range(n_paths):
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        mag = 1.0 if l == 0 else nlos_mag
        gain = mag * np.exp(2j * np.pi * rng.uniform(0.0, 1.0))
        delay = rng.uniform(0.0, DELAY_SPREAD_S)
        if scenario == "near":
            r = range_m if range_m is not None else \
                rng.uniform(*DEFAULT_RANGE_BOUNDS_M)
        else:
            r = None
        paths.append(PathParams(gain=complex(gain), delay_s=float(delay),
                                direction=Direction.from_angle(angle),
                                range_m=r))
    h = channel_from_paths(config, grid, paths)
    return ChannelRealization(tuple(paths), h, grid, config)


def gen_pilot_matrix(config: ArrayConfig, n_pilots: int, rng_seed=0) -> np.ndarray:
    """Random phase-only beamformer: entries of modulus 1/sqrt(N_T) whose
    phases are drawn uniform in [-1, 1] rad, not over the full circle."""
    if n_pilots < 1:
        raise ValueError("n_pilots must be >= 1")
    rng = _as_rng(rng_seed)
    phases = rng.uniform(-1.0, 1.0, size=(n_pilots, config.n_antennas))
    return np.exp(1j * phases) / np.sqrt(config.n_antennas)


def observe(channel: ChannelRealization, beamformer: np.ndarray,
            snr_db: float, rng_seed=0) -> PilotObservation:
    """Apply the pilot beamformer and add noise calibrated to the target SNR.

    The noise variance is set so that the per-subcarrier SNR
    ||B h[m]||^2 / (P mu^2), averaged over subcarriers, equals snr_db.
    """
    if beamformer.shape[1] != channel.config.n_antennas:
        raise ValueError("dimension mismatch: beamformer columns != n_antennas")
    rng = _as_rng(rng_seed)
    n_pilots = beamformer.shape[0]
    clean = beamformer @ channel.per_subcarrier
    signal_power = np.mean(np.sum(np.abs(clean) ** 2, axis=0))
    noise_var = signal_power / (n_pilots * 10.0 ** (snr_db / 10.0))
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))
    return PilotObservation(beamformer, clean + noise, float(noise_var))

"""The exact spherical-wave steering vector, the reference that tests
check `thzest.arrays.steering`'s second-order Taylor phase against."""

import numpy as np

from thzest.arrays import SPEED_OF_LIGHT, _check_inputs


def spherical_steering(config, sine_dir: float, range_m: float,
                       freq_hz: float) -> np.ndarray:
    """Exact spherical-wave steering vector: the per-element path-length
    excess r_i - r relative to antenna 1 gives entry
    i = exp(-j*2*pi*(f/c0)*(r_i - r))/sqrt(N), for one sine and frequency.
    """
    _check_inputs(sine_dir, freq_hz, range_m)
    offs = np.arange(config.n_antennas) * config.element_spacing_m
    r_i = range_m * np.sqrt(
        1.0 + (offs / range_m) ** 2 - 2.0 * offs * sine_dir / range_m)
    phase = -2.0 * np.pi * (freq_hz / SPEED_OF_LIGHT) * (r_i - range_m)
    return np.exp(1j * phase) / np.sqrt(config.n_antennas)

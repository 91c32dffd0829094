"""Off-grid direction refinement tests: the wideband periodogram."""

import tracemalloc

import numpy as np
import pytest

from thzest.arrays import ArrayConfig, SubcarrierGrid, steering
from thzest.channel import gen_pilot_matrix
from thzest.refine import (
    N_SCAN_POINTS,
    _periodogram,
    _zoom_dft,
    refine_direction,
)

CFG = ArrayConfig.half_wavelength(32, 300e9)
GRID = SubcarrierGrid.build(8, 30e9, 300e9)
ETA = GRID.frequencies / CFG.carrier_freq_hz
PILOTS = gen_pilot_matrix(CFG, 16, rng_seed=42)
N_GRID = 128


def _observation(true_sine, noise_var=0.0, seed=0):
    """P x M pilots of one path with a random gain per subcarrier."""
    rng = np.random.default_rng(seed)
    m = GRID.n_subcarriers
    gains = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    clean = PILOTS @ (steering(CFG, true_sine, GRID.frequencies) * gains)
    noise = np.sqrt(noise_var / 2) * (rng.standard_normal(clean.shape)
                                      + 1j * rng.standard_normal(clean.shape))
    return clean + noise


def periodogram_reference(sines, received, pilot_matrix, freqs, config):
    """sum_m |g_m^H y_m|^2 / ||g_m||^2 with g_m = B a(s, f_m) formed for
    every candidate s, at O(P N_T M) per candidate."""
    out = np.empty(len(sines))
    for k, s in enumerate(sines):
        g = pilot_matrix @ steering(config, float(s), freqs)
        num = np.abs(np.sum(g.conj() * received, axis=0)) ** 2
        out[k] = np.sum(num / np.sum(np.abs(g) ** 2, axis=0))
    return out


def _scan(coarse):
    """The scan of refine_direction around coarse."""
    grid = np.linspace(coarse - 4 / N_GRID, coarse + 4 / N_GRID,
                       N_SCAN_POINTS)
    return grid[np.abs(grid) <= 1.0]


class TestZoomDft:
    @pytest.mark.parametrize("shape, n_out", [
        ((3, 16), 40), ((2, 4, 32), 201), ((2, 1, 64), 7)])
    def test_matches_direct_sum(self, shape, n_out):
        rng = np.random.default_rng(n_out)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        start = rng.uniform(-4.0, 4.0, shape[-2])
        step = rng.uniform(-0.05, 0.05, shape[-2])
        n, k = np.arange(shape[-1]), np.arange(n_out)
        kernel = np.exp(1j * n[:, np.newaxis]
                        * (start[:, np.newaxis, np.newaxis]
                           + k * step[:, np.newaxis, np.newaxis]))
        direct = np.einsum("...mn,mnk->...mk", x, kernel)
        got = _zoom_dft(x, start, step, n_out)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestPeriodogram:
    # The last coarse point leaves only the scan's lower half inside
    # endfire.
    @pytest.mark.parametrize("true_sine, noise_var, seed, coarse", [
        (0.21, 1e-4, 0, 0.2109375), (-0.63, 1e-1, 1, -0.6328125),
        (0.05, 10.0, 2, 0.0546875), (0.995, 1e-2, 3, 1.0)])
    def test_matches_brute_force(self, true_sine, noise_var, seed, coarse):
        received = _observation(true_sine, noise_var, seed)
        sines = _scan(coarse)
        ref = periodogram_reference(sines, received, PILOTS, GRID.frequencies,
                                    CFG)
        got = _periodogram(received, PILOTS, ETA, sines[0],
                           8 / N_GRID / (N_SCAN_POINTS - 1), sines.size)
        np.testing.assert_allclose(got, ref, rtol=1e-10)
        assert refine_direction(coarse, received, PILOTS, ETA, N_GRID) \
            == sines[int(np.argmax(ref))]


class TestRefineDirection:
    # Truth a third of a cell, or a cell and a half, off the coarse point.
    @pytest.mark.parametrize("cells_off", [1 / 3, -1.5])
    def test_recovers_off_grid_direction(self, cells_off):
        coarse = 77 * 2 / N_GRID - 1 + 1 / N_GRID
        true_sine = coarse + cells_off * 2 / N_GRID
        refined = refine_direction(coarse, _observation(true_sine), PILOTS,
                                   ETA, N_GRID)
        # Noiseless, the periodogram peaks at the truth: the refinement
        # lands on the nearest scan point, two cells either side at most.
        assert abs(refined - true_sine) <= 4 / N_GRID / (N_SCAN_POINTS - 1)
        assert abs(refined - coarse) <= 4 / N_GRID

    def test_paper_size_scan_peaks_below_10_mib(self):
        # N_T = 256 and M = 128: the chirp-z transform of the (2, M, N_T)
        # stack runs in one (2, M, 1024) buffer of 4 MiB, beside the 2 MiB
        # kernel; three such arrays held at once would pass 10 MiB.
        cfg = ArrayConfig.half_wavelength(256, 300e9)
        grid = SubcarrierGrid.build(128, 30e9, 300e9)
        pilots = gen_pilot_matrix(cfg, 32, rng_seed=1)
        rng = np.random.default_rng(1)
        received = rng.standard_normal((32, 128)) + \
            1j * rng.standard_normal((32, 128))
        eta = grid.frequencies / cfg.carrier_freq_hz
        args = (0.3, received, pilots, eta, 2048)
        refine_direction(*args)    # FFT plans
        tracemalloc.start()
        try:
            refine_direction(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_rejects_invalid_coarse_direction(self):
        for coarse in (1.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                refine_direction(coarse, _observation(0.21), PILOTS, ETA,
                                 N_GRID)

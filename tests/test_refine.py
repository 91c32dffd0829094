"""Off-grid direction refinement tests."""

import numpy as np
import pytest

from thzest.arrays import ArrayConfig, build_dictionary, steering_far
from thzest.channel import gen_pilot_matrix
from thzest import sbce
from thzest.sbce import SingularCovarianceError
from thzest.refine import (
    _solve_hermitian,
    _stationarity_curve,
    refine_direction,
)

CFG = ArrayConfig.half_wavelength(32, 300e9)
DICT = build_dictionary(CFG, 128)
PILOTS = gen_pilot_matrix(CFG, 16, rng_seed=42)


def _setup(true_sine, noise_var=1e-6, n_snapshots=64, seed=0):
    """Observed snapshots of one source plus the EM-style model state."""
    rng = np.random.default_rng(seed)
    g_true = PILOTS @ steering_far(CFG, true_sine, 300e9)
    gains = np.sqrt(0.5) * (rng.standard_normal(n_snapshots) +
                            1j * rng.standard_normal(n_snapshots)) * 4.0
    noise = np.sqrt(noise_var / 2) * (
        rng.standard_normal((16, n_snapshots)) +
        1j * rng.standard_normal((16, n_snapshots)))
    cols = np.outer(g_true, gains) + noise
    effective = PILOTS @ DICT.atoms
    coarse_idx = int(np.argmin(np.abs(DICT.grid_points - true_sine)))
    sigma = np.full(128, 1e-8)
    sigma[coarse_idx] = 16.0
    return cols, effective, sigma, coarse_idx


def covariance_excluding(effective_matrix, sigma, noise_var, excluded_index):
    """Reference model covariance with the excluded atom's prior variance
    zeroed, from the formed P x N matrix P': P' Sigma P'^H + mu^2 I."""
    trimmed = sigma.copy()
    trimmed[excluded_index] = 0.0
    weighted = effective_matrix * trimmed[np.newaxis, :]
    cov = weighted @ effective_matrix.conj().T
    cov = 0.5 * (cov + cov.conj().T)
    return cov + noise_var * np.eye(effective_matrix.shape[0])


class TestCovarianceExcluding:
    def test_removes_one_atom(self):
        # The Gram matrix of the DFT factor A = B diag(d_0) of P' = B D,
        # with the atom's sigma zeroed, against the sum over the other atoms.
        _, effective, sigma, idx = _setup(0.21)
        manual = np.zeros((16, 16), dtype=complex)
        for n in range(128):
            if n == idx:
                continue
            manual += sigma[n] * np.outer(effective[:, n],
                                          effective[:, n].conj())
        manual += 0.3 * np.eye(16)
        trimmed = sigma.copy()
        trimmed[idx] = 0.0
        factor = sbce._dft_factor(PILOTS * DICT.atoms[:, 0])
        got = sbce._gram(factor, trimmed) + 0.3 * np.eye(16)
        np.testing.assert_allclose(got, manual, atol=1e-10)
        np.testing.assert_allclose(
            covariance_excluding(effective, sigma, 0.3, idx), manual,
            atol=1e-10)


def _perturbed_atom(config, sine_dir, c, pilot_matrix):
    """g'(dir) = B C a(dir) through the observed aperture."""
    return pilot_matrix @ (c * steering_far(config, sine_dir,
                                            config.carrier_freq_hz))


def signal_power_at(direction, cov_excl, sample_cov, c, pilot_matrix, config):
    """Reference excess power explained by one atom at a candidate direction.

    eta = g^H W (R_y - Pi) W g / (g^H W g)^2 with W the inverse of the
    atom-excluded covariance Pi.
    """
    g = _perturbed_atom(config, direction, c, pilot_matrix)
    wg = _solve_hermitian(cov_excl, g)
    excess = sample_cov - cov_excl
    numer = float(np.real(np.vdot(wg, excess @ wg)))
    denom = float(np.real(np.vdot(g, wg)))
    if denom <= 0.0:
        raise SingularCovarianceError("non-positive atom power normalization")
    return numer / denom ** 2


class TestSignalPower:
    def test_positive_at_source(self):
        cols, effective, sigma, idx = _setup(0.21)
        sample_cov = cols @ cols.conj().T / cols.shape[1]
        cov_excl = covariance_excluding(effective, sigma, 1e-6, idx)
        c = np.ones(32, dtype=complex)
        power = signal_power_at(0.21, cov_excl, sample_cov, c, PILOTS, CFG)
        assert power > 0.0

    def test_rejects_nonpositive_normalization(self):
        cols, _, _, _ = _setup(0.21)
        sample_cov = cols @ cols.conj().T / cols.shape[1]
        with pytest.raises(SingularCovarianceError):
            signal_power_at(0.21, -np.eye(16), sample_cov,
                            np.ones(32, dtype=complex), PILOTS, CFG)


class TestRefineDirection:
    def test_recovers_off_grid_direction(self):
        # Truth sits a third of a cell off the coarse grid.
        true_sine = float(DICT.grid_points[77]) + (1 / 128) * 0.66
        cols, effective, sigma, idx = _setup(true_sine)
        coarse = float(DICT.grid_points[idx])
        refined = refine_direction(
            coarse, cols, PILOTS, np.ones(32, dtype=complex),
            covariance_excluding(effective, sigma, 1e-6, idx), 128, CFG)
        assert abs(refined - true_sine) < abs(coarse - true_sine)
        assert abs(refined - true_sine) < 2e-4
        # The scan spans half a cell (1/N of the 2/N spacing) either side.
        assert abs(refined - coarse) <= 1 / 128

    def test_falls_back_without_sign_change(self):
        # All-zero snapshots carry no stationarity information.
        _, effective, sigma, idx = _setup(0.21)
        cols = np.zeros((16, 4), dtype=complex)
        coarse = float(DICT.grid_points[idx])
        refined = refine_direction(
            coarse, cols, PILOTS, np.ones(32, dtype=complex),
            covariance_excluding(effective, sigma, 1e-6, idx), 128, CFG)
        assert refined == coarse

    def test_grid_clipped_to_unit_interval(self):
        _, effective, sigma, idx = _setup(0.21)
        cols = np.zeros((16, 4), dtype=complex)
        refined = refine_direction(
            1.0, cols, PILOTS, np.ones(32, dtype=complex),
            covariance_excluding(effective, sigma, 1e-6, idx), 128, CFG)
        assert abs(refined) <= 1.0

    def test_rejects_invalid_coarse_direction(self):
        _, effective, sigma, idx = _setup(0.21)
        with pytest.raises(ValueError):
            refine_direction(
                1.5, np.zeros((16, 2), dtype=complex), PILOTS,
                np.ones(32, dtype=complex),
                covariance_excluding(effective, sigma, 1e-6, idx), 128, CFG)


def _stationarity_reference(grid, sample_cov, cov_excl, c, pilot_matrix,
                            config):
    """Scalar reference: one atom, two solves and four inner products per
    candidate, Re{g^H W [g g^H W R - R W g g^H] W g_dot}."""
    idx = np.arange(config.n_antennas)
    values = np.empty(grid.size)
    for k, cand in enumerate(grid):
        atom = steering_far(config, float(cand), config.carrier_freq_hz)
        g = pilot_matrix @ (c * atom)
        g_dot = pilot_matrix @ (c * (1j * np.pi * idx * atom))
        wg = np.linalg.solve(cov_excl, g)
        w_gdot = np.linalg.solve(cov_excl, g_dot)
        t1 = np.vdot(g, wg) * np.vdot(wg, sample_cov @ w_gdot)
        t2 = np.vdot(wg, sample_cov @ wg) * np.vdot(g, w_gdot)
        values[k] = float(np.real(t1 - t2))
    return values


class TestVectorisedScan:
    @pytest.mark.parametrize("true_sine, noise_var, seed", [
        (0.21, 1e-6, 0), (-0.63, 1e-2, 1), (0.05, 1.0, 2)])
    def test_matches_scalar_reference(self, true_sine, noise_var, seed):
        cols, effective, sigma, idx = _setup(true_sine, noise_var=noise_var,
                                             seed=seed)
        sample_cov = cols @ cols.conj().T / cols.shape[1]
        cov_excl = covariance_excluding(effective, sigma, noise_var, idx)
        c = np.exp(1j * np.pi * np.arange(32) * 0.013)
        coarse = float(DICT.grid_points[idx])
        grid = np.linspace(coarse - 1 / 128, coarse + 1 / 128, 201)
        got = _stationarity_curve(grid, sample_cov, cov_excl, c, PILOTS, CFG)
        ref = _stationarity_reference(grid, sample_cov, cov_excl, c, PILOTS,
                                      CFG)
        np.testing.assert_allclose(got, ref, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(ref)))
        refined = refine_direction(coarse, cols, PILOTS, c, cov_excl, 128,
                                   CFG)
        signs = np.sign(ref)
        expected = coarse if np.all(signs >= 0) or np.all(signs <= 0) \
            else float(grid[int(np.argmin(np.abs(ref)))])
        assert refined == expected

"""Least-squares, LMMSE, and greedy-recovery baseline tests."""

import numpy as np
import pytest

from thzest.arrays import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    build_dictionary,
    steering_far,
)
from thzest.channel import gen_pilot_matrix
from thzest.baselines import (
    check_psd_covariance,
    ls_estimate,
    mmse_estimate,
    omp_estimate_joint,
    oracle_covariance,
)

CFG = ArrayConfig.half_wavelength(16, 300e9)
DICT = build_dictionary(CFG, 64)


class TestLeastSquares:
    def test_exact_with_square_invertible_pilots(self):
        rng = np.random.default_rng(0)
        b = gen_pilot_matrix(CFG, 16, rng_seed=rng)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(ls_estimate(b, b @ h), h, atol=1e-9)

    def test_underdetermined_solution_is_consistent_and_min_norm(self):
        rng = np.random.default_rng(1)
        b = gen_pilot_matrix(CFG, 8, rng_seed=rng)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = ls_estimate(b, b @ h)
        np.testing.assert_allclose(b @ est, b @ h, atol=1e-9)
        # Minimum-norm solutions live in the row space of B.
        null_proj = est - np.linalg.pinv(b) @ (b @ est)
        assert np.linalg.norm(null_proj) < 1e-9


class TestMmse:
    def test_high_snr_full_rank_recovery(self):
        rng = np.random.default_rng(2)
        b = gen_pilot_matrix(CFG, 16, rng_seed=rng)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = mmse_estimate(b, b @ h, np.eye(16, dtype=complex), 1e-12)
        np.testing.assert_allclose(est, h, atol=1e-4)

    def test_shrinks_toward_zero_at_low_snr(self):
        rng = np.random.default_rng(3)
        b = gen_pilot_matrix(CFG, 8, rng_seed=rng)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = mmse_estimate(b, y, np.eye(16, dtype=complex), 1e6)
        assert np.linalg.norm(est) < 1e-3

    def test_rejects_non_hermitian_covariance(self):
        bad = np.eye(16, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            check_psd_covariance(bad)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            check_psd_covariance(-np.eye(16, dtype=complex))


class TestOracleCovariance:
    def test_hermitian_psd_with_unit_diagonal(self):
        r = oracle_covariance(CFG, 310e9)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
        eig = np.linalg.eigvalsh(r)
        assert eig[0] > -1e-10
        # N_T * E{a a^H} has trace N_T and unit diagonal for a ULA.
        assert np.real(np.trace(r)) == pytest.approx(16.0, rel=1e-12)

    def test_seeded_reproducibility(self):
        # The closed form takes no seed; repeated calls agree bit for bit.
        a = oracle_covariance(CFG, 310e9)
        b = oracle_covariance(CFG, 310e9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_antennas, freq_hz",
                             [(16, 310e9), (256, 285e9), (256, 315e9)])
    def test_real_symmetric_toeplitz_psd(self, n_antennas, freq_hz):
        cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
        r = oracle_covariance(cfg, freq_hz)
        assert np.isrealobj(r)
        np.testing.assert_array_equal(r, r.T)
        for lag in range(n_antennas):
            np.testing.assert_array_equal(np.diag(r, lag), r[0, lag])
        np.testing.assert_array_equal(np.diag(r), 1.0)
        eig = np.linalg.eigvalsh(r)
        assert eig[0] > -1e-12 * eig[-1]

    def test_matches_scipy_bessel(self):
        special = pytest.importorskip("scipy.special")
        for n_antennas, freq_hz in ((16, 310e9), (256, 285e9), (256, 315e9)):
            cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
            kappa = 2 * np.pi * cfg.element_spacing_m * freq_hz / SPEED_OF_LIGHT
            lags = np.arange(n_antennas)
            expected = special.j0(kappa * np.abs(lags[:, None] - lags[None, :]))
            np.testing.assert_allclose(oracle_covariance(cfg, freq_hz),
                                       expected, rtol=0, atol=1e-12)

    def test_matches_monte_carlo_average(self):
        # Sample mean of N_T a a^H over uniform physical angles converges on
        # the closed form at the 1/sqrt(draws) rate.
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, 20_000)
        atoms = np.stack([steering_far(CFG, float(np.sin(t)), 310e9)
                          for t in angles], axis=1)
        sample = 16 * atoms @ atoms.conj().T / angles.size
        np.testing.assert_allclose(sample, oracle_covariance(CFG, 310e9),
                                   atol=0.03)


class TestOmp:
    # Per-subcarrier OMP is the one-column case of the joint form.
    def test_exact_recovery_on_grid(self):
        rng = np.random.default_rng(4)
        b = gen_pilot_matrix(CFG, 12, rng_seed=rng)
        x = np.zeros(64, dtype=complex)
        x[[10, 40]] = [2.0, 1.0 - 1j]
        h = DICT.atoms @ x
        support, est = omp_estimate_joint(b, DICT.atoms, (b @ h)[:, None],
                                          sparsity=2)
        assert set(support) == {10, 40}
        np.testing.assert_allclose(est[:, 0], h, atol=1e-8)

    def test_support_size_matches_sparsity(self):
        rng = np.random.default_rng(5)
        b = gen_pilot_matrix(CFG, 12, rng_seed=rng)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        support, _ = omp_estimate_joint(b, DICT.atoms, y[:, None], sparsity=3)
        assert len(support) == 3
        assert len(set(support)) == 3

    def test_rejects_zero_sparsity(self):
        b = gen_pilot_matrix(CFG, 12, rng_seed=0)
        with pytest.raises(ValueError):
            omp_estimate_joint(b, DICT.atoms, np.zeros((12, 1), dtype=complex),
                               0)


class TestOmpJoint:
    def test_common_support_recovery_without_split(self):
        # All subcarriers share the same beamspace support when the
        # dictionary is evaluated at the observation frequency.
        rng = np.random.default_rng(6)
        b = gen_pilot_matrix(CFG, 12, rng_seed=rng)
        gains = np.array([1.0, 0.5 + 0.5j, -0.8])
        h = np.stack([g * np.sqrt(16) *
                      steering_far(CFG, float(DICT.grid_points[22]), 300e9)
                      for g in gains], axis=1)
        support, est = omp_estimate_joint(b, DICT.atoms, b @ h, sparsity=1)
        assert support == (22,)
        np.testing.assert_allclose(est, h, atol=1e-8)

    def test_rejects_zero_sparsity(self):
        b = gen_pilot_matrix(CFG, 12, rng_seed=0)
        with pytest.raises(ValueError):
            omp_estimate_joint(b, DICT.atoms,
                               np.zeros((12, 2), dtype=complex), 0)

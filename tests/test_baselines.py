"""Least-squares, LMMSE, and greedy-recovery baseline tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thzest

from thzest.arrays import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    SubcarrierGrid,
    build_dictionary,
    steering_far,
)
from thzest.channel import gen_channel, gen_pilot_matrix, observe
from thzest.baselines import (
    check_psd_covariance,
    ls_estimate,
    mmse_estimate,
    omp_estimate_joint,
    oracle_covariance,
    toeplitz_spectrum,
)

from grid_atoms import grid_atoms

CFG = ArrayConfig.half_wavelength(16, 300e9)
DICT = build_dictionary(CFG, 64)
IDENTITY = toeplitz_spectrum(np.eye(16)[0])[np.newaxis]

# (n_antennas, n_pilots, grid_size, n_subcarriers, n_paths) of the trials
# on which the structured LMMSE and OMP must match their dense references.
STRUCTURE_CASES = {
    "desk": (64, 16, 512, 8, 1),
    "paper-m8": (256, 32, 2048, 8, 1),
    "tall-pilots": (16, 20, 64, 4, 1),
    "three-paths": (64, 16, 512, 8, 3),
    "one-subcarrier": (64, 16, 512, 1, 1),
}


def _structure_trial(case, seed):
    """(array, grid, grid_size, n_paths, channel, observation) at 10 dB."""
    n_antennas, n_pilots, grid_size, n_sub, n_paths = STRUCTURE_CASES[case]
    cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
    grid = SubcarrierGrid.build(n_sub, 30e9, 300e9)
    rngs = [np.random.default_rng([seed, k]) for k in range(3)]
    channel = gen_channel(cfg, grid, n_paths, rng_seed=rngs[0])
    pilots = gen_pilot_matrix(cfg, n_pilots, rng_seed=rngs[1])
    obs = observe(channel, pilots, 10.0, rng_seed=rngs[2])
    return cfg, grid, grid_size, n_paths, channel, obs


def _dense_mmse(pilot_matrix, y, covs, noise_var):
    """Reference LMMSE from the (M, N_T, N_T) covariance stack."""
    cross = covs @ pilot_matrix.conj().T
    gram = pilot_matrix @ cross + noise_var * np.eye(len(pilot_matrix))
    return (cross @ np.linalg.solve(gram, y.T[..., np.newaxis]))[..., 0].T


def _dense_omp(pilot_matrix, atoms, received, sparsity):
    """Reference joint OMP from the N_T x grid atom matrix."""
    sensed = pilot_matrix @ atoms
    col_norms = np.linalg.norm(sensed, axis=0)
    residual = received.copy()
    support = []
    for _ in range(sparsity):
        corr = np.sum(np.abs(sensed.conj().T @ residual) ** 2, axis=1) \
            / col_norms ** 2
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = sensed[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, received, rcond=None)
        residual = received - sub @ coeffs
    return tuple(support), atoms[:, support] @ coeffs


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

    def test_batch_matches_per_column_lstsq(self):
        # Wide, square and tall pilot matrices.
        rng = np.random.default_rng(7)
        for n_antennas, n_pilots in ((16, 8), (64, 16), (256, 32), (16, 16),
                                     (16, 20), (64, 96)):
            cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
            b = gen_pilot_matrix(cfg, n_pilots, rng_seed=rng)
            y = rng.standard_normal((n_pilots, 8)) + \
                1j * rng.standard_normal((n_pilots, 8))
            est = ls_estimate(b, y)
            for m in range(8):
                ref = np.linalg.lstsq(b, y[:, m], rcond=None)[0]
                np.testing.assert_allclose(est[:, m], ref, rtol=0,
                                           atol=1e-12 * np.linalg.norm(ref))

    def test_bytes_independent_of_blas_threads(self):
        # Paper-size pilots: lstsq and pinv move bytes between one and two
        # OpenBLAS threads, which would make the sweep CSV depend on them.
        script = (
            "import hashlib, numpy as np\n"
            "from thzest.arrays import ArrayConfig\n"
            "from thzest.baselines import ls_estimate\n"
            "from thzest.channel import gen_pilot_matrix\n"
            "cfg = ArrayConfig.half_wavelength(256, 300e9)\n"
            "digest = hashlib.sha256()\n"
            "for seed in range(30):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    b = gen_pilot_matrix(cfg, 32, rng_seed=rng)\n"
            "    y = rng.standard_normal((32, 8)) + "
            "1j * rng.standard_normal((32, 8))\n"
            "    digest.update(ls_estimate(b, y).tobytes())\n"
            "print(digest.hexdigest())\n")
        src = str(Path(thzest.__file__).resolve().parents[1])
        path = os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            digests.append(proc.stdout)
        assert len(digests[0]) > 64
        assert digests[0] == digests[1]


class TestMmse:
    def test_high_snr_full_rank_recovery(self):
        rng = np.random.default_rng(2)
        b = gen_pilot_matrix(CFG, 16, rng_seed=rng)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = mmse_estimate(b, (b @ h)[:, None], IDENTITY, 1e-12)
        np.testing.assert_allclose(est[:, 0], h, atol=1e-4)

    def test_shrinks_toward_zero_at_low_snr(self):
        rng = np.random.default_rng(3)
        b = gen_pilot_matrix(CFG, 8, rng_seed=rng)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = mmse_estimate(b, y[:, None], IDENTITY, 1e6)
        assert np.linalg.norm(est) < 1e-3

    @pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
    def test_matches_dense_covariance_stack(self, case):
        # The spectral form against R_m B^H (B R_m B^H + mu^2 I)^{-1} y_m
        # from the dense stack of oracle covariances.
        for seed in range(3):
            cfg, grid, _, _, channel, obs = _structure_trial(case, seed)
            covs = np.stack([oracle_covariance(cfg, float(f))
                             for f in grid.frequencies])
            spectra = np.stack([toeplitz_spectrum(c[:, 0]) for c in covs])
            est = mmse_estimate(obs.beamformer, obs.received, spectra,
                                obs.noise_var)
            ref = _dense_mmse(obs.beamformer, obs.received, covs,
                              obs.noise_var)
            assert est.shape == channel.per_subcarrier.shape
            np.testing.assert_allclose(est, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))

    def test_rejects_spectra_too_short_to_embed(self):
        b = gen_pilot_matrix(CFG, 8, rng_seed=0)
        with pytest.raises(ValueError, match="embed"):
            mmse_estimate(b, np.zeros((8, 1), dtype=complex),
                          np.ones((1, 30)), 0.1)

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 256])
    def test_toeplitz_spectrum_applies_the_matrix(self, n):
        rng = np.random.default_rng(n)
        col = rng.standard_normal(n)
        lags = np.arange(n)
        dense = col[np.abs(lags[:, None] - lags[None, :])]
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = toeplitz_spectrum(col)
        assert len(lam) >= 2 * n - 1 and len(lam) & (len(lam) - 1) == 0
        got = np.fft.ifft(lam * np.fft.fft(x, len(lam)))[:n]
        np.testing.assert_allclose(got, dense @ x, rtol=0,
                                   atol=1e-12 * np.linalg.norm(dense @ x))

    def test_rejects_non_hermitian_covariance(self):
        bad = np.eye(16, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            check_psd_covariance(bad)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            check_psd_covariance(-np.eye(16, dtype=complex))


def _eigenvalue_rule_rejects(cov):
    """The eigenvalue form of the PSD rule, with eigvalsh's own rounding
    (n eps ||R||) counted in the matrix's favour, so that a matrix at the
    threshold to within rounding is not a case either rule decides."""
    eig = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))
    slack = cov.shape[0] * np.finfo(float).eps * np.max(np.abs(eig))
    return eig[0] < -1e-8 * max(1.0, eig[-1]) - slack


class TestPsdCheck:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(-6.0, 6.0), log_depth=st.floats(-3.0, 3.0),
           negative=st.booleans(), is_complex=st.booleans())
    def test_rejects_all_the_eigenvalue_rule_rejects(self, n, seed, log_scale,
                                                     log_depth, negative,
                                                     is_complex):
        # Eigenvalues up to 10**log_scale; the smallest sits 10**log_depth
        # times the eigenvalue rule's threshold below zero, or above it.
        rng = np.random.default_rng(seed)
        eig = 10.0 ** log_scale * rng.uniform(0.0, 1.0, n)
        threshold = 1e-8 * max(1.0, float(np.max(eig)))
        eig[0] = (-1.0 if negative else 1.0) * 10.0 ** log_depth * threshold
        shape = (n, n)
        z = rng.standard_normal(shape) + (
            1j * rng.standard_normal(shape) if is_complex else 0.0)
        q, _ = np.linalg.qr(z)
        cov = (q * eig) @ q.conj().T
        cov = 0.5 * (cov + cov.conj().T)
        if _eigenvalue_rule_rejects(cov):
            with pytest.raises(ValueError, match="non-PSD"):
                check_psd_covariance(cov)
        if np.min(np.linalg.eigvalsh(cov)) >= 0.0:
            check_psd_covariance(cov)


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
        h = grid_atoms(DICT) @ x
        support, est = omp_estimate_joint(b, DICT, (b @ h)[:, None],
                                          sparsity=2)
        assert set(support) == {10, 40}
        np.testing.assert_allclose(est[:, 0], h, atol=1e-8)

    def test_support_size_matches_sparsity(self):
        rng = np.random.default_rng(5)
        b = gen_pilot_matrix(CFG, 12, rng_seed=rng)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        support, _ = omp_estimate_joint(b, DICT, y[:, None], sparsity=3)
        assert len(support) == 3
        assert len(set(support)) == 3

    def test_rejects_zero_sparsity(self):
        b = gen_pilot_matrix(CFG, 12, rng_seed=0)
        with pytest.raises(ValueError):
            omp_estimate_joint(b, DICT, np.zeros((12, 1), dtype=complex),
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
        support, est = omp_estimate_joint(b, DICT, b @ h, sparsity=1)
        assert support == (22,)
        np.testing.assert_allclose(est, h, atol=1e-8)

    def test_rejects_zero_sparsity(self):
        b = gen_pilot_matrix(CFG, 12, rng_seed=0)
        with pytest.raises(ValueError):
            omp_estimate_joint(b, DICT,
                               np.zeros((12, 2), dtype=complex), 0)

    @pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
    def test_matches_atom_matrix_gemm(self, case):
        # Sensed atoms from one FFT against B @ atoms; the support's atoms
        # from steering vectors against columns of the atom matrix.
        for seed in range(3):
            cfg, _, grid_size, n_paths, _, obs = _structure_trial(case, seed)
            d = build_dictionary(cfg, grid_size)
            support, est = omp_estimate_joint(obs.beamformer, d,
                                              obs.received, n_paths)
            ref_support, ref = _dense_omp(obs.beamformer, grid_atoms(d),
                                          obs.received, n_paths)
            assert support == ref_support
            np.testing.assert_allclose(est, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))

    def test_rejects_non_half_wavelength_array(self):
        # Only half-wavelength spacing makes the grid's atoms a DFT.
        cfg = ArrayConfig(16, 300e9, 0.9 * CFG.element_spacing_m)
        b = gen_pilot_matrix(cfg, 12, rng_seed=0)
        with pytest.raises(ValueError, match="half-wavelength"):
            omp_estimate_joint(b, build_dictionary(cfg, 64),
                               np.ones((12, 1), dtype=complex), 1)

"""Least-squares, LMMSE, and greedy-recovery baseline tests."""

import os
import subprocess
import sys
import tracemalloc
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
    steering,
)
from thzest.channel import gen_channel, gen_pilot_matrix, observe
from thzest.baselines import (
    _HANKEL_X0,
    _bessel_j0,
    check_psd_toeplitz,
    ls_estimate,
    mmse_estimate,
    omp_estimate_joint,
    oracle_covariance,
    toeplitz_spectrum,
)

from bessel import midpoint_j0
from grid_atoms import grid_atoms
from psd import check_psd_covariance, dense_accepts, toeplitz

CFG = ArrayConfig.half_wavelength(16, 300e9)
DICT = build_dictionary(CFG, 64)
IDENTITY = toeplitz_spectrum(np.eye(16)[:1])

# (n_antennas, n_pilots, grid_size, n_subcarriers, n_paths) of the trials
# on which the structured LMMSE and OMP must match their dense references.
# Below 2 N_T - 1 grid points OMP's autocorrelation lags fold onto the grid.
STRUCTURE_CASES = {
    "desk": (64, 16, 512, 8, 1),
    "paper-m8": (256, 32, 2048, 8, 1),
    "paper-m128": (256, 32, 2048, 128, 1),
    "paper-three-paths": (256, 32, 2048, 8, 3),
    "tall-pilots": (16, 20, 64, 4, 1),
    "three-paths": (64, 16, 512, 8, 3),
    "one-subcarrier": (64, 16, 512, 1, 1),
    "grid-of-n-antennas": (16, 8, 16, 4, 2),
    "odd-folded-grid": (16, 8, 21, 4, 2),
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
            cols = np.stack([oracle_covariance(cfg, float(f))
                             for f in grid.frequencies])
            spectra = toeplitz_spectrum(cols)
            est = mmse_estimate(obs.beamformer, obs.received, spectra,
                                obs.noise_var)
            # One dense covariance at a time: at M = 128 the stack would
            # take 128 MiB.
            ref = np.concatenate(
                [_dense_mmse(obs.beamformer, y[:, np.newaxis],
                             toeplitz(c)[np.newaxis], obs.noise_var)
                 for y, c in zip(obs.received.T, cols)], axis=1)
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
        # A stack of columns gives each column's spectrum, bit for bit.
        stack = np.stack([col, -col, rng.standard_normal(n)])
        spectra = toeplitz_spectrum(stack)
        lam = spectra[0]
        for row, spectrum in zip(stack, spectra):
            np.testing.assert_array_equal(
                toeplitz_spectrum(row[np.newaxis])[0], spectrum)
        assert len(lam) >= 2 * n - 1 and len(lam) & (len(lam) - 1) == 0
        got = np.fft.ifft(lam * np.fft.fft(x, len(lam)))[:n]
        np.testing.assert_allclose(got, dense @ x, rtol=0,
                                   atol=1e-12 * np.linalg.norm(dense @ x))

    def test_rejects_non_hermitian_covariance(self):
        # The dense reference rejects a non-Hermitian matrix; a Toeplitz
        # first column is symmetric by construction, and a complex one is
        # rejected.
        bad = np.eye(16, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            check_psd_covariance(bad)
        with pytest.raises(ValueError, match="non-PSD"):
            check_psd_toeplitz(np.eye(16, dtype=complex)[:1])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            check_psd_covariance(-np.eye(16, dtype=complex))
        # [[1, 2], [2, 1]] has eigenvalue -1.
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_psd_toeplitz(np.array([[1.0, 2.0], [1.0, 0.5]]))


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


def _schur_accepts(first_cols) -> bool:
    try:
        check_psd_toeplitz(first_cols)
    except ValueError:
        return False
    return True


class TestPsdToeplitz:
    """The Schur check against the dense Cholesky rule of `tests/psd.py`,
    column by column and on the stack of all the columns at once."""

    @staticmethod
    def _agree(cols):
        dense = [dense_accepts(c) for c in cols]
        assert [_schur_accepts(c[np.newaxis]) for c in cols] == dense
        assert _schur_accepts(cols) == all(dense)
        return dense

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 32])
    def test_matches_dense_cholesky_on_random_columns(self, n):
        # t_0 = s sum_d |t_d| is diagonally dominant, so PD, for s > 1; the
        # draws of s span both sides of the boundary.
        rng = np.random.default_rng(n)
        cols = rng.standard_normal((200, n)) * rng.uniform(0.01, 100.0,
                                                           (200, 1))
        cols[:, 0] = rng.uniform(0.0, 1.5, 200) \
            * np.sum(np.abs(cols[:, 1:]), axis=1) + 1e-3
        dense = self._agree(cols)
        if n > 1:
            assert 0 < sum(dense) < len(dense)

    @pytest.mark.parametrize("scale", [0.5, 1e3])
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 32])
    def test_matches_dense_cholesky_near_boundary(self, n, scale):
        # The lags are scaled so that lambda_min(T) = -scale at t_0 = 0
        # (trace 0), then t_0 is set so that lambda_min(T + tau I) =
        # t_0 - scale + tau is drawn from [-tau/2, tau/2]: tau = 1e-8 for
        # t_0 <= 1 and 1e-8 t_0 above it.
        rng = np.random.default_rng(100 + n)
        cols = []
        for _ in range(100):
            col = rng.standard_normal(n)
            col[0] = 0.0
            col *= scale / -np.linalg.eigvalsh(toeplitz(col))[0]
            frac = rng.uniform(-0.5, 0.5)
            if scale <= 1.0:
                col[0] = scale - (1.0 - frac) * 1e-8
            else:
                col[0] = scale / (1.0 + (1.0 - frac) * 1e-8)
            assert (col[0] <= 1.0) == (scale <= 1.0)
            cols.append(col)
        dense = self._agree(np.array(cols))
        assert 0 < sum(dense) < len(dense)

    @pytest.mark.parametrize("n_antennas", [2, 3, 16, 64, 256, 1024, 2048])
    def test_accepts_oracle_columns(self, n_antennas):
        # Across the whole band a half-wavelength array can see, up to
        # 1.999 f_c.  By eigvalsh, lambda_min(T) is -3.9e-13 = -3.9e-5 tau
        # at its lowest, at N_T = 2048 and 0.001 f_c.
        cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
        cols = np.array([oracle_covariance(cfg, ratio * 300e9) for ratio in
                         (0.001, 0.05, 0.5, 0.9, 0.95, 1.0, 1.05, 1.5,
                          1.999)])
        assert self._agree(cols) == [True] * len(cols)

    @pytest.mark.parametrize("col", [
        [np.nan] * 4,
        [1.0, np.nan, 0.0],
        [np.inf, 0.0, 0.0],
        [1.0, 0.0, -np.inf],
        [0.0, 0.0, 0.0],
        [-1.0, 0.0],
        [0.0],
    ], ids=["all-nan", "nan-lag", "inf-variance", "inf-lag", "zero-variance",
            "negative-variance", "zero-scalar"])
    def test_rejects_non_finite_or_nonpositive_variance(self, col):
        # The dense rule accepted an all-NaN matrix and an infinite
        # diagonal; a column with zero variance is rejected even though
        # T + tau I is then definite.
        good = np.eye(len(col))[0]
        with pytest.raises(ValueError, match="non-PSD"):
            check_psd_toeplitz(np.array([col]))
        with pytest.raises(ValueError, match="non-PSD"):
            check_psd_toeplitz(np.array([good, col]))


def _reference_j0(x):
    # The reference's cost grows as len(x) * max|x|: sorted chunks of a few
    # hundred points keep each chunk's node count near its own max|x|.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double has no extended precision here")
    order = np.argsort(np.abs(x))
    out = np.empty_like(x)
    for idx in np.array_split(order, max(1, len(x) // 250)):
        out[idx] = midpoint_j0(x[idx])
    return out


class TestBesselJ0:
    # J0 is 1 - x^2/4 + ... at 0 and decays like sqrt(2/(pi x)), so an
    # absolute tolerance of a few ulps of 1 applies over the whole range.
    ATOL = 2e-15

    def test_matches_reference_on_dense_grid(self):
        # [0, 4000] holds every lag of N_T = 1024 at 1.25 f_c.
        x = np.linspace(0.0, 4000.0, 8001)
        np.testing.assert_allclose(_bessel_j0(x), _reference_j0(x),
                                   rtol=0, atol=self.ATOL)

    def test_matches_reference_around_switch(self):
        rng = np.random.default_rng(0)
        x0 = _HANKEL_X0
        x = np.concatenate([rng.uniform(x0 - 1.0, x0 + 1.0, 500),
                            [np.nextafter(x0, 0.0), x0,
                             np.nextafter(x0, np.inf)]])
        np.testing.assert_allclose(_bessel_j0(x), _reference_j0(x),
                                   rtol=0, atol=self.ATOL)

    def test_even(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(0.0, 100.0, 200), [_HANKEL_X0]])
        np.testing.assert_array_equal(_bessel_j0(-x), _bessel_j0(x))
        np.testing.assert_allclose(_bessel_j0(-x), _reference_j0(x),
                                   rtol=0, atol=self.ATOL)

    def test_exactly_one_at_zero(self):
        # The oracle covariance's diagonal is J0(0), exactly 1.
        assert _bessel_j0(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
        assert _bessel_j0(np.array([0.0, 500.0]))[0] == 1.0


class TestOracleCovariance:
    def test_hermitian_psd_with_unit_diagonal(self):
        col = oracle_covariance(CFG, 310e9)
        assert col.shape == (16,)
        r = toeplitz(col)
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
        # The first column J0(kappa i), one J0 call for all the lags, of a
        # PSD matrix with unit diagonal.
        cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
        col = oracle_covariance(cfg, freq_hz)
        assert np.isrealobj(col) and col.shape == (n_antennas,)
        kappa = 2 * np.pi * cfg.element_spacing_m * freq_hz / SPEED_OF_LIGHT
        np.testing.assert_array_equal(
            col, _bessel_j0(kappa * np.arange(n_antennas)))
        assert col[0] == 1.0
        eig = np.linalg.eigvalsh(toeplitz(col))
        assert eig[0] > -1e-12 * eig[-1]

    def test_matches_scipy_bessel(self):
        special = pytest.importorskip("scipy.special")
        for n_antennas, freq_hz in ((16, 310e9), (256, 285e9), (256, 315e9)):
            cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
            kappa = 2 * np.pi * cfg.element_spacing_m * freq_hz / SPEED_OF_LIGHT
            expected = special.j0(kappa * np.arange(n_antennas))
            np.testing.assert_allclose(oracle_covariance(cfg, freq_hz),
                                       expected, rtol=0, atol=1e-12)

    def test_matches_monte_carlo_average(self):
        # Sample mean of N_T a a^H over uniform physical angles converges on
        # the closed form at the 1/sqrt(draws) rate.
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, 20_000)
        atoms = np.stack([steering(CFG, float(np.sin(t)), 310e9)
                          for t in angles], axis=1)
        sample = 16 * atoms @ atoms.conj().T / angles.size
        np.testing.assert_allclose(sample,
                                   toeplitz(oracle_covariance(CFG, 310e9)),
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
                      steering(CFG, float(DICT.grid_points[22]), 300e9)
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

    def test_peak_allocation_below_one_sensed_block(self):
        # At paper-point size no P x G array is built: one call's traced
        # peak stays below the 1 MiB of one P x G complex block.
        cfg, _, grid_size, n_paths, _, obs = _structure_trial("paper-m8", 0)
        d = build_dictionary(cfg, grid_size)
        d.first_atom  # cached, as in a sweep, before the traced call
        tracemalloc.start()
        try:
            omp_estimate_joint(obs.beamformer, d, obs.received, n_paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < obs.beamformer.shape[0] * grid_size * 16

    def test_rejects_non_half_wavelength_array(self):
        # Only half-wavelength spacing makes the grid's atoms a DFT.
        cfg = ArrayConfig(16, 300e9, 0.9 * CFG.element_spacing_m)
        b = gen_pilot_matrix(cfg, 12, rng_seed=0)
        with pytest.raises(ValueError, match="half-wavelength"):
            omp_estimate_joint(b, build_dictionary(cfg, 64),
                               np.ones((12, 1), dtype=complex), 1)

"""EM estimator unit tests: posterior identities, updates, perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzest.arrays import (
    ArrayConfig,
    SubcarrierGrid,
    build_dictionary,
    steering_far,
)
from thzest import sbce
from thzest.channel import PilotObservation, gen_pilot_matrix
from thzest.sbce import (
    SbceConfig,
    SingularCovarianceError,
    beam_split_from_c,
    posterior_update,
    run_sbce,
    update_noise_var,
    update_perturbation_diag,
    update_perturbation_full,
    update_sigma,
)

CFG = ArrayConfig.half_wavelength(16, 300e9)


def _random_instance(rng, p_dim=6, n_dim=10):
    mat = rng.standard_normal((p_dim, n_dim)) + \
        1j * rng.standard_normal((p_dim, n_dim))
    sigma = rng.uniform(0.1, 2.0, n_dim)
    y = rng.standard_normal(p_dim) + 1j * rng.standard_normal(p_dim)
    return mat, sigma, y


class TestPosteriorUpdate:
    def test_matches_information_form(self):
        # Independent oracle: Pi = (Sigma^-1 + P'^H P' / mu^2)^-1 and
        # z = Pi P'^H y / mu^2, related to the covariance form by the
        # matrix inversion lemma.
        rng = np.random.default_rng(0)
        mat, sigma, y = _random_instance(rng)
        nv = 0.3
        z, pi = posterior_update(mat, sigma, nv, y)
        info = np.diag(1.0 / sigma) + mat.conj().T @ mat / nv
        pi_ref = np.linalg.inv(info)
        z_ref = pi_ref @ mat.conj().T @ y / nv
        np.testing.assert_allclose(z, z_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(pi, pi_ref, rtol=1e-10, atol=1e-12)

    def test_covariance_properties(self):
        rng = np.random.default_rng(1)
        mat, sigma, y = _random_instance(rng)
        _, pi = posterior_update(mat, sigma, 0.5, y)
        np.testing.assert_allclose(pi, pi.conj().T, atol=1e-12)
        diag = np.real(np.diag(pi))
        assert np.all(diag > 0.0)
        assert np.all(diag <= sigma + 1e-12)

    @settings(deadline=None, max_examples=25)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
    def test_mean_linear_in_observation(self, scale, seed):
        rng = np.random.default_rng(seed)
        mat, sigma, y = _random_instance(rng)
        z1, _ = posterior_update(mat, sigma, 0.4, y)
        z2, _ = posterior_update(mat, sigma, 0.4, scale * y)
        np.testing.assert_allclose(z2, scale * z1, rtol=1e-9)

    def test_singular_covariance_raises(self):
        mat = np.ones((3, 4), dtype=complex)
        with pytest.raises(SingularCovarianceError):
            posterior_update(mat, np.zeros(4), 0.0, np.ones(3, dtype=complex))


class TestHyperparameterUpdates:
    def test_sigma_point_and_moment_forms(self):
        rng = np.random.default_rng(2)
        mat, sigma, y = _random_instance(rng)
        z, pi = posterior_update(mat, sigma, 0.2, y)
        np.testing.assert_allclose(update_sigma(z), np.abs(z) ** 2)
        np.testing.assert_allclose(
            update_sigma(z, pi),
            np.abs(z) ** 2 + np.real(np.diag(pi)), rtol=1e-12)

    def test_noise_var_oracle(self):
        rng = np.random.default_rng(3)
        mat, sigma, y = _random_instance(rng)
        z, pi = posterior_update(mat, sigma, 0.2, y)
        got = update_noise_var(y, mat, z, pi, divisor=6)
        expected = (np.linalg.norm(y - mat @ z) ** 2 +
                    np.real(np.trace(mat @ pi @ mat.conj().T))) / 6
        assert got == pytest.approx(expected, rel=1e-12)

    def test_noise_var_nonnegative(self):
        rng = np.random.default_rng(4)
        mat, sigma, y = _random_instance(rng)
        z, pi = posterior_update(mat, sigma, 0.2, y)
        assert update_noise_var(y, mat, z, pi, divisor=6) > 0.0


class TestPerturbation:
    def test_diagonal_maps_between_steering_vectors(self):
        # C a(phi) = a(eta phi) with eta = f/f_c.
        f, fc = 312e9, 300e9
        for phi in (-0.8, -0.1, 0.33, 0.72):
            c = update_perturbation_diag(16, phi, f, fc)
            lhs = c * steering_far(CFG, phi, fc)
            rhs = steering_far(CFG, (f / fc) * phi, fc)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_rejects_out_of_range_direction(self):
        with pytest.raises(ValueError):
            update_perturbation_diag(16, 1.2, 312e9, 300e9)

    @settings(deadline=None, max_examples=100)
    @given(delta=st.floats(-0.5, 0.5), n=st.sampled_from([8, 64, 256]))
    def test_split_readback_round_trip(self, delta, n):
        c = np.exp(1j * np.pi * np.arange(n) * delta)
        assert beam_split_from_c(c) == pytest.approx(delta, abs=1e-9)

    def test_split_readback_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            beam_split_from_c(np.array([1.0, 2.0, 1.0], dtype=complex))

    def test_full_update_explains_diagonal_perturbation(self):
        # Noiseless rank-one data: the dense solve must reproduce the
        # perturbed observation through its min-norm solution.
        rng = np.random.default_rng(5)
        d = build_dictionary(CFG, 24)
        b = gen_pilot_matrix(CFG, 8, rng_seed=rng)
        c = np.exp(1j * np.pi * np.arange(16) * 0.04)
        x = np.zeros(24, dtype=complex)
        x[7] = 1.5 - 0.5j
        y = b @ (c * (d.atoms @ x))
        u = update_perturbation_full(y, b, d.atoms, x,
                                     np.zeros((24, 24), dtype=complex))
        u_mat = u.reshape((16, 16), order="F")
        pred = b @ (np.eye(16) + u_mat) @ d.atoms @ x
        np.testing.assert_allclose(pred, y, atol=1e-9)

    def test_full_update_scale_guard(self):
        big = ArrayConfig.half_wavelength(32, 300e9)
        d = build_dictionary(big, 40)
        b = gen_pilot_matrix(big, 8, rng_seed=0)
        with pytest.raises(ValueError):
            update_perturbation_full(np.zeros(8, dtype=complex), b, d.atoms,
                                     np.zeros(40, dtype=complex),
                                     np.zeros((40, 40), dtype=complex))


def _noiseless_observation(grid_index=20, grid_size=64, n_pilots=16,
                           n_subcarriers=4):
    d = build_dictionary(CFG, grid_size)
    grid = SubcarrierGrid.build(n_subcarriers, 30e9, 300e9)
    sine = float(d.grid_points[grid_index])
    b = gen_pilot_matrix(CFG, n_pilots, rng_seed=9)
    h = np.stack([np.sqrt(16) * steering_far(CFG, sine, float(f))
                  for f in grid.frequencies], axis=1)
    obs = PilotObservation(beamformer=b, received=b @ h,
                           noise_var=1e-12, seed=0)
    return obs, d, grid, sine, h


class TestRunSbce:
    def test_noiseless_on_grid_recovery(self):
        obs, d, grid, sine, h = _noiseless_observation()
        result = run_sbce(obs, d, grid, array_config=CFG)
        assert result.converged
        assert result.est_direction_sine == pytest.approx(sine, abs=1e-9)
        err = np.linalg.norm(result.est_channel - h) ** 2 / np.linalg.norm(h) ** 2
        assert err < 1e-8

    def test_reported_splits_follow_frequency_ratio(self):
        obs, d, grid, sine, _ = _noiseless_observation()
        result = run_sbce(obs, d, grid, array_config=CFG)
        for m, f in enumerate(grid.frequencies):
            expected = (float(f) / 300e9 - 1.0) * result.est_direction_sine
            assert result.est_beam_split[m] == pytest.approx(expected, abs=1e-9)

    def test_sigma_update_variants_agree_on_clean_data(self):
        obs, d, grid, sine, _ = _noiseless_observation()
        for mode in ("fixed_point", "em", "point"):
            cfg = SbceConfig(sigma_update=mode)
            result = run_sbce(obs, d, grid, cfg, CFG)
            assert result.est_direction_sine == pytest.approx(sine, abs=1e-6)

    def test_unknown_sigma_update_rejected(self):
        obs, d, grid, _, _ = _noiseless_observation()
        with pytest.raises(ValueError):
            run_sbce(obs, d, grid, SbceConfig(sigma_update="quadratic"), CFG)

    def test_dimension_mismatch_rejected(self):
        obs, _, grid, _, _ = _noiseless_observation()
        other = build_dictionary(ArrayConfig.half_wavelength(8, 300e9), 32)
        with pytest.raises(ValueError):
            run_sbce(obs, other, grid, array_config=CFG)

    def test_iteration_cap_respected(self):
        obs, d, grid, _, _ = _noiseless_observation()
        cfg = SbceConfig(max_iters=3, convergence_tol=1e-30)
        result = run_sbce(obs, d, grid, cfg, CFG)
        assert result.iterations == 3
        assert not result.converged


def _noisy_observation(seed, snr_db, n_antennas=32, grid_size=128,
                       n_pilots=12):
    cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
    d = build_dictionary(cfg, grid_size)
    grid = SubcarrierGrid.build(4, 30e9, 300e9)
    rng = np.random.default_rng(seed)
    sine = float(rng.uniform(-0.9, 0.9))
    b = gen_pilot_matrix(cfg, n_pilots, rng_seed=rng)
    h = np.stack([np.sqrt(n_antennas) * steering_far(cfg, sine, float(f))
                  for f in grid.frequencies], axis=1)
    clean = b @ h
    noise_var = np.mean(np.abs(clean) ** 2) / 10 ** (snr_db / 10)
    noise = np.sqrt(noise_var / 2) * (rng.standard_normal(clean.shape)
                                      + 1j * rng.standard_normal(clean.shape))
    return b, clean + noise, d, grid


def _fit_rebuilding_every_iteration(y, pilot_matrix, dictionary, freq_hz,
                                    carrier_hz, config):
    """Reference EM loop that rebuilds B C D on every unpinned iteration."""
    n_pilots, n_antennas = pilot_matrix.shape
    sigma = np.ones(dictionary.grid_size)
    noise_var = max(1e-6, 0.01 * float(np.linalg.norm(y) ** 2) / n_pilots)
    c = np.ones(n_antennas, dtype=complex)
    effective = pilot_matrix @ dictionary.atoms
    peak, prev_peaks, flips, pinned = 0, [-1, -1], 0, False
    for it in range(1, config.max_iters + 1):
        post = sbce._e_step(effective, effective.conj().T, sigma, noise_var, y)
        residual = float(np.linalg.norm(y - effective @ post.z) ** 2)
        noise_var = (residual + max(post.trace_term, 0.0)) / n_pilots
        quality = np.clip(1.0 - post.post_var / np.maximum(sigma, 1e-300),
                          1e-12, 1.0)
        sigma_new = np.abs(post.z) ** 2 / quality
        if not pinned:
            peak = int(np.argmax(np.abs(post.z) ** 2))
            if peak == prev_peaks[0] and peak != prev_peaks[1]:
                flips += 1
            elif peak != prev_peaks[1]:
                flips = 0
            if flips >= 3:
                if sigma_new[prev_peaks[1]] > sigma_new[peak]:
                    peak = prev_peaks[1]
                pinned = True
            prev_peaks = [prev_peaks[1], peak]
            c = update_perturbation_diag(
                n_antennas, float(dictionary.grid_points[peak]), freq_hz,
                carrier_hz)
            effective = (pilot_matrix * c[np.newaxis, :]) @ dictionary.atoms
        delta = np.linalg.norm(sigma_new - sigma)
        sigma = sigma_new
        if delta / np.linalg.norm(sigma) < config.convergence_tol:
            return effective, sigma, noise_var, c, peak, it, True
    return effective, sigma, noise_var, c, peak, config.max_iters, False


class TestEmLoop:
    def test_loop_e_step_matches_posterior_update(self, monkeypatch):
        # The loop's first E-step, replayed through the public function.
        b, received, d, grid = _noisy_observation(0, 10.0)
        seen = []
        real_e_step = sbce._e_step

        def recording(*args):
            post = real_e_step(*args)
            seen.append((args, post))
            return post

        monkeypatch.setattr(sbce, "_e_step", recording)
        sbce._fit_subcarrier(received[:, 0], b, d, float(grid.frequencies[0]),
                             300e9, SbceConfig(max_iters=1))
        assert len(seen) == 1
        (effective, _, sigma, noise_var, y), post = seen[0]
        z, pi = posterior_update(effective, sigma, noise_var, y)
        np.testing.assert_allclose(post.z, z, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(post.post_var, np.real(np.diag(pi)),
                                   rtol=1e-12, atol=1e-14)
        # Tr{P' Pi P'^H} of the loop equals the trace of the formed Pi.
        trace = float(np.real(np.trace(effective @ pi @ effective.conj().T)))
        assert post.trace_term == pytest.approx(trace, rel=1e-9)

    # Seed 0 at 0 dB pins a limit cycle on three subcarriers; seed 4 at
    # -5 dB hits the iteration cap, once after pinning.
    @pytest.mark.parametrize("seed, snr_db",
                             [(0, 0.0), (4, -5.0), (3, 10.0), (4, 20.0)])
    def test_cached_rebuild_matches_forced_rebuild(self, monkeypatch, seed,
                                                   snr_db):
        b, received, d, grid = _noisy_observation(seed, snr_db)
        calls = []
        real_diag = sbce.update_perturbation_diag

        def counting(*args):
            calls.append(args)
            return real_diag(*args)

        monkeypatch.setattr(sbce, "update_perturbation_diag", counting)
        cfg = SbceConfig()
        for m, freq in enumerate(grid.frequencies):
            calls.clear()
            fit = sbce._fit_subcarrier(received[:, m], b, d, float(freq),
                                       300e9, cfg)
            ref = _fit_rebuilding_every_iteration(received[:, m], b, d,
                                                  float(freq), 300e9, cfg)
            got = (fit.effective_matrix, fit.sigma, fit.noise_var, fit.c,
                   fit.peak_index, fit.iterations, fit.converged)
            for a, r in zip(got, ref):
                np.testing.assert_array_equal(a, r)
            assert 1 <= len(calls) <= fit.iterations

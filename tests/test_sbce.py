"""EM estimator unit tests: posterior identities, updates, perturbation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzest.arrays import (
    ArrayConfig,
    SubcarrierGrid,
    build_dictionary,
    steering,
)
from thzest import arrays, harness, refine, sbce
from thzest.channel import (
    PilotObservation,
    gen_channel,
    gen_pilot_matrix,
    observe,
)
from thzest.sbce import (
    SingularCovarianceError,
    beam_split_from_c,
    posterior_update,
    run_sbce,
    update_perturbation_diag,
)

from grid_atoms import grid_atoms

CFG = ArrayConfig.half_wavelength(16, 300e9)


def dense_e_step(effective, sigma, noise_var, y):
    """Reference E-step on the formed P x N perturbed dictionary P'.

    With S = P' Sigma P'^H, Pi_y = S + mu^2 I = L L^H and V = L^{-1} P' Sigma:
    z = V^H L^{-1} y, Pi_nn = sigma_n - sum_p |V_pn|^2 and
    Tr{P' Pi P'^H} = Tr{S} - ||L^{-1} S||_F^2, at O(P^2 N) per call.
    Returns (z, post_var, trace_term).
    """
    weighted = effective * sigma[np.newaxis, :]
    s_mat = weighted @ effective.conj().T
    s_mat = 0.5 * (s_mat + s_mat.conj().T)
    chol = np.linalg.cholesky(s_mat + noise_var * np.eye(s_mat.shape[0]))
    l_inv = np.linalg.inv(chol)
    v = l_inv @ weighted
    z = ((l_inv @ y).conj() @ v).conj()
    post_var = sigma - np.sum(v.real ** 2 + v.imag ** 2, axis=0)
    trace_term = float(np.real(np.trace(s_mat))) - float(
        np.linalg.norm(l_inv @ s_mat) ** 2)
    return z, post_var, trace_term


def dft_matrix(n_rows, n_grid):
    """W with W_in = exp(2 pi j i n / N), so that P' = A W."""
    return np.exp(2j * np.pi * np.outer(np.arange(n_rows),
                                        np.arange(n_grid)) / n_grid)


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


def _check_against_dense(a, n_grid, sigma, noise_ratio, y):
    """The structured E-step on A equals the dense one on P' = A W.

    mu^2 is noise_ratio times the mean diagonal of S = P' Sigma P'^H, which
    keeps cond(Pi_y) below P / noise_ratio + 1.  Entries of z = Sigma P'^H u
    and S u that cancel to far below their terms carry rounding of the
    terms' size, so the absolute tolerances are taken relative to the
    Cauchy-Schwarz bounds max_n sigma_n ||p'_n|| ||u|| and ||S|| ||u||.
    """
    effective = a @ dft_matrix(a.shape[1], n_grid)
    gram = (effective * sigma) @ effective.conj().T
    noise_var = noise_ratio * float(np.mean(np.real(np.diag(gram))))
    u = np.linalg.solve(gram + noise_var * np.eye(len(y)), y)
    # The E-step on a stack of one row.
    post = sbce._e_step(sbce._dft_factor(a[np.newaxis]), sigma[np.newaxis],
                        np.array([noise_var]), y[np.newaxis])
    z, post_var, trace_term = dense_e_step(effective, sigma, noise_var, y)
    z_scale = np.max(sigma * np.linalg.norm(effective, axis=0)) * \
        np.linalg.norm(u)
    assert not post.failed[0]
    np.testing.assert_allclose(post.z[0], z, rtol=1e-12,
                               atol=1e-12 * z_scale)
    np.testing.assert_allclose(post.post_var[0], post_var, rtol=1e-12,
                               atol=1e-12 * np.max(sigma))
    assert post.trace_term[0] == pytest.approx(trace_term, rel=1e-9)
    fit_scale = np.linalg.norm(gram, 2) * np.linalg.norm(u)
    np.testing.assert_allclose(post.fitted[0], effective @ z, rtol=1e-12,
                               atol=1e-12 * fit_scale)


@st.composite
def _factor_shapes(draw):
    """(P, K, N) with the K lags of T unwrapped (2K - 1 <= N), wrapped onto
    N (2K - 1 > N), or K = N as in posterior_update."""
    n_pilots = draw(st.integers(1, 10))
    regime = draw(st.sampled_from(["padded", "wrapped", "square"]))
    if regime == "padded":
        k = draw(st.integers(1, 12))
        n_grid = draw(st.integers(2 * k - 1, 40))
    elif regime == "wrapped":
        k = draw(st.integers(2, 12))
        n_grid = draw(st.integers(k, 2 * k - 2))
    else:
        k = n_grid = draw(st.integers(1, 16))
    return n_pilots, k, n_grid


class TestStructuredEStep:
    @settings(deadline=None, max_examples=200)
    @given(shape=_factor_shapes(), noise_ratio=st.floats(0.05, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_e_step(self, shape, noise_ratio, seed):
        n_pilots, k, n_grid = shape
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n_pilots, k)) + \
            1j * rng.standard_normal((n_pilots, k))
        sigma = rng.uniform(0.0, 2.0, n_grid) ** 2
        y = rng.standard_normal(n_pilots) + 1j * rng.standard_normal(n_pilots)
        _check_against_dense(a, n_grid, sigma, noise_ratio, y)

    # The desk and paper arrays, pilots and grids of the presets.
    @pytest.mark.parametrize("n_antennas, n_pilots, grid_size",
                             [(64, 16, 512), (256, 32, 2048)])
    @settings(deadline=None, max_examples=10)
    @given(grid_dir=st.floats(-1.0, 1.0), freq_hz=st.floats(285e9, 315e9),
           noise_ratio=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_dictionary_factor_matches_dense(self, n_antennas, n_pilots,
                                             grid_size, grid_dir, freq_hz,
                                             noise_ratio, seed):
        cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
        d = build_dictionary(cfg, grid_size)
        rng = np.random.default_rng(seed)
        b = gen_pilot_matrix(cfg, n_pilots, rng_seed=rng)
        c = update_perturbation_diag(n_antennas, grid_dir, freq_hz, 300e9)
        # B diag(c) D = A W: the factor the EM loop builds.
        atoms = grid_atoms(d)
        a = b * (c * atoms[:, 0])
        np.testing.assert_allclose(a @ dft_matrix(n_antennas, grid_size),
                                   (b * c) @ atoms, atol=1e-12)
        sigma = rng.uniform(0.0, 1.0, grid_size) ** 8
        y = rng.standard_normal(n_pilots) + 1j * rng.standard_normal(n_pilots)
        _check_against_dense(a, grid_size, sigma, noise_ratio, y)


class TestWorkspace:
    @staticmethod
    def _paper_rows(n_rows=2, n_antennas=256, n_pilots=32, grid_size=2048):
        """A factor of paper-size rows and an E-step's other arguments."""
        cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
        d = build_dictionary(cfg, grid_size)
        rng = np.random.default_rng(5)
        b = np.stack([gen_pilot_matrix(cfg, n_pilots, rng_seed=rng)
                      for _ in range(n_rows)])
        sigma = rng.uniform(0.1, 2.0, (n_rows, grid_size))
        y = rng.standard_normal((n_rows, n_pilots)) + \
            1j * rng.standard_normal((n_rows, n_pilots))
        return (sbce._dft_factor(b * d.first_atom), sigma,
                np.full(n_rows, 0.1), y)

    def test_paper_size_e_step_allocates_less_than_one_block(self):
        # The weighted transform and L^{-1} f_a are written into the
        # factor's workspace, so an E-step of R = 2 paper-size rows
        # allocates less than one R x P x F block (512 KiB).
        factor, sigma, noise_var, y = self._paper_rows()
        block = factor.f_a.nbytes
        assert block == 2 * 32 * 512 * 16
        sbce._e_step(factor, sigma, noise_var, y)    # FFT plans
        tracemalloc.start()
        try:
            sbce._e_step(factor, sigma, noise_var, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block

    def test_workspace_contents_never_read(self):
        # A workspace left full of NaN by an earlier call gives the same
        # bits as a fresh one.
        factor, sigma, noise_var, y = self._paper_rows()
        fresh = sbce._e_step(factor, sigma, noise_var, y)
        factor.work.fill(np.nan)
        reused = sbce._e_step(factor, sigma, noise_var, y)
        for got, want in zip(reused, fresh):
            np.testing.assert_array_equal(got, want)


class TestGram:
    def test_matches_atom_by_atom_sum(self):
        # S = P' Sigma P'^H from the DFT factor A = B diag(d_0) of P' = B D,
        # with one atom's sigma zeroed, against the sum over the atoms.
        cfg = ArrayConfig.half_wavelength(32, 300e9)
        d = build_dictionary(cfg, 128)
        b = gen_pilot_matrix(cfg, 16, rng_seed=42)
        sigma = np.random.default_rng(0).uniform(0.0, 2.0, 128)
        sigma[77] = 0.0
        atoms = grid_atoms(d)
        effective = b @ atoms
        manual = np.zeros((16, 16), dtype=complex)
        for n in range(128):
            manual += sigma[n] * np.outer(effective[:, n],
                                          effective[:, n].conj())
        # The Gram of a stack of one row.
        got = sbce._gram(sbce._dft_factor((b * atoms[:, 0])[np.newaxis]),
                         sigma[np.newaxis])[0]
        np.testing.assert_allclose(got, manual,
                                   atol=1e-12 * np.linalg.norm(manual))


class TestSqNorms:
    @pytest.mark.parametrize("shape", [(5, 7), (6, 300), (4, 16, 16),
                                       (3, 32, 33)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_are_norms_independent_of_stack_mates(self, shape, dtype):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        x = rng.standard_normal(shape) * rng.uniform(0.1, 100.0)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shape)
        got = sbce._sq_norms(x)
        assert got.shape == (shape[0],)
        for r in range(shape[0]):
            assert got[r] == pytest.approx(np.linalg.norm(x[r]) ** 2,
                                           rel=1e-14)
            np.testing.assert_array_equal(got[r:r + 1],
                                          sbce._sq_norms(x[r:r + 1]))


class TestPerturbation:
    def test_diagonal_maps_between_steering_vectors(self):
        # C a(phi) = a(eta phi) with eta = f/f_c.
        f, fc = 312e9, 300e9
        for phi in (-0.8, -0.1, 0.33, 0.72):
            c = update_perturbation_diag(16, phi, f, fc)
            lhs = c * steering(CFG, phi, fc)
            rhs = steering(CFG, (f / fc) * phi, fc)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_rejects_out_of_range_direction(self):
        for grid_dir in (1.2, np.nan, -np.inf, np.array([0.3, np.nan])):
            with pytest.raises(ValueError):
                update_perturbation_diag(16, grid_dir, 312e9, 300e9)

    def test_array_call_equals_scalar_calls(self):
        # Column k of one call on K directions is, bit for bit, the call
        # on direction k alone: one call for all the rows whose peak moved
        # gives each row the diagonal its own call would.
        dirs = np.linspace(-1.0, 1.0, 37)
        cols = update_perturbation_diag(64, dirs, 285e9, 300e9)
        assert cols.shape == (64, 37)
        for k, phi in enumerate(dirs):
            np.testing.assert_array_equal(
                cols[:, k], update_perturbation_diag(64, float(phi), 285e9,
                                                     300e9))

    @settings(deadline=None, max_examples=100)
    @given(delta=st.floats(-0.5, 0.5), n=st.sampled_from([8, 64, 256]))
    def test_split_readback_round_trip(self, delta, n):
        c = np.exp(1j * np.pi * np.arange(n) * delta)
        assert beam_split_from_c(c) == pytest.approx(delta, abs=1e-9)

    def test_split_readback_rejects_non_unimodular(self):
        for bad in (2.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                beam_split_from_c(np.array([1.0, bad, 1.0], dtype=complex))


def _noiseless_observation(grid_index=20, grid_size=64, n_pilots=16,
                           n_subcarriers=4):
    d = build_dictionary(CFG, grid_size)
    grid = SubcarrierGrid.build(n_subcarriers, 30e9, 300e9)
    sine = float(d.grid_points[grid_index])
    b = gen_pilot_matrix(CFG, n_pilots, rng_seed=9)
    h = np.stack([np.sqrt(16) * steering(CFG, sine, float(f))
                  for f in grid.frequencies], axis=1)
    obs = PilotObservation(beamformer=b, received=b @ h, noise_var=1e-12)
    return obs, d, grid, sine, h


class TestRunSbce:
    def test_noiseless_on_grid_recovery(self):
        obs, d, grid, sine, h = _noiseless_observation()
        result = run_sbce(obs, d, grid)
        assert result.converged
        assert result.est_direction_sine == pytest.approx(sine, abs=1e-9)
        err = np.linalg.norm(result.est_channel - h) ** 2 / np.linalg.norm(h) ** 2
        assert err < 1e-8

    def test_reported_splits_follow_frequency_ratio(self):
        obs, d, grid, sine, _ = _noiseless_observation()
        result = run_sbce(obs, d, grid)
        for m, f in enumerate(grid.frequencies):
            expected = (float(f) / 300e9 - 1.0) * result.est_direction_sine
            assert result.est_beam_split[m] == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        obs, _, grid, _, _ = _noiseless_observation()
        other = build_dictionary(ArrayConfig.half_wavelength(8, 300e9), 32)
        with pytest.raises(ValueError):
            run_sbce(obs, other, grid)

    def test_iteration_cap_respected(self, monkeypatch):
        obs, d, grid, _, _ = _noiseless_observation()
        monkeypatch.setattr(sbce, "MAX_ITERS", 3)
        monkeypatch.setattr(sbce, "CONVERGENCE_TOL", 1e-30)
        result = run_sbce(obs, d, grid)
        assert result.iterations == 3
        assert not result.converged

    def test_fits_only_the_centre_subcarrier(self, monkeypatch):
        # One EM fit, of the centre column: its iterations and convergence
        # are the result's.  Seed 0 at 0 dB separates it from a fit of
        # every column, which would run 117 iterations.
        b, received, d, grid = _noisy_observation(0, 0.0)
        observed = []
        real_e_step = sbce._e_step

        def recording(factor, sigma, noise_var, y):
            observed.append(y)
            return real_e_step(factor, sigma, noise_var, y)

        monkeypatch.setattr(sbce, "_e_step", recording)
        result = run_sbce(PilotObservation(beamformer=b, received=received,
                                           noise_var=0.0), d, grid)
        monkeypatch.undo()
        center = grid.center_index
        fit = _solo_fit(received[:, center], b, d,
                        float(grid.frequencies[center]))
        assert (result.iterations, result.converged) == \
            (fit.iterations, fit.converged) == (38, True)
        assert len(observed) == fit.iterations
        for y in observed:
            assert y.shape == (1, len(received))
            np.testing.assert_array_equal(y[0], received[:, center])
        assert max(_solo_fit(received[:, m], b, d, float(f)).iterations
                   for m, f in enumerate(grid.frequencies)) == 117

    def test_maps_subcarriers_in_closed_form(self):
        # Split m is (f_m/f_c - 1) theta exactly, and the one-pass channel
        # equals the per-column loop it replaced.
        b, received, d, grid = _noisy_observation(3, 10.0)
        result = run_sbce(PilotObservation(beamformer=b, received=received,
                                           noise_var=0.0), d, grid)
        theta = result.est_direction_sine
        np.testing.assert_array_equal(
            result.est_beam_split,
            (grid.frequencies / grid.carrier_freq_hz - 1.0) * theta)
        nominal = steering(d.config, theta, 300e9)
        expected = np.zeros_like(result.est_channel)
        for m, f in enumerate(grid.frequencies):
            steer = update_perturbation_diag(32, theta, float(f), 300e9) \
                * nominal
            g = b @ steer
            denom = float(np.real(np.vdot(g, g)))
            gain = np.vdot(g, received[:, m]) / denom if denom > 0 else 0.0
            expected[:, m] = steer * gain
        assert np.max(np.abs(result.est_channel - expected)) <= 1e-12

    # Seed 0 at 0 dB pins the centre fit; seed 3 at 10 dB does not.
    @pytest.mark.parametrize("seed, snr_db", [(0, 0.0), (3, 10.0)])
    def test_rebuilds_perturbation_only_in_the_fit(self, monkeypatch, seed,
                                                   snr_db):
        # Neither the refinement nor the subcarrier map builds a C of its
        # own: every rebuild is an EM rebuild.
        b, received, d, grid = _noisy_observation(seed, snr_db)
        calls = []
        real_diag = sbce.update_perturbation_diag

        def counting(*args):
            calls.append(args)
            return real_diag(*args)

        monkeypatch.setattr(sbce, "update_perturbation_diag", counting)
        run_sbce(PilotObservation(beamformer=b, received=received,
                                  noise_var=0.0), d, grid)
        in_run = len(calls)
        calls.clear()
        center = grid.center_index
        _solo_fit(received[:, center], b, d, float(grid.frequencies[center]))
        assert in_run == len(calls) >= 1

    # Seed 0 at 0 dB pins the centre fit; seed 3 at 10 dB does not.
    @pytest.mark.parametrize("seed, snr_db", [(0, 0.0), (3, 10.0)])
    def test_refinement_reads_every_subcarrier(self, monkeypatch, seed,
                                               snr_db):
        # run_sbce hands refine_direction the centre fit's peak, all M
        # columns and eta_m = f_m / f_c, and reports the direction it
        # returns.
        b, received, d, grid = _noisy_observation(seed, snr_db)
        calls, returned = [], []
        real = refine.refine_direction

        def recording(*args):
            calls.append(args)
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(refine, "refine_direction", recording)
        result = run_sbce(PilotObservation(beamformer=b, received=received,
                                           noise_var=0.0), d, grid)
        center = grid.center_index
        fit = _solo_fit(received[:, center], b, d,
                        float(grid.frequencies[center]))
        [(coarse, cols, pilots, eta, n_grid)] = calls
        assert coarse == d.grid_points[fit.peak_index]
        assert n_grid == d.grid_size
        np.testing.assert_array_equal(cols, received)
        np.testing.assert_array_equal(pilots, b)
        np.testing.assert_array_equal(eta, grid.frequencies / 300e9)
        assert result.est_direction_sine == returned[0]


def test_direction_error_near_bound_at_30_db():
    # The desk preset's 30 dB point (sweep index 3), 40 trial-users drawn
    # as the harness draws them.  The median |error| / sigma_CRB in sine is
    # 0.27 with the wideband refinement; refining from the centre column
    # alone left it at 3.1.
    config = harness.PRESETS["desk"]
    array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                            config.carrier_freq_hz)
    grid = SubcarrierGrid.build(config.n_subcarriers, config.bandwidth_hz,
                                config.carrier_freq_hz)
    d = build_dictionary(array_cfg, config.grid_size)
    ratios = []
    for trial in range(40):
        base = [config.seed, 3, trial, 0]
        channel = gen_channel(array_cfg, grid, 1,
                              rng_seed=np.random.default_rng(base + [0]))
        b = gen_pilot_matrix(array_cfg, config.n_pilots,
                             rng_seed=np.random.default_rng(base + [1]))
        obs = observe(channel, b, 30.0,
                      rng_seed=np.random.default_rng(base + [2]))
        los = channel.los_path
        var, _ = harness._trial_crb(channel, obs)
        bound = np.sqrt(var) * np.cos(los.direction.angle_rad)
        err = run_sbce(obs, d, grid).est_direction_sine - los.direction.sine
        ratios.append(abs(err) / bound)
    assert np.median(ratios) <= 1.5


def test_grid_carrier_off_the_array_carrier():
    # A 310 GHz grid on a 300 GHz half-wavelength array: C_m maps from the
    # array's carrier, so every f/f_c must be taken at 300 GHz.
    array_cfg = ArrayConfig.half_wavelength(64, 300e9)
    grid = SubcarrierGrid.build(8, 30e9, 310e9)
    dictionary = build_dictionary(array_cfg, 512)
    errors = []
    for seed in range(10):
        channel = gen_channel(array_cfg, grid, 1, rng_seed=seed)
        pilots = gen_pilot_matrix(array_cfg, 16, rng_seed=100 + seed)
        obs = observe(channel, pilots, 30.0, rng_seed=200 + seed)
        est = run_sbce(obs, dictionary, grid).est_channel
        h = channel.per_subcarrier
        errors.append(np.linalg.norm(est - h) ** 2 / np.linalg.norm(h) ** 2)
    assert np.median(errors) <= 1e-3


def _noisy_observation(seed, snr_db, n_antennas=32, grid_size=128,
                       n_pilots=12):
    cfg = ArrayConfig.half_wavelength(n_antennas, 300e9)
    d = build_dictionary(cfg, grid_size)
    grid = SubcarrierGrid.build(4, 30e9, 300e9)
    rng = np.random.default_rng(seed)
    sine = float(rng.uniform(-0.9, 0.9))
    b = gen_pilot_matrix(cfg, n_pilots, rng_seed=rng)
    h = np.stack([np.sqrt(n_antennas) * steering(cfg, sine, float(f))
                  for f in grid.frequencies], axis=1)
    clean = b @ h
    noise_var = np.mean(np.abs(clean) ** 2) / 10 ** (snr_db / 10)
    noise = np.sqrt(noise_var / 2) * (rng.standard_normal(clean.shape)
                                      + 1j * rng.standard_normal(clean.shape))
    return b, clean + noise, d, grid


def _solo_fit(y, pilot_matrix, dictionary, freq_hz):
    """The EM fit of one observation column y at freq_hz: a stack of one
    row, on a grid whose one subcarrier is exactly freq_hz."""
    [fit] = _queue_fits([(PilotObservation(pilot_matrix, y[:, None], 0.0),
                          SubcarrierGrid.build(1, 0.0, freq_hz))], dictionary)
    return fit


def _queue_fits(pairs, dictionary):
    """The fits `fit_centres` yields for (observation, grid) pairs queued as
    triples keyed by their positions, each yielded once, in the order of
    the pairs."""
    fits = list(sbce.fit_centres(
        ((i, obs, grid) for i, (obs, grid) in enumerate(pairs)), dictionary))
    assert sorted(i for i, _ in fits) == list(range(len(pairs)))
    return [fit for _, fit in sorted(fits, key=lambda entry: entry[0])]


def _sq_norm(x):
    """||x||^2 as one sum of squared real and imaginary parts."""
    return float(np.sum(x.real ** 2 + x.imag ** 2))


def _fit_rebuilding_every_iteration(y, pilot_matrix, dictionary, freq_hz,
                                    carrier_hz):
    """Reference EM loop for one subcarrier, on E-steps of stacks of one
    row, that rebuilds the factor of B C D on every unpinned iteration.

    Returns its `_Fit` and whether the fit was pinned."""
    n_pilots, n_antennas = pilot_matrix.shape
    sigma = np.ones(dictionary.grid_size)
    energy = _sq_norm(y) / n_pilots
    noise_var = max(1e-6, 0.01 * energy)
    c = np.ones(n_antennas, dtype=complex)
    first_atom = grid_atoms(dictionary)[:, 0]
    factor = sbce._dft_factor((pilot_matrix * (c * first_atom))[np.newaxis])
    peak, prev_peaks, flips, pinned = 0, [-1, -1], 0, False
    for it in range(1, sbce.MAX_ITERS + 1):
        post = sbce._e_step(factor, sigma[np.newaxis], np.array([noise_var]),
                            y[np.newaxis])
        post = sbce._EStep(*(field[0] for field in post))
        residual = _sq_norm(y - post.fitted)
        noise_var = max((residual + max(post.trace_term, 0.0)) / n_pilots,
                        sbce.NOISE_FLOOR_REL * energy)
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
            factor = sbce._dft_factor(
                (pilot_matrix * (c * first_atom))[np.newaxis])
        delta = np.sqrt(_sq_norm(sigma_new - sigma))
        sigma = sigma_new
        if delta / np.sqrt(_sq_norm(sigma)) < sbce.CONVERGENCE_TOL:
            return sbce._Fit(sigma, noise_var, peak, it, True), pinned
    return sbce._Fit(sigma, noise_var, peak, sbce.MAX_ITERS, False), pinned


def _assert_fits_equal(fit, ref):
    """A fit equals the reference bit for bit."""
    for got, want in zip(fit, ref):
        np.testing.assert_array_equal(got, want)


class TestEmLoop:
    def test_loop_e_step_matches_posterior_update(self, monkeypatch):
        # The loop's first E-step on the centre column, replayed through the
        # public function.
        b, received, d, grid = _noisy_observation(0, 10.0)
        seen = []
        real_e_step = sbce._e_step

        def recording(*args):
            post = real_e_step(*args)
            seen.append((args, post))
            return post

        monkeypatch.setattr(sbce, "_e_step", recording)
        monkeypatch.setattr(sbce, "MAX_ITERS", 1)
        center = grid.center_index
        _solo_fit(received[:, center], b, d, float(grid.frequencies[center]))
        assert len(seen) == 1
        (_, [sigma], [noise_var], [y]), post = seen[0]
        np.testing.assert_array_equal(y, received[:, center])
        # The first E-step runs on the unperturbed B D.
        effective = b @ grid_atoms(d)
        z, pi = posterior_update(effective, sigma, noise_var, y)
        np.testing.assert_allclose(post.z[0], z, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(post.post_var[0], np.real(np.diag(pi)),
                                   rtol=1e-12, atol=1e-14)
        # Tr{P' Pi P'^H} of the loop equals the trace of the formed Pi.
        trace = float(np.real(np.trace(effective @ pi @ effective.conj().T)))
        assert post.trace_term[0] == pytest.approx(trace, rel=1e-9)

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
        for m, freq in enumerate(grid.frequencies):
            calls.clear()
            fit = _solo_fit(received[:, m], b, d, float(freq))
            assert 1 <= len(calls) <= fit.iterations
            ref, _ = _fit_rebuilding_every_iteration(received[:, m], b, d,
                                                     float(freq), 300e9)
            _assert_fits_equal(fit, ref)

    def test_fits_mix_converged_pinned_and_capped_columns(self):
        # The columns of seed 4 at -5 dB hold fits that converge at
        # iterations 38 and 85, one that hits the cap, and a pinned one
        # that hits the cap.  Each matches its reference fit bit for bit.
        b, received, d, grid = _noisy_observation(4, -5.0)
        fits, pinned = [], []
        for m, f in enumerate(grid.frequencies):
            fit = _solo_fit(received[:, m], b, d, float(f))
            ref, was_pinned = _fit_rebuilding_every_iteration(
                received[:, m], b, d, float(f), 300e9)
            _assert_fits_equal(fit, ref)
            fits.append(fit)
            pinned.append(was_pinned)
        iterations = np.array([fit.iterations for fit in fits])
        converged = np.array([fit.converged for fit in fits])
        pinned, capped = np.array(pinned), ~converged
        assert sorted(iterations[converged]) == [38, 85]
        assert np.all(iterations[capped] == sbce.MAX_ITERS)
        assert np.any(capped & ~pinned) and np.any(capped & pinned)


# The desk and paper arrays, pilots and grids: (N_T, P, grid size).
STACK_ARRAYS = {"desk": (64, 16, 512), "paper": (256, 32, 2048)}


def _trial_users(array, snr_db, count, bandwidth_hz=30e9):
    """count trial-users of one 8-subcarrier sweep point on the array,
    drawn as the harness draws them: (observations, dictionary, grid)."""
    n_antennas, n_pilots, grid_size = STACK_ARRAYS[array]
    config = harness.ExperimentConfig(
        n_antennas=n_antennas, n_pilots=n_pilots, grid_size=grid_size,
        n_subcarriers=8, sweep="none", snr_db=snr_db,
        bandwidth_hz=bandwidth_hz)
    array_cfg, grid, _, range_m = harness.resolve_point(config, snr_db)
    observations = [harness.draw_trial(config, array_cfg, grid, snr_db,
                                       range_m, 0, trial, 0)[1]
                    for trial in range(count)]
    return observations, build_dictionary(array_cfg, grid_size), grid


def _record_stack_sizes(monkeypatch):
    """The number of rows of each E-step call, as a list that fills up."""
    sizes = []
    real_e_step = sbce._e_step

    def recording(factor, sigma, noise_var, y):
        sizes.append(len(y))
        return real_e_step(factor, sigma, noise_var, y)

    monkeypatch.setattr(sbce, "_e_step", recording)
    return sizes


def _set_stack_rows(monkeypatch, rows, observation):
    """Make a stack of observation's size hold the given number of rows."""
    n_pilots, n_antennas = observation.beamformer.shape
    monkeypatch.setattr(sbce, "STACK_ELEMENTS",
                        rows * n_pilots * arrays._fft_size(n_antennas))
    assert sbce.stack_rows(n_pilots, n_antennas) == rows


class TestStack:
    def _check_stacks(self, monkeypatch, observations, d, grid):
        """Every row of a queue of 16, of the first 6, of 16 reversed and of
        16 through a stack of 3 fits bit for bit as it does alone, in a
        stack of one; returns the solo fits."""
        solo = [_queue_fits([(obs, grid)], d)[0] for obs in observations]

        def check(order):
            fits = _queue_fits([(observations[r], grid) for r in order], d)
            assert len(fits) == len(order)
            for r, fit in zip(order, fits):
                _assert_fits_equal(fit, solo[r])

        for order in (range(16), range(6), range(15, -1, -1)):
            check(order)
        with monkeypatch.context() as patch:
            _set_stack_rows(patch, 3, observations[0])
            check(range(16))
        return solo

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 10.0, 20.0, 30.0])
    @pytest.mark.parametrize("array", sorted(STACK_ARRAYS))
    def test_rows_match_solo_fits(self, monkeypatch, array, snr_db):
        observations, d, grid = _trial_users(array, snr_db, 16)
        solo = self._check_stacks(monkeypatch, observations, d, grid)
        # The rows leave the stack at different iterations.
        assert len({fit.iterations for fit in solo}) > 1

    def test_capped_rows_match_solo_fits(self, monkeypatch):
        # With the cap at 40 iterations some desk rows at 0 dB converge
        # first and the others stop at the cap.  In the stack of 3, rows 3
        # to 15 are admitted after others have left, and each capped one
        # among them still runs 40 iterations of its own.
        monkeypatch.setattr(sbce, "MAX_ITERS", 40)
        observations, d, grid = _trial_users("desk", 0.0, 16)
        solo = self._check_stacks(monkeypatch, observations, d, grid)
        converged = [fit.converged for fit in solo]
        assert any(converged) and not all(converged)
        assert not all(converged[3:])
        assert all(fit.iterations == 40 for fit in solo if not fit.converged)

    def test_queue_keeps_the_stack_full_across_points(self, monkeypatch):
        # Ten trial-users at each of 0 and 20 dB on 5 and 30 GHz grids,
        # whose centre frequencies differ, queue through one stack of 16:
        # a leaving row's slot takes the next row, so the stack stays full
        # until the queue drains, and every row fits bit for bit as it
        # does alone.
        pairs = []
        for snr_db in (0.0, 20.0):
            for bandwidth in (5e9, 30e9):
                observations, d, grid = _trial_users("desk", snr_db, 10,
                                                     bandwidth)
                pairs += [(obs, grid) for obs in observations]
        assert len({float(g.frequencies[g.center_index])
                    for _, g in pairs}) == 2
        solo = [_queue_fits([pair], d)[0] for pair in pairs]
        sizes = _record_stack_sizes(monkeypatch)

        def queue():
            for i, (obs, grid) in enumerate(pairs):
                yield i, obs, grid
            sizes.append("drained")

        fits = list(sbce.fit_centres(queue(), d))
        assert sorted(i for i, _ in fits) == list(range(40))
        for i, fit in fits:
            _assert_fits_equal(fit, solo[i])
        assert sbce.stack_rows(16, 64) == 16
        drained = sizes.index("drained")
        assert sizes[:drained] == [16] * drained
        tail = sizes[drained + 1:]
        assert tail == sorted(tail, reverse=True) and tail[0] < 16
        # Every iteration of a stack is one iteration of each of its rows.
        assert sum(sizes[:drained] + tail) == sum(
            fit.iterations for _, fit in fits)

    def test_yields_each_callers_key(self):
        # Each fit comes back with the very object its triple was keyed by,
        # whatever its type, and so does the error of the zero observation,
        # whose covariance breaks down at iteration 3.
        observations, d, grid = _trial_users("desk", 10.0, 4)
        observations[2] = PilotObservation(
            observations[2].beamformer,
            np.zeros_like(observations[2].received), 0.0)
        keys = [[0], (1, "trial"), np.arange(2), object()]
        fits = list(sbce.fit_centres(
            [(key, obs, grid) for key, obs in zip(keys, observations)], d))
        got = {id(key): fit for key, fit in fits}
        assert len(fits) == 4 and set(got) == {id(key) for key in keys}
        for r, key in enumerate(keys):
            assert isinstance(got[id(key)], SingularCovarianceError) == \
                (r == 2)

    def test_stack_mixes_converged_pinned_and_capped_rows(self, monkeypatch):
        # The centre columns of five observations, each with its own
        # pilots: one hits the cap, two are pinned in a limit cycle and
        # converge at iterations 91 and 38, and two converge at 24 and 83.
        # Each row leaves the stack at its own iteration and matches its
        # reference fit bit for bit.
        cases = [(4, -5.0), (7, -5.0), (0, 0.0), (5, -5.0), (1, -5.0)]
        rows = [_noisy_observation(seed, snr_db) for seed, snr_db in cases]
        _, _, d, grid = rows[0]
        center = grid.center_index
        freq = float(grid.frequencies[center])
        refs = [_fit_rebuilding_every_iteration(received[:, center], b, d,
                                                freq, 300e9)
                for b, received, _, _ in rows]
        sizes = _record_stack_sizes(monkeypatch)
        grid = SubcarrierGrid.build(1, 0.0, freq)
        fits = _queue_fits(
            [(PilotObservation(b, received[:, center, None], 0.0), grid)
             for b, received, _, _ in rows], d)
        for fit, (ref, _) in zip(fits, refs):
            _assert_fits_equal(fit, ref)
        assert [(fit.iterations, fit.converged, pinned)
                for fit, (_, pinned) in zip(fits, refs)] == [
            (sbce.MAX_ITERS, False, False), (91, True, True),
            (38, True, True), (24, True, False), (83, True, False)]
        assert sizes == [5] * 24 + [4] * (38 - 24) + [3] * (83 - 38) + \
            [2] * (91 - 83) + [1] * (sbce.MAX_ITERS - 91)

    def test_first_iteration_rebuilds_all_rows_in_one_call(self,
                                                           monkeypatch):
        # Every row's peak leaves C = I in the first iteration; the 16 rows
        # share one perturbation rebuild, at their 16 peak directions.
        observations, d, grid = _trial_users("desk", 10.0, 16)
        calls = []
        real_diag = sbce.update_perturbation_diag

        def recording(n_antennas, grid_dir, freq_hz, carrier_hz):
            calls.append(np.copy(grid_dir))
            return real_diag(n_antennas, grid_dir, freq_hz, carrier_hz)

        monkeypatch.setattr(sbce, "update_perturbation_diag", recording)
        monkeypatch.setattr(sbce, "MAX_ITERS", 1)
        fits = _queue_fits([(obs, grid) for obs in observations], d)
        [dirs] = calls
        np.testing.assert_array_equal(
            dirs, d.grid_points[[fit.peak_index for fit in fits]])

    def test_broken_rows_fail_alone(self, monkeypatch):
        # A zero observation drives the noise variance to zero, so Pi_y
        # loses its Cholesky factor at iteration 3; a NaN pilot breaks the
        # first one.  Each row fails in the stack at the iteration it fails
        # alone, and the other rows fit as they do alone.
        observations, d, grid = _trial_users("desk", 10.0, 6)
        zero, nan = 1, 4
        observations[zero] = PilotObservation(
            observations[zero].beamformer,
            np.zeros_like(observations[zero].received), 0.0)
        pilots = observations[nan].beamformer.copy()
        pilots[3, 5] = np.nan
        observations[nan] = PilotObservation(
            pilots, observations[nan].received, 0.0)
        pairs = [(obs, grid) for obs in observations]
        solo = [_queue_fits([pair], d)[0] for pair in pairs]
        sizes = _record_stack_sizes(monkeypatch)
        fits = _queue_fits(pairs, d)
        assert sizes[:4] == [6, 5, 5, 4]
        # Through a stack of 2, the NaN row is admitted after others have
        # left, and its error still names its own first iteration.
        _set_stack_rows(monkeypatch, 2, observations[0])
        sizes.clear()
        queued = _queue_fits(pairs, d)
        assert max(sizes) == 2 and len(sizes) > 1
        for entries in (fits, queued):
            for r, fit in enumerate(entries):
                if r in (zero, nan):
                    assert isinstance(fit, SingularCovarianceError)
                    assert str(fit) == str(solo[r])
                else:
                    _assert_fits_equal(fit, solo[r])
            assert str(entries[zero]).endswith("EM iteration 3")
            assert str(entries[nan]).endswith("EM iteration 1")
        # run_sbce raises a failed row's error, whether it fits alone or is
        # handed the stack's entry.
        for fit in (None, fits[zero]):
            with pytest.raises(SingularCovarianceError, match="iteration 3"):
                run_sbce(observations[zero], d, grid, fit)

"""Fisher information and bound tests."""

import numpy as np
import pytest

from thzest.arrays import ArrayConfig, Direction, SubcarrierGrid, steering
from thzest.channel import PathParams, channel_from_paths, gen_pilot_matrix
from thzest.crb import ParamVector, crb, perturbed_steering

from fim_oracle import dense_fim, numeric_fim, steering_derivatives_near

CFG4 = ArrayConfig.half_wavelength(4, 300e9)
CFG16 = ArrayConfig.half_wavelength(16, 300e9)


class TestParamVector:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ParamVector(directions=[0.1, 0.2], splits=[0.0])
        with pytest.raises(ValueError):
            ParamVector(directions=[0.1], splits=[0.0], ranges=[1.0, 2.0])

    def test_near_field_flag(self):
        assert not ParamVector([0.1], [0.0]).is_near_field
        assert ParamVector([0.1], [0.0], [3.0]).is_near_field


class TestPerturbedSteering:
    def test_zero_split_far_matches_plain_steering(self):
        angle = 0.4
        a = perturbed_steering(CFG16, angle, 0.0, 312e9)
        np.testing.assert_allclose(
            a, steering(CFG16, np.sin(angle), 312e9), atol=1e-13)

    def test_split_adds_linear_phase(self):
        a0 = perturbed_steering(CFG16, 0.4, 0.0, 312e9)
        a1 = perturbed_steering(CFG16, 0.4, 0.05, 312e9)
        ratio = a1 / a0
        np.testing.assert_allclose(
            ratio, np.exp(1j * np.pi * np.arange(16) * 0.05), atol=1e-12)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            perturbed_steering(CFG16, 0.4, 0.0, 312e9, range_m=0.0)

    @pytest.mark.parametrize("range_m", [None, 0.5, 2.0, 9.0, 30.0])
    def test_is_the_simulated_channel_steering(self, range_m):
        # The bound differentiates the very steering the channel is built
        # from: one unit-gain, zero-delay path, far (no range) or near.
        cfg = ArrayConfig.half_wavelength(64, 300e9)
        grid = SubcarrierGrid.build(8, 30e9, 300e9)
        for angle in (-1.3, -0.4, 0.0, 0.45, 1.2):
            path = PathParams(gain=1.0 + 0j, delay_s=0.0,
                              direction=Direction.from_angle(angle),
                              range_m=range_m)
            h = channel_from_paths(cfg, grid, [path])
            for m, f in enumerate(grid.frequencies):
                np.testing.assert_array_equal(
                    perturbed_steering(cfg, angle, 0.0, f, range_m),
                    h[:, m] / np.sqrt(64))


class TestDerivatives:
    def _fd(self, fun, x, step=1e-6):
        return (fun(x + step) - fun(x - step)) / (2 * step)

    def test_far_field_central_differences(self):
        angle, split, f = 0.37, 0.02, 312e9
        d_angle, d_range, d_split = steering_derivatives_near(
            CFG16, angle, None, split, f)
        assert d_range is None
        fd_angle = self._fd(
            lambda a: perturbed_steering(CFG16, a, split, f), angle)
        fd_split = self._fd(
            lambda s: perturbed_steering(CFG16, angle, s, f), split)
        np.testing.assert_allclose(d_angle, fd_angle, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(d_split, fd_split, rtol=1e-6, atol=1e-9)

    def test_near_field_central_differences(self):
        angle, r, split, f = -0.5, 4.0, 0.01, 312e9
        d_angle, d_range, d_split = steering_derivatives_near(
            CFG16, angle, r, split, f)
        fd_angle = self._fd(
            lambda a: perturbed_steering(CFG16, a, split, f, r), angle)
        fd_range = self._fd(
            lambda rr: perturbed_steering(CFG16, angle, split, f, rr), r, 1e-5)
        fd_split = self._fd(
            lambda s: perturbed_steering(CFG16, angle, s, f, r), split)
        np.testing.assert_allclose(d_angle, fd_angle, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(d_range, fd_range, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(d_split, fd_split, rtol=1e-5, atol=1e-8)


class TestCrb:
    def test_single_far_path_single_subcarrier_fim_is_singular(self):
        # The angle and split derivatives are collinear there, so the joint
        # 2x2 FIM cannot be inverted; the per-entry bounds stay finite.
        params = ParamVector([0.3], [0.0])
        pilots = gen_pilot_matrix(CFG16, 8, rng_seed=0)
        rep = crb(CFG16, params, pilots, [16.0], 0.01, 300e9)
        assert np.linalg.cond(rep.fim) > 1e10
        assert np.all(np.isfinite(rep.crb_diag)) and np.all(rep.crb_diag > 0.0)

    def test_near_field_bounds_positive(self):
        params = ParamVector([0.3], [0.0], [3.0])
        pilots = gen_pilot_matrix(CFG16, 12, rng_seed=1)
        rep = crb(CFG16, params, pilots, [16.0], 0.01, 309e9)
        assert rep.crb_diag.shape == (3,)
        assert np.all(rep.crb_diag > 0.0)

    def test_bound_scales_with_noise(self):
        params = ParamVector([0.3], [0.0])
        pilots = gen_pilot_matrix(CFG16, 8, rng_seed=0)
        lo = crb(CFG16, params, pilots, [16.0], 1e-3, 300e9)
        hi = crb(CFG16, params, pilots, [16.0], 1e-1, 300e9)
        assert np.all(hi.crb_diag > lo.crb_diag)

    def test_power_length_checked(self):
        params = ParamVector([0.3], [0.0])
        pilots = gen_pilot_matrix(CFG16, 8, rng_seed=0)
        with pytest.raises(ValueError):
            crb(CFG16, params, pilots, [16.0, 1.0], 0.01, 300e9)


class TestFrequencyVector:
    FREQS = SubcarrierGrid.build(8, 30e9, 300e9).frequencies

    @pytest.mark.parametrize("params", [
        ParamVector([0.3], [0.0]),
        ParamVector([0.3], [0.0], [3.0]),
        ParamVector([0.3, -0.6], [0.0, 0.01]),
        ParamVector([0.3, -0.6], [0.0, 0.01], [3.0, 1.5]),
    ])
    def test_matches_scalar_calls(self, params):
        pilots = gen_pilot_matrix(CFG16, 12, rng_seed=2)
        powers = [16.0] * params.n_paths
        rep = crb(CFG16, params, pilots, powers, 0.01, self.FREQS)
        n_params = (3 if params.is_near_field else 2) * params.n_paths
        assert rep.fim.shape == (8, n_params, n_params)
        assert rep.crb_diag.shape == (8, n_params)
        for m, f in enumerate(self.FREQS):
            one = crb(CFG16, params, pilots, powers, 0.01, float(f))
            np.testing.assert_allclose(rep.fim[m], one.fim, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(one.fim)))
            np.testing.assert_allclose(rep.crb_diag[m], one.crb_diag,
                                       rtol=1e-12)

    @pytest.mark.parametrize("params", [
        ParamVector([0.25], [0.0]),
        ParamVector([0.25], [0.0], [0.05]),
        ParamVector([0.25, -0.5], [0.0, 0.0]),
    ])
    def test_matches_numeric_oracle_per_frequency(self, params):
        freqs = np.array([294e9, 306e9, 312e9])
        powers = [4.0] * params.n_paths
        rep = crb(CFG4, params, np.eye(4), powers, 0.05, freqs)
        for m, f in enumerate(freqs):
            ref = numeric_fim(CFG4, params, np.eye(4), powers, 0.05, f)
            np.testing.assert_allclose(rep.fim[m], ref,
                                       atol=2e-2 * np.max(np.abs(ref)))


class TestDenseReference:
    # Unequal powers, so that an S on the wrong side of the L x L algebra
    # shows; identical paths make A' rank-deficient.
    FREQS = SubcarrierGrid.build(8, 30e9, 300e9).frequencies
    POWERS = [16.0, 1.0, 0.25]
    DIRECTIONS, SPLITS, RANGES = [0.3, -0.6, 0.1], [0.0, 0.01, -0.02], \
        [3.0, 1.5, 9.0]

    @pytest.mark.parametrize("pilots", ["12-on-16", "identity"])
    @pytest.mark.parametrize("field", ["far", "near"])
    @pytest.mark.parametrize("n_paths", [1, 2, 3, "identical"])
    def test_matches_projector_form(self, pilots, field, n_paths):
        if n_paths == "identical":
            directions, splits, ranges = [0.3, 0.3], [0.0, 0.0], [3.0, 3.0]
        else:
            directions, splits, ranges = (
                x[:n_paths] for x in (self.DIRECTIONS, self.SPLITS,
                                      self.RANGES))
        params = ParamVector(directions, splits,
                             ranges if field == "near" else None)
        powers = self.POWERS[:params.n_paths]
        b = gen_pilot_matrix(CFG16, 12, rng_seed=3) if pilots == "12-on-16" \
            else np.eye(16)
        rep = crb(CFG16, params, b, powers, 0.01, self.FREQS)
        for m, f in enumerate(self.FREQS):
            ref = dense_fim(CFG16, params, b, powers, 0.01, float(f))
            np.testing.assert_allclose(rep.fim[m], ref, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(ref)))
            np.testing.assert_allclose(rep.crb_diag[m], 1.0 / np.diag(ref),
                                       rtol=1e-10)

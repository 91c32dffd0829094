"""Geometry, steering, and dictionary unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzest import arrays
from thzest.arrays import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Direction,
    SubcarrierGrid,
    build_dictionary,
    fraunhofer_distance,
    steering,
)

from grid_atoms import grid_atoms
from spherical import spherical_steering

CFG = ArrayConfig.half_wavelength(32, 300e9)


class TestArrayConfig:
    def test_half_wavelength_spacing(self):
        assert CFG.element_spacing_m == pytest.approx(
            SPEED_OF_LIGHT / 600e9, rel=1e-12)

    def test_aperture(self):
        assert CFG.aperture_m == pytest.approx(31 * CFG.element_spacing_m)

    @pytest.mark.parametrize("kwargs", [
        {"n_antennas": 1, "carrier_freq_hz": 1e9, "element_spacing_m": 0.1},
        {"n_antennas": 4, "carrier_freq_hz": -1.0, "element_spacing_m": 0.1},
        {"n_antennas": 4, "carrier_freq_hz": 1e9, "element_spacing_m": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArrayConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_antennas", "carrier_freq_hz",
                                       "element_spacing_m"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"n_antennas": 4, "carrier_freq_hz": 1e9,
                  "element_spacing_m": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ArrayConfig(**kwargs)


class TestSubcarrierGrid:
    def test_frequencies_symmetric_around_carrier(self):
        grid = SubcarrierGrid.build(8, 30e9, 300e9)
        # f_m = f_c + (B/M) (m - 1 - (M-1)/2), 1-based m
        expected = 300e9 + (30e9 / 8) * (np.arange(1, 9) - 1 - 3.5)
        np.testing.assert_allclose(grid.frequencies, expected)
        assert np.mean(grid.frequencies) == pytest.approx(300e9)

    def test_center_index(self):
        assert SubcarrierGrid.build(8, 30e9, 300e9).center_index in (3, 4)
        assert SubcarrierGrid.build(9, 30e9, 300e9).center_index == 4

    def test_single_subcarrier_sits_on_carrier(self):
        grid = SubcarrierGrid.build(1, 0.0, 300e9)
        assert grid.frequencies[0] == pytest.approx(300e9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SubcarrierGrid.build(0, 30e9, 300e9)

    @pytest.mark.parametrize("args", [
        (np.nan, 30e9, 300e9), (np.inf, 30e9, 300e9), (8, np.nan, 300e9),
        (8, np.inf, 300e9), (8, -1.0, 300e9), (8, 30e9, np.nan),
        (8, 30e9, np.inf), (8, 30e9, 0.0)])
    def test_rejects_non_finite_and_negative(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            SubcarrierGrid.build(*args)


class TestDirection:
    def test_round_trip(self):
        d = Direction.from_sine(0.37)
        assert np.sin(d.angle_rad) == pytest.approx(0.37)

    def test_bounds(self):
        with pytest.raises(ValueError):
            Direction.from_sine(1.01)
        with pytest.raises(ValueError):
            Direction.from_angle(2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            Direction.from_sine(value)
        with pytest.raises(ValueError):
            Direction.from_angle(value)


class TestSteeringFar:
    def test_entry_formula(self):
        # Half-wavelength spacing at the carrier: entry i is
        # exp(j pi (i-1) (f/f_c) sine) / sqrt(N).
        sine, f = 0.42, 315e9
        a = steering(CFG, sine, f)
        idx = np.arange(32)
        expected = np.exp(1j * np.pi * idx * (f / 300e9) * sine) / np.sqrt(32)
        np.testing.assert_allclose(a, expected, atol=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(sine=st.floats(-1.0, 1.0), f_rel=st.floats(0.9, 1.1))
    def test_unit_norm(self, sine, f_rel):
        a = steering(CFG, sine, f_rel * 300e9)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            steering(CFG, 1.2, 300e9)
        with pytest.raises(ValueError):
            steering(CFG, 0.2, -1.0)
        with pytest.raises(ValueError, match="invalid direction"):
            steering(CFG, np.array([0.1, -1.2, 0.3]), 300e9)
        with pytest.raises(ValueError, match="freq_hz must be positive"):
            steering(CFG, 0.2, np.array([300e9, 0.0, 310e9]))
        # NaN fails each check too.
        with pytest.raises(ValueError, match="invalid direction"):
            steering(CFG, np.array([0.1, np.nan]), 300e9)
        with pytest.raises(ValueError, match="freq_hz must be positive"):
            steering(CFG, 0.2, np.array([300e9, np.nan]))
        with pytest.raises(ValueError, match="invalid range"):
            steering(CFG, 0.2, 300e9, np.nan)

    def test_sine_broadcast_matches_scalar_calls(self):
        sines = np.linspace(-1.0, 1.0, 37)
        cols = steering(CFG, sines, 312e9)
        assert cols.shape == (32, 37)
        for k, sine in enumerate(sines):
            np.testing.assert_array_equal(cols[:, k],
                                          steering(CFG, sine, 312e9))

    def test_frequency_broadcast_matches_scalar_calls(self):
        freqs = SubcarrierGrid.build(16, 30e9, 300e9).frequencies
        cols = steering(CFG, -0.61, freqs)
        assert cols.shape == (32, 16)
        for m, f in enumerate(freqs):
            np.testing.assert_array_equal(cols[:, m],
                                          steering(CFG, -0.61, f))


class TestSplitMaps:
    # The near-field phase is the far-field one with a range term, so the
    # sine element i sees, phase_i / (pi (f/f_c) (i - 1)), is a split map.
    def test_near_split_reduces_to_far_at_infinity(self):
        # As r -> infinity the 310 GHz vector is the carrier vector moved
        # by the far-field split (f/f_c - 1) sine.
        near = steering(CFG, 0.5, 310e9, 1e12)
        far = arrays._split_diag(32, (310e9 / 300e9 - 1.0) * 0.5) \
            * steering(CFG, 0.5, 300e9)
        np.testing.assert_allclose(near, far, rtol=0, atol=1e-12)

    def test_near_spatial_direction_range_term_sign(self):
        # The range correction pulls the spatial direction down for
        # elements beyond the reference one.
        phases = np.unwrap(np.angle(steering(CFG, 0.5, 310e9, 5.0)))
        seen = phases[1:] / (np.pi * (310e9 / 300e9) * np.arange(1, 32))
        assert np.all(np.diff(seen) < 0)
        assert seen[0] < 0.5


class TestSteeringNear:
    def test_exact_matches_element_distances(self):
        # Independent oracle: place the source in the plane and measure
        # per-element Euclidean distances directly.
        r, sine = 3.0, 0.35
        angle = np.arcsin(sine)
        src = np.array([r * np.cos(angle), r * np.sin(angle)])
        pos = np.stack([np.zeros(32),
                        np.arange(32) * CFG.element_spacing_m], axis=1)
        dists = np.linalg.norm(src[np.newaxis, :] - pos, axis=1)
        phase = -2 * np.pi * (310e9 / SPEED_OF_LIGHT) * (dists - r)
        expected = np.exp(1j * phase) / np.sqrt(32)
        a = spherical_steering(CFG, sine, r, 310e9)
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_taylor_close_to_exact_at_moderate_range(self):
        exact = spherical_steering(CFG, 0.3, 20.0, 300e9)
        taylor = steering(CFG, 0.3, 300e9, 20.0)
        assert np.max(np.abs(exact - taylor)) < 1e-3

    def test_far_field_limit(self):
        near = spherical_steering(CFG, 0.3, 1e9, 310e9)
        far = steering(CFG, 0.3, 310e9)
        assert np.max(np.abs(near - far)) < 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="invalid range"):
            steering(CFG, 0.3, 300e9, -1.0)
        for bad_range in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError, match="invalid range"):
                spherical_steering(CFG, 0.3, bad_range, 300e9)


class TestFraunhofer:
    def test_formula(self):
        assert fraunhofer_distance(0.1, 300e9) == pytest.approx(
            2 * 0.01 * 300e9 / SPEED_OF_LIGHT)

    def test_rejects_nonpositive_aperture(self):
        # A NaN or infinite aperture or carrier, a negative carrier and a
        # zero or negative aperture are rejected, not turned into NaN or a
        # negative distance.
        for aperture, carrier in ((0.0, 300e9), (-0.1, 300e9),
                                  (np.nan, 300e9), (np.inf, 300e9),
                                  (0.1, -300e9), (0.1, 0.0), (0.1, np.nan),
                                  (0.1, np.inf)):
            with pytest.raises(ValueError, match="finite and positive"):
                fraunhofer_distance(aperture, carrier)


class TestDictionary:
    def test_grid_points(self):
        d = build_dictionary(CFG, 64)
        # Equispaced grid (2n - N - 1)/N covering (-1, 1).
        np.testing.assert_allclose(
            d.grid_points, (2 * np.arange(1, 65) - 65) / 64)

    def test_atoms_are_carrier_steering_vectors(self):
        d = build_dictionary(CFG, 64)
        atoms = grid_atoms(d)
        for n in (0, 17, 63):
            np.testing.assert_allclose(
                atoms[:, n],
                steering(CFG, float(d.grid_points[n]), 300e9),
                atol=1e-14)

    def test_rejects_undercomplete_grid(self):
        with pytest.raises(ValueError):
            build_dictionary(CFG, 16)

    @pytest.mark.parametrize("n_antennas, grid_size, carrier_hz",
                             [(16, 64, 300e9), (64, 512, 300e9),
                              (256, 2048, 300e9), (5, 7, 140e9),
                              (33, 100, 1e12)])
    def test_unbuilt_atoms_match_built_bit_for_bit(self, n_antennas,
                                                   grid_size, carrier_hz):
        # The dictionary holds no atom matrix; the tests' reference one
        # starts from its first atom, bit for bit.
        cfg = ArrayConfig.half_wavelength(n_antennas, carrier_hz)
        built = build_dictionary(cfg, grid_size)
        assert not hasattr(built, "atoms")
        atoms = grid_atoms(built)
        np.testing.assert_array_equal(built.first_atom, atoms[:, 0])

    @pytest.mark.parametrize("n_antennas, grid_size, carrier_hz, spacing", [
        (16, 64, 300e9, 0.5), (64, 512, 300e9, 0.5), (256, 2048, 300e9, 0.5),
        (5, 7, 140e9, 0.5), (33, 100, 1e12, 0.5), (64, 512, 300e9, 0.3),
        (40, 130, 300e9, 0.8)])
    def test_atoms_match_direct_steering(self, n_antennas, grid_size,
                                         carrier_hz, spacing):
        # atom_0 times powers of one phase step against an exponential per
        # entry, for any element spacing (in wavelengths) and grid size.
        cfg = ArrayConfig(n_antennas, carrier_hz,
                          spacing * SPEED_OF_LIGHT / carrier_hz)
        d = build_dictionary(cfg, grid_size)
        direct = steering(cfg, d.grid_points, carrier_hz)
        atoms = grid_atoms(d)
        assert atoms.shape == direct.shape
        np.testing.assert_allclose(atoms, direct, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(atoms[:, 0], d.first_atom)

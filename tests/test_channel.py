"""Channel synthesis and pilot observation tests."""

import dataclasses

import numpy as np
import pytest

from thzest.arrays import (
    ArrayConfig,
    Direction,
    SubcarrierGrid,
    steering,
)
from thzest.channel import (
    DELAY_SPREAD_S,
    NLOS_GAIN_DB,
    PathParams,
    channel_from_paths,
    gen_channel,
    gen_pilot_matrix,
    observe,
)

CFG = ArrayConfig.half_wavelength(16, 300e9)
GRID = SubcarrierGrid.build(4, 30e9, 300e9)


def _los(sine=0.3, delay=0.0, gain=1.0 + 0j):
    return PathParams(gain=gain, delay_s=delay,
                      direction=Direction.from_sine(sine),
                      range_m=None)


class TestChannelFromPaths:
    def test_single_path_zero_delay(self):
        h = channel_from_paths(CFG, GRID, [_los()])
        for m, f in enumerate(GRID.frequencies):
            expected = np.sqrt(16) * steering(CFG, 0.3, float(f))
            np.testing.assert_allclose(h[:, m], expected, atol=1e-12)

    def test_delay_phase(self):
        tau = 5e-9
        h0 = channel_from_paths(CFG, GRID, [_los(delay=0.0)])
        h1 = channel_from_paths(CFG, GRID, [_los(delay=tau)])
        for m, f in enumerate(GRID.frequencies):
            rot = np.exp(-2j * np.pi * tau * float(f))
            np.testing.assert_allclose(h1[:, m], rot * h0[:, m], atol=1e-12)

    def test_path_count_normalization(self):
        # sqrt(N/L) scaling: two identical paths give sqrt(2) the energy
        # of one, not 2x.
        one = channel_from_paths(CFG, GRID, [_los()])
        two = channel_from_paths(CFG, GRID, [_los(), _los()])
        assert np.linalg.norm(two) == pytest.approx(
            np.sqrt(2) * np.linalg.norm(one), rel=1e-12)

    def test_path_range_decides_its_steering(self):
        # No range is the plane wave; a range is the near-field phase at
        # that range, path by path in one channel.
        near = dataclasses.replace(_los(-0.5), range_m=2.0)
        h = channel_from_paths(CFG, GRID, [_los(0.3), near])
        expected = np.sqrt(16 / 2) * (steering(CFG, 0.3, GRID.frequencies)
                                      + steering(CFG, -0.5, GRID.frequencies,
                                                 2.0))
        np.testing.assert_allclose(h, expected, atol=1e-12)
        for bad in (0.0, -3.0, float("nan")):
            with pytest.raises(ValueError, match="invalid range"):
                channel_from_paths(
                    CFG, GRID, [dataclasses.replace(_los(), range_m=bad)])

    def test_empty_path_list_rejected(self):
        # sqrt(N_T / L) has no value at L = 0.
        with pytest.raises(ValueError, match="at least one path"):
            channel_from_paths(CFG, GRID, [])

    @pytest.mark.parametrize("ranges", [(None, None, None), (4.0, 0.7, 25.0),
                                        (4.0, None, 25.0)],
                             ids=["far", "near", "mixed"])
    def test_one_pass_matches_per_subcarrier_loop(self, ranges):
        # Three paths with gains and delays, far field where the range is
        # None.
        paths = [PathParams(gain=g, delay_s=tau, direction=Direction.from_sine(s),
                            range_m=r)
                 for (g, tau, s), r in zip([
                     (0.8 - 0.6j, 3e-9, 0.31),
                     (0.2 + 0.1j, 11e-9, -0.72),
                     (-0.25j, 17e-9, 0.05)], ranges)]
        grid = SubcarrierGrid.build(8, 30e9, 300e9)
        np.testing.assert_array_equal(
            channel_from_paths(CFG, grid, paths),
            _per_subcarrier_channel(CFG, grid, paths))


def _per_subcarrier_channel(config, grid, paths):
    """Reference: h[m] built one subcarrier and one path at a time."""
    h = np.zeros((config.n_antennas, grid.n_subcarriers), dtype=complex)
    for m, f_m in enumerate(grid.frequencies):
        col = np.zeros(config.n_antennas, dtype=complex)
        for p in paths:
            steer = steering(config, p.direction.sine, f_m, p.range_m)
            col += p.gain * steer * np.exp(-2j * np.pi * p.delay_s * f_m)
        h[:, m] = np.sqrt(config.n_antennas / len(paths)) * col
    return h


class TestGenChannel:
    def test_reproducible(self):
        a = gen_channel(CFG, GRID, 3, rng_seed=7)
        b = gen_channel(CFG, GRID, 3, rng_seed=7)
        np.testing.assert_array_equal(a.per_subcarrier, b.per_subcarrier)
        assert a.paths == b.paths

    def test_los_first_and_gain_profile(self):
        ch = gen_channel(CFG, GRID, 4, rng_seed=3)
        assert ch.los_path is ch.paths[0]
        assert abs(ch.los_path.gain) == pytest.approx(1.0)
        for p in ch.paths[1:]:
            assert abs(p.gain) == pytest.approx(10 ** (NLOS_GAIN_DB / 20))

    def test_delays_within_spread(self):
        ch = gen_channel(CFG, GRID, 5, rng_seed=11)
        for p in ch.paths:
            assert 0.0 <= p.delay_s <= DELAY_SPREAD_S

    def test_near_scenario_ranges(self):
        far = gen_channel(CFG, GRID, 2, rng_seed=5)
        assert all(p.range_m is None for p in far.paths)
        ch = gen_channel(CFG, GRID, 2, scenario="near", rng_seed=5)
        for p in ch.paths:
            assert 1.0 <= p.range_m <= 30.0
        fixed = gen_channel(CFG, GRID, 2, scenario="near", rng_seed=5,
                            range_m=4.5)
        assert all(p.range_m == 4.5 for p in fixed.paths)

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            gen_channel(CFG, GRID, 0)

    @pytest.mark.parametrize("scenario, range_m, message", [
        ("Near", None, "unknown scenario"),
        ("", 5.0, "unknown scenario"),
        ("far", 5.0, "range_m needs scenario = near"),
    ])
    def test_rejects_bad_scenario_before_any_draw(self, scenario, range_m,
                                                  message):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            gen_channel(CFG, GRID, 2, scenario=scenario, rng_seed=rng,
                        range_m=range_m)
        assert rng.bit_generator.state == state


class TestPilotsAndObservation:
    def test_pilot_entries_constant_modulus(self):
        b = gen_pilot_matrix(CFG, 8, rng_seed=1)
        assert b.shape == (8, 16)
        np.testing.assert_allclose(np.abs(b), 1 / np.sqrt(16), atol=1e-14)

    def test_observation_shapes_and_model(self):
        ch = gen_channel(CFG, GRID, 1, rng_seed=2)
        b = gen_pilot_matrix(CFG, 8, rng_seed=3)
        obs = observe(ch, b, snr_db=200.0, rng_seed=4)
        assert obs.received.shape == (8, 4)
        # At 200 dB the observation is numerically the clean product.
        np.testing.assert_allclose(obs.received, b @ ch.per_subcarrier,
                                   rtol=1e-7)

    def test_noise_calibration(self):
        # Definition: mean_m ||B h[m]||^2 / (P mu^2) = 10^(snr/10).
        ch = gen_channel(CFG, GRID, 1, rng_seed=2)
        b = gen_pilot_matrix(CFG, 8, rng_seed=3)
        obs = observe(ch, b, snr_db=17.0, rng_seed=4)
        clean = b @ ch.per_subcarrier
        sig = np.mean(np.sum(np.abs(clean) ** 2, axis=0))
        assert sig / (8 * obs.noise_var) == pytest.approx(10 ** 1.7, rel=1e-12)

    def test_noise_statistics(self):
        ch = gen_channel(CFG, GRID, 1, rng_seed=2)
        b = gen_pilot_matrix(CFG, 256, rng_seed=3)
        obs = observe(ch, b, snr_db=0.0, rng_seed=4)
        noise = obs.received - b @ ch.per_subcarrier
        emp = np.mean(np.abs(noise) ** 2)
        assert emp == pytest.approx(obs.noise_var, rel=0.15)

    def test_dimension_check(self):
        ch = gen_channel(CFG, GRID, 1, rng_seed=2)
        with pytest.raises(ValueError):
            observe(ch, np.ones((4, 9)), 10.0)

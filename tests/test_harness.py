"""Monte-Carlo harness tests: metrics, determinism, CSV shape."""

import dataclasses
import math

import numpy as np
import pytest

from thzest import harness
from thzest.arrays import ArrayConfig, SubcarrierGrid
from thzest.channel import gen_channel, gen_pilot_matrix
from thzest.crb import ParamVector, crb
from thzest.sbce import SingularCovarianceError
from thzest.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    PRESETS,
    _split_to_deg,
    config_from_mapping,
    nmse,
    records_to_csv,
    rmse_deg,
    run_point,
    run_sweep,
    summarize_point,
)

TINY = ExperimentConfig(n_antennas=16, n_subcarriers=2, n_pilots=8,
                        grid_size=64, trials=3, sweep="none",
                        estimators=("sbce", "ls", "omp"))


class TestMetrics:
    def test_nmse_oracle(self):
        h = [np.array([1.0, 1.0]), np.array([2.0, 0.0])]
        est = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        assert nmse(h, est) == pytest.approx(0.25)

    def test_nmse_input_checks(self):
        with pytest.raises(ValueError):
            nmse([np.ones(2)], [])
        with pytest.raises(ValueError):
            nmse([np.zeros(2)], [np.ones(2)])

    def test_rmse_deg_oracle(self):
        assert rmse_deg([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5))
        with pytest.raises(ValueError):
            rmse_deg([1.0], [1.0, 2.0])

    def test_split_to_deg(self):
        got = _split_to_deg(0.5, 0.05)
        expected = math.degrees(math.asin(0.55) - math.asin(0.5))
        assert got == pytest.approx(expected)
        # Clipping keeps the conversion finite at the edge of sine space.
        assert np.isfinite(_split_to_deg(0.999, 0.05))


class TestConfig:
    def test_presets_valid(self):
        for preset in PRESETS.values():
            preset.validate()

    @pytest.mark.parametrize("kwargs", [
        {"sweep": "voltage"},
        {"trials": 0},
        {"scenario": "mid"},
        {"estimators": ("sbce", "cnn")},
        {"sweep": "snr", "sweep_values": ()},
        {"trials": "abc"},
        {"trials": 2.5},
        {"n_antennas": True},
        {"threads": 0},
        {"seed": -1},
        {"snr_db": float("nan")},
        {"snr_db": float("inf")},
        {"snr_db": "loud"},
        {"carrier_freq_hz": 0.0},
        {"bandwidth_hz": -1e9},
        {"range_m": -2.0},
        {"sweep_values": (10.0, float("nan"))},
        {"sweep_values": ("ten",)},
        {"sweep_values": 20.0},
        {"estimators": "ls"},
        {"estimators": (3,)},
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(ExperimentConfig(), **kwargs).validate()

    def test_config_from_mapping(self):
        cfg = config_from_mapping({"trials": 5, "sweep_values": [1.0, 2.0]})
        assert cfg.trials == 5
        assert cfg.sweep_values == (1.0, 2.0)
        with pytest.raises(ValueError):
            config_from_mapping({"n_rockets": 3})

    def test_config_from_mapping_wraps_scalar_lists(self):
        # A one-element list reads back from a config file as a scalar.
        cfg = config_from_mapping({"estimators": "ls", "sweep_values": 20})
        assert cfg.estimators == ("ls",)
        assert cfg.sweep_values == (20,)
        cfg.validate()


class TestRunPoint:
    def test_records_and_csv_shape(self):
        point = run_point(TINY, 0, TINY.snr_db)
        records = summarize_point(TINY, point)
        assert [r.estimator for r in records] == list(TINY.estimators)
        for r in records:
            assert r.trials == 3
            assert np.isfinite(r.nmse)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(records)

    def test_sbce_metrics_populated(self):
        point = run_point(TINY, 0, 30.0)
        assert len(point.dir_err_deg) == 3
        assert len(point.iterations) == 3
        assert all(np.isfinite(point.crb_dir_var))

    def test_failures_counted_not_raised(self, monkeypatch):
        # A numerical breakdown inside an estimator is counted per trial and
        # leaves the other estimators untouched.
        def singular(*args, **kwargs):
            raise SingularCovarianceError("observation covariance is singular")

        monkeypatch.setattr(harness, "run_sbce", singular)
        point = run_point(TINY, 0, TINY.snr_db)
        assert point.failures == {"sbce": 3, "ls": 0, "omp": 0}
        assert all(np.isnan(point.nmse["sbce"]))
        assert all(np.isfinite(point.nmse["ls"]))
        assert point.dir_err_deg == [] and point.iterations == []
        records = summarize_point(TINY, point)
        assert records[0].failures == 3 and records[0].flagged

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NameError("name 'posterior' is not defined")

        monkeypatch.setattr(harness, "run_sbce", broken)
        with pytest.raises(NameError):
            run_point(TINY, 0, TINY.snr_db)

    def test_non_finite_estimate_counted_as_failure(self, monkeypatch):
        monkeypatch.setattr(harness, "ls_estimate",
                            lambda b, y: np.full(b.shape[1], np.nan))
        point = run_point(TINY, 0, TINY.snr_db)
        assert point.failures == {"sbce": 0, "ls": 3, "omp": 0}


class TestTrialCrb:
    def test_near_field_bound_uses_path_range(self):
        cfg = ArrayConfig.half_wavelength(16, 300e9)
        grid = SubcarrierGrid.build(3, 30e9, 300e9)
        channel = gen_channel(cfg, grid, 1, scenario="near", rng_seed=3,
                              range_m=0.5)
        pilots = gen_pilot_matrix(cfg, 8, rng_seed=4)
        los = channel.los_path
        dir_var, _ = harness._trial_crb(cfg, grid, pilots, los, 1e-2)

        def center_bound(**ranges):
            params = ParamVector(directions=[los.direction.angle_rad],
                                 splits=[0.0], **ranges)
            return float(crb(cfg, params, pilots, [abs(los.gain) ** 2 * 16],
                             1e-2, float(grid.frequencies[grid.center_index]),
                             inversion="per_entry").crb_diag[0])

        assert dir_var == center_bound(ranges=[0.5])
        assert dir_var != pytest.approx(center_bound(), rel=1e-6)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        _, csv_a = run_sweep(TINY)
        _, csv_b = run_sweep(TINY)
        assert csv_a == csv_b

    def test_thread_count_does_not_change_bytes(self):
        serial = dataclasses.replace(TINY, threads=1)
        parallel = dataclasses.replace(TINY, threads=2)
        _, csv_a = run_sweep(serial)
        _, csv_b = run_sweep(parallel)
        assert csv_a == csv_b

    def test_seed_changes_results(self):
        _, csv_a = run_sweep(TINY)
        _, csv_b = run_sweep(dataclasses.replace(TINY, seed=1))
        assert csv_a != csv_b

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = dataclasses.replace(TINY, output_path=str(out))
        _, csv_text = run_sweep(cfg)
        assert out.read_text() == csv_text


class TestSweepAxes:
    def test_bandwidth_sweep(self):
        cfg = dataclasses.replace(TINY, sweep="bandwidth",
                                  sweep_values=(0.9e9, 30e9),
                                  estimators=("ls",), trials=2)
        records, _ = run_sweep(cfg)
        assert [r.sweep_value for r in records] == [0.9e9, 30e9]

    def test_range_sweep_near_field(self):
        cfg = dataclasses.replace(TINY, sweep="range", scenario="near",
                                  sweep_values=(2.0, 10.0),
                                  estimators=("ls",), trials=2)
        records, _ = run_sweep(cfg)
        assert len(records) == 2
        assert all(np.isfinite(r.nmse) for r in records)

"""Monte-Carlo harness tests: metrics, determinism, CSV shape."""

import _ctypes
import dataclasses
import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from thzest import arrays, harness, sbce
from thzest.arrays import ArrayConfig, SubcarrierGrid
from thzest.channel import gen_channel, gen_pilot_matrix
from thzest.cli import EXIT_OK, main
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
    run_point,
    run_sweep,
    summarize_point,
)

TINY = ExperimentConfig(n_antennas=16, n_subcarriers=2, n_pilots=8,
                        grid_size=64, trials=3, sweep="none",
                        estimators=("sbce", "ls", "omp"))
TINY_ARRAY = ArrayConfig.half_wavelength(16, 300e9)
TINY_GRID = SubcarrierGrid.build(2, 30e9, 300e9)


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

    def test_nmse_matches_per_realization_loop(self):
        # One array pass against the per-realization norms it replaced.
        rng = np.random.default_rng(0)
        h = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
        est = h + 0.3 * (rng.standard_normal(h.shape)
                         + 1j * rng.standard_normal(h.shape))
        ref = np.mean([np.linalg.norm(a - b) ** 2 / np.linalg.norm(a) ** 2
                       for a, b in zip(h, est)])
        assert nmse(h, est) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_split_to_deg(self):
        got = _split_to_deg(0.5, 0.05)
        expected = math.degrees(math.asin(0.55) - math.asin(0.5))
        assert got == pytest.approx(expected)
        # Clipping keeps the conversion finite at the edge of sine space.
        assert np.isfinite(_split_to_deg(0.999, 0.05))
        # M splits in one call, against the scalar form one at a time.
        splits = np.linspace(-0.06, 0.06, 9)
        for direction in (-0.97, 0.0, 0.4, 0.999):
            ref = [math.degrees(math.asin(np.clip(direction + s, -1, 1))
                                - math.asin(direction)) for s in splits]
            np.testing.assert_allclose(_split_to_deg(direction, splits), ref,
                                       rtol=0, atol=1e-12)


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
        # A range enters only the near-field channel.
        {"sweep": "range", "sweep_values": (5.0,)},
        {"range_m": 5.0},
        {"scenario": "near", "sweep": "range", "sweep_values": (5.0, 0.0)},
        {"scenario": "near", "sweep": "range", "sweep_values": (-1.0,)},
        {"sweep": "bandwidth", "sweep_values": (-30e9, 30e9)},
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

    def test_poisoned_trial_user_fails_alone(self, monkeypatch):
        # A NaN in one trial-user's observation breaks its SBCE fit and no
        # other row of the stack: the point counts one sbce failure, and
        # every other trial-user's NMSE is, digit for digit, that of an
        # unpoisoned run.
        config = dataclasses.replace(TINY, trials=4)
        clean = run_point(config, 0, config.snr_db)
        draw = harness.draw_trial

        def poisoning(*args):
            channel, obs = draw(*args)
            if args[-2] == 2:
                received = obs.received.copy()
                received[0] = np.nan
                obs = dataclasses.replace(obs, received=received)
            return channel, obs

        monkeypatch.setattr(harness, "draw_trial", poisoning)
        point = run_point(config, 0, config.snr_db)
        assert point.failures["sbce"] == 1
        assert np.isnan(point.nmse["sbce"][2])
        assert len(point.iterations) == 3
        for name in config.estimators:
            for trial in (0, 1, 3):
                assert repr(point.nmse[name][trial]) == \
                    repr(clean.nmse[name][trial])

    @pytest.mark.parametrize("estimators", [("sbce", "ls"), ("ls",)])
    def test_chunk_fits_one_stack_per_group(self, monkeypatch, estimators):
        # With room for two trial-users per stack, a chunk of five draws
        # two, fits their centre subcarriers in one stack call, runs them,
        # and so on: it never holds more than one group's draws.  Without
        # sbce nothing is fitted.  The CSV is that of one stack of five.
        config = dataclasses.replace(TINY, trials=5, estimators=estimators)
        _, expected = run_sweep(config)
        events = []
        draw, fit = harness.draw_trial, harness.fit_centres
        run_single = harness._run_single

        def recording_draw(*args):
            events.append("draw")
            return draw(*args)

        def recording_fit(observations, *args):
            events.append(len(observations))
            return fit(observations, *args)

        def recording_run(*args):
            events.append("run")
            return run_single(*args)

        monkeypatch.setattr(harness, "draw_trial", recording_draw)
        monkeypatch.setattr(harness, "fit_centres", recording_fit)
        monkeypatch.setattr(harness, "_run_single", recording_run)
        # TINY rows are P x F = 8 x 32.
        monkeypatch.setattr(sbce, "STACK_ELEMENTS", 2 * 8 * 32)
        _, csv_text = run_sweep(config)
        fitted = "sbce" in estimators
        group = ["draw", "draw", *([2] if fitted else []), "run", "run"]
        assert events == group * 2 + ["draw", *([1] if fitted else []),
                                      "run"]
        assert csv_text == expected


class TestEstimatorContext:
    def test_oracle_covariances_checked_once_each(self, monkeypatch):
        # One check per subcarrier; only the spectrum of the checked
        # covariance's circulant embedding is kept, and no field holds an
        # N_T x N_T block.
        calls = []
        monkeypatch.setattr(harness, "check_psd_covariance",
                            lambda cov: calls.append(cov.copy()))
        ctx = harness.EstimatorContext.build(TINY_ARRAY, TINY_GRID, 64, 1,
                                             ("mmse",))
        assert len(calls) == TINY_GRID.n_subcarriers
        assert ctx.mmse_spectra.shape == (TINY_GRID.n_subcarriers, 32)
        for seen, freq, stored in zip(calls, TINY_GRID.frequencies,
                                      ctx.mmse_spectra):
            np.testing.assert_array_equal(
                seen, harness.oracle_covariance(TINY_ARRAY, float(freq)))
            np.testing.assert_array_equal(
                stored, harness.toeplitz_spectrum(seen[:, 0]))
        for value in vars(ctx).values():
            assert np.shape(value)[-2:] != (16, 16)

    @pytest.mark.parametrize("estimators", [
        (), ("ls", "mmse"), ("sbce",), ("omp",), ("sbce", "omp"),
        harness.ALL_ESTIMATORS])
    def test_atom_matrix_never_built(self, monkeypatch, estimators):
        # SBCE and OMP read only the grid and the first atom, and the sweep
        # and `thzest crb` run through EstimatorContext.build, which builds
        # the dictionary once per chunk for every estimator set.  The atom
        # matrix builder lives with the tests, and no steering call spans
        # the grid.
        assert not hasattr(arrays, "_grid_atoms")
        assert not hasattr(arrays.Dictionary, "atoms")
        widths, dictionaries = [], []
        steering = arrays.steering_far
        build = harness.build_dictionary

        def recording_steering(cfg, sine, freq_hz):
            widths.append(np.size(sine))
            return steering(cfg, sine, freq_hz)

        def recording_build(cfg, grid_size):
            dictionaries.append(grid_size)
            return build(cfg, grid_size)

        monkeypatch.setattr(arrays, "steering_far", recording_steering)
        monkeypatch.setattr(harness, "build_dictionary", recording_build)
        config = dataclasses.replace(TINY, estimators=estimators, trials=1)
        run_point(config, 0, config.snr_db)
        assert dictionaries == [64]
        assert 64 not in widths
        if "sbce" in estimators:
            assert 1 in widths

    def test_bad_oracle_covariance_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "oracle_covariance",
                            lambda cfg, f: -np.eye(cfg.n_antennas))
        with pytest.raises(ValueError, match="non-PSD"):
            harness.EstimatorContext.build(TINY_ARRAY, TINY_GRID, 64, 1,
                                           ("ls", "mmse"))


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
                             1e-2, float(grid.frequencies[grid.center_index])
                             ).crb_diag[0])

        assert dir_var == center_bound(ranges=[0.5])
        assert dir_var != pytest.approx(center_bound(), rel=1e-6)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        _, csv_a = run_sweep(TINY)
        _, csv_b = run_sweep(TINY)
        assert csv_a == csv_b

    @pytest.mark.parametrize("config", [
        TINY,
        dataclasses.replace(TINY, scenario="near", sweep="range",
                            sweep_values=(0.5, 8.0),
                            estimators=("sbce", "ls", "omp", "mmse"))],
        ids=["far", "near-range"])
    def test_thread_count_does_not_change_bytes(self, config):
        serial = dataclasses.replace(config, threads=1)
        parallel = dataclasses.replace(config, threads=2)
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

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # A stand-in pool records its size and runs the chunks in-process,
        # so the test starts no worker.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        _, csv_text = run_sweep(dataclasses.replace(TINY, trials=2,
                                                    threads=4))
        assert sizes == [2]
        _, serial = run_sweep(dataclasses.replace(TINY, trials=2))
        assert csv_text == serial


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


@pytest.fixture
def two_blas_threads():
    """The OpenBLAS (get, set) controls, with the count set to 2 for the
    test and put back afterwards; skips on a BLAS without that control."""
    control = harness._blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get_threads, set_threads = control
    before = get_threads()
    set_threads(2)
    assert get_threads() == 2
    yield get_threads
    set_threads(before)


def _record_blas_threads(monkeypatch, log_path, get_threads):
    """Wrap _run_single so each trial-user logs (pid, BLAS thread count)."""
    run_single = harness._run_single

    def recording(*args):
        with open(log_path, "a") as fh:
            fh.write(f"{os.getpid()} {get_threads()}\n")
        return run_single(*args)

    monkeypatch.setattr(harness, "_run_single", recording)


def _read_log(log_path):
    return [tuple(map(int, line.split()))
            for line in log_path.read_text().splitlines()]


class TestBlasThreads:
    def test_serial_chunk_runs_on_one_thread(self, monkeypatch, tmp_path,
                                             two_blas_threads):
        log = tmp_path / "threads.log"
        _record_blas_threads(monkeypatch, log, two_blas_threads)
        run_sweep(TINY)
        assert _read_log(log) == [(os.getpid(), 1)] * TINY.trials
        assert two_blas_threads() == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the recording wrapper reaches workers by fork")
    def test_pool_workers_run_on_one_thread(self, monkeypatch, tmp_path,
                                            two_blas_threads):
        log = tmp_path / "threads.log"
        _record_blas_threads(monkeypatch, log, two_blas_threads)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=fork))
        run_sweep(dataclasses.replace(TINY, threads=2))
        records = _read_log(log)
        assert len(records) == TINY.trials
        assert all(pid != os.getpid() and n == 1 for pid, n in records)
        assert two_blas_threads() == 2

    def test_count_restored_after_crb(self, tmp_path, two_blas_threads):
        args = ["crb", "--preset", "desk", "--trials", "1", "--values", "10",
                "--out", str(tmp_path / "crb.csv")]
        assert main(args) == EXIT_OK
        assert two_blas_threads() == 2

    def test_count_restored_when_chunk_raises(self, monkeypatch,
                                              two_blas_threads):
        def broken(*args):
            assert two_blas_threads() == 1
            raise RuntimeError("trial failed")

        monkeypatch.setattr(harness, "_run_single", broken)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_sweep(TINY)
        assert two_blas_threads() == 2

    def test_lookup_without_openblas_is_none(self, tmp_path):
        # A maps file naming no OpenBLAS, one naming a missing file, and one
        # naming a loadable library without the thread controls.
        stub = tmp_path / "libopenblas_stub.so"
        stub.symlink_to(_ctypes.__file__)
        for name, text in (("none", "00-01 r--p 0 0:0 0 /usr/lib/libm.so\n"),
                           ("missing", f"00-01 r--p 0 0:0 0 {tmp_path}/"
                                       "libopenblas_gone.so\n"),
                           ("stub", f"00-01 r--p 0 0:0 0 {stub}\n")):
            maps = tmp_path / name
            maps.write_text(text)
            assert harness._blas_thread_control(str(maps)) is None
        assert harness._blas_thread_control(str(tmp_path / "absent")) is None

    def test_no_control_is_a_silent_no_op(self, monkeypatch):
        _, expected = run_sweep(TINY)
        monkeypatch.setattr(harness, "_blas_thread_control", lambda: None)
        _, csv_text = run_sweep(TINY)
        assert csv_text == expected

"""Monte-Carlo harness tests: metrics, determinism, CSV shape."""

import _ctypes
import dataclasses
import functools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from thzest import arrays, harness, sbce
from thzest.arrays import ArrayConfig, SubcarrierGrid
from thzest.channel import (PilotObservation, channel_from_paths,
                            gen_channel, gen_pilot_matrix, observe)
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
        # What the dictionary and the array refuse, refused up front.
        {"grid_size": 32},
        {"n_antennas": 1},
        # A repeated estimator would run twice and emit two equal rows.
        {"estimators": ("ls", "ls")},
        # The lowest subcarrier, f_c - B/2 + B/(2M), at or below 0 Hz.
        {"bandwidth_hz": 700e9},
        {"n_subcarriers": 2, "bandwidth_hz": 1200e9},
        {"sweep": "bandwidth", "sweep_values": (30e9, 700e9)},
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(ExperimentConfig(), **kwargs).validate()

    def test_validate_accepts_lowest_subcarrier_above_zero(self):
        # 600 GHz over 8 subcarriers puts the lowest at 37.5 GHz.
        for kwargs in ({"bandwidth_hz": 600e9},
                       {"sweep": "bandwidth", "sweep_values": (0.0, 600e9)}):
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
        rows = run_point(TINY, [(0, TINY.snr_db)])[0]
        assert [(r["trial"], r["user"]) for r in rows] == \
            [(0, 0), (1, 0), (2, 0)]
        records = summarize_point(TINY, TINY.snr_db, rows)
        assert [r.estimator for r in records] == list(TINY.estimators)
        for r in records:
            assert r.trials == 3
            assert np.isfinite(r.nmse)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[1] == ",".join(CSV_COLUMNS) == (
            "sweep_value,estimator,nmse,rmse_dir_deg,rmse_split_deg,"
            "crb_dir_deg,crb_split_deg,mean_iters,trials,failures,flagged")
        assert len(lines) == 2 + len(records)

    def test_sbce_metrics_populated(self):
        rows = run_point(TINY, [(0, 30.0)])[0]
        assert len(rows) == 3
        for r in rows:
            assert np.isfinite(r["dir_err_deg"]) and r["iterations"] >= 1
            assert len(r["split_err_deg"]) == TINY.n_subcarriers
            assert np.isfinite(r["crb_dir_var"])

    def test_failures_counted_not_raised(self, monkeypatch):
        # A numerical breakdown inside an estimator is counted per trial and
        # leaves the other estimators untouched.
        def singular(*args, **kwargs):
            raise SingularCovarianceError("observation covariance is singular")

        # SBCE's breakdown is a LinAlgError, the one type run_estimator
        # counts as a failure.
        assert issubclass(SingularCovarianceError, np.linalg.LinAlgError)
        monkeypatch.setattr(harness, "run_sbce", singular)
        rows = run_point(TINY, [(0, TINY.snr_db)])[0]
        assert all(np.isnan(r["nmse"]["sbce"]) for r in rows)
        assert all(np.isfinite(r["nmse"]["ls"]) for r in rows)
        assert not any("dir_err_deg" in r or "iterations" in r for r in rows)
        records = summarize_point(TINY, TINY.snr_db, rows)
        assert [r.failures for r in records] == [3, 0, 0]
        assert records[0].flagged
        assert records[0].rmse_dir_deg is None
        assert records[0].mean_iters is None
        assert np.isfinite(records[0].crb_dir_deg)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NameError("name 'posterior' is not defined")

        monkeypatch.setattr(harness, "run_sbce", broken)
        with pytest.raises(NameError):
            run_point(TINY, [(0, TINY.snr_db)])

    def test_non_finite_estimate_counted_as_failure(self, monkeypatch):
        monkeypatch.setattr(harness, "ls_estimate",
                            lambda b, y: np.full(b.shape[1], np.nan))
        records = summarize_point(TINY, TINY.snr_db,
                                  run_point(TINY, [(0, TINY.snr_db)])[0])
        assert [r.failures for r in records] == [0, 3, 0]

    def test_poisoned_trial_user_fails_alone(self, monkeypatch):
        # A NaN in one trial-user's observation breaks its SBCE fit and no
        # other row of the stack: the point counts one sbce failure, and
        # every other trial-user's NMSE is, digit for digit, that of an
        # unpoisoned run.
        config = dataclasses.replace(TINY, trials=4)
        clean = run_point(config, [(0, config.snr_db)])[0]
        draw = harness.draw_trial

        def poisoning(*args):
            channel, obs = draw(*args)
            if args[-2] == 2:
                received = obs.received.copy()
                received[0] = np.nan
                obs = dataclasses.replace(obs, received=received)
            return channel, obs

        monkeypatch.setattr(harness, "draw_trial", poisoning)
        rows = run_point(config, [(0, config.snr_db)])[0]
        assert summarize_point(config, config.snr_db, rows)[0].failures == 1
        assert np.isnan(rows[2]["nmse"]["sbce"])
        assert sum("iterations" in r for r in rows) == 3
        for name in config.estimators:
            for trial in (0, 1, 3):
                assert repr(rows[trial]["nmse"][name]) == \
                    repr(clean[trial]["nmse"][name])

    @pytest.mark.parametrize("estimators", [("sbce", "ls"), ("ls",)])
    def test_chunk_queues_every_point_for_one_stack(self, monkeypatch,
                                                    estimators):
        # With room for two trial-users per stack, a chunk of five trials
        # at each of two points queues all ten for one stack: each is drawn
        # when the stack admits it and runs as soon as its fit leaves, so
        # no more than two draws are alive when _run_single runs.  Without
        # sbce nothing is fitted and each draw runs at once.  The CSV is
        # that of one stack of ten.
        config = dataclasses.replace(TINY, trials=5, estimators=estimators,
                                     sweep="snr", sweep_values=(0.0, 30.0))
        _, expected = run_sweep(config)
        alive, seen, stacks = set(), [], []
        draw, fit = harness.draw_trial, harness.fit_centres
        run_single = harness._run_single

        def recording_draw(*args):
            alive.add(args[-3:])            # (sweep_idx, trial, user)
            return draw(*args)

        def recording_fit(*args):
            stacks.append(args)
            return fit(*args)

        def recording_run(config, ctx, sweep_idx, trial, user, *args):
            seen.append(len(alive))
            alive.remove((sweep_idx, trial, user))
            return run_single(config, ctx, sweep_idx, trial, user, *args)

        monkeypatch.setattr(harness, "draw_trial", recording_draw)
        monkeypatch.setattr(harness, "fit_centres", recording_fit)
        monkeypatch.setattr(harness, "_run_single", recording_run)
        # TINY rows are P x F = 8 x 32.
        monkeypatch.setattr(sbce, "STACK_ELEMENTS", 2 * 8 * 32)
        _, csv_text = run_sweep(config)
        fitted = "sbce" in estimators
        assert len(stacks) == fitted
        assert len(seen) == 10 and not alive
        assert max(seen) == (2 if fitted else 1)
        assert csv_text == expected


class TestSummarizePoint:
    def test_aggregation_rule_on_hand_built_rows(self):
        # Trial 1's SBCE failed: a NaN NMSE and none of the sbce keys.  It
        # counts as a failure and stays out of the NMSE mean, the RMSEs and
        # mean_iters, but both bound columns average over all three rows.
        # The split errors give the same records as lists and as the
        # arrays `_run_single` stores.
        config = dataclasses.replace(TINY, estimators=("sbce", "ls"))

        def row(trial, sbce_nmse, ls_nmse, dir_var, split_var, **fit):
            return {"trial": trial, "user": 0,
                    "nmse": {"sbce": sbce_nmse, "ls": ls_nmse},
                    "crb_dir_var": dir_var, "crb_split_var": split_var,
                    **fit}

        records = []
        for split in (list, np.array):
            rows = [row(0, 0.1, 0.5, 1e-4, 4.0, iterations=10, converged=True,
                        dir_err_deg=0.3, split_err_deg=split([0.1, -0.2])),
                    row(1, float("nan"), 0.7, 9e-4, 16.0),
                    row(2, 0.3, 0.6, 5e-4, 1.0, iterations=30,
                        converged=False, dir_err_deg=-0.4,
                        split_err_deg=split([0.2, 0.2]))]
            records.append(summarize_point(config, 5.0, rows))
        assert records[0] == records[1]
        sb, ls = records[0]
        assert (sb.sweep_value, sb.estimator, sb.trials) == (5.0, "sbce", 3)
        assert sb.failures == 1 and sb.flagged          # 1 > 0.2 * 3
        assert sb.nmse == pytest.approx(0.2, rel=1e-14)
        assert sb.rmse_dir_deg == pytest.approx(
            math.sqrt((0.3 ** 2 + 0.4 ** 2) / 2), rel=1e-14)
        assert sb.rmse_split_deg == pytest.approx(
            math.sqrt((0.01 + 0.04 + 0.04 + 0.04) / 4), rel=1e-14)
        assert sb.mean_iters == 20.0
        assert sb.crb_dir_deg == pytest.approx(
            math.degrees(math.sqrt(5e-4)), rel=1e-14)
        assert sb.crb_split_deg == pytest.approx(math.sqrt(7.0), rel=1e-14)
        assert (ls.estimator, ls.failures, ls.flagged) == ("ls", 0, False)
        assert ls.nmse == pytest.approx(0.6, rel=1e-14)
        assert (ls.rmse_dir_deg, ls.rmse_split_deg, ls.crb_dir_deg,
                ls.crb_split_deg, ls.mean_iters) == (None,) * 5


class TestEstimatorContext:
    def test_oracle_covariances_checked_once_each(self, monkeypatch):
        # One Schur check per build, on the (M, N_T) stack of first
        # columns; only the spectra of their circulant embeddings are kept,
        # each bit-equal to its column's spectrum alone, and no field holds
        # an N_T x N_T block.
        calls = []
        check = harness.check_psd_toeplitz

        def recording(cols):
            calls.append(cols.copy())
            check(cols)

        monkeypatch.setattr(harness, "check_psd_toeplitz", recording)
        ctx = harness.EstimatorContext.build(TINY_ARRAY, TINY_GRID, 64, 1,
                                             ("mmse",))
        [seen] = calls
        assert seen.shape == (TINY_GRID.n_subcarriers, 16)
        assert ctx.mmse_spectra.shape == (TINY_GRID.n_subcarriers, 32)
        for col, freq, stored in zip(seen, TINY_GRID.frequencies,
                                     ctx.mmse_spectra):
            np.testing.assert_array_equal(
                col, harness.oracle_covariance(TINY_ARRAY, float(freq)))
            np.testing.assert_array_equal(
                stored, harness.toeplitz_spectrum(col[np.newaxis])[0])
        for value in vars(ctx).values():
            assert np.shape(value)[-2:] != (16, 16)

    def test_set_up_builds_no_n_by_n_array(self):
        # One N_T x N_T float array is 8 MiB at N_T = 1024; the whole
        # set-up of all four estimators, eight covariances and their check
        # included, peaks far below it.
        cfg = ArrayConfig.half_wavelength(1024, 300e9)
        grid = SubcarrierGrid.build(8, 30e9, 300e9)
        tracemalloc.start()
        try:
            harness.EstimatorContext.build(cfg, grid, 1024, 1,
                                           harness.ALL_ESTIMATORS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8 // 4

    @pytest.mark.parametrize("estimators", [
        (), ("ls", "mmse"), ("sbce",), ("omp",), ("sbce", "omp"),
        harness.ALL_ESTIMATORS])
    def test_atom_matrix_never_built(self, monkeypatch, estimators):
        # SBCE and OMP read only the grid and the first atom, and the sweep
        # and `thzest crb` run through EstimatorContext.build, which builds
        # the dictionary once per chunk for every estimator set.  The atom
        # matrix builder lives with the tests, and no steering call spans
        # the grid, in any module that imports `steering`.
        assert not hasattr(arrays, "_grid_atoms")
        assert not hasattr(arrays.Dictionary, "atoms")
        widths, dictionaries = [], []
        steering = arrays.steering
        build = harness.build_dictionary

        def recording_steering(cfg, sine, freq_hz, range_m=None):
            widths.append(np.size(sine))
            return steering(cfg, sine, freq_hz, range_m)

        def recording_build(cfg, grid_size):
            dictionaries.append(grid_size)
            return build(cfg, grid_size)

        for module in ("arrays", "baselines", "channel", "crb", "sbce"):
            monkeypatch.setattr(f"thzest.{module}.steering",
                                recording_steering)
        monkeypatch.setattr(harness, "build_dictionary", recording_build)
        config = dataclasses.replace(TINY, estimators=estimators, trials=1)
        run_point(config, [(0, config.snr_db)])
        assert dictionaries == [64]
        assert 64 not in widths
        if "sbce" in estimators:
            assert 1 in widths

    def test_bad_oracle_covariance_rejected(self, monkeypatch):
        # [[1, 2], [2, 1]] heads a first column with a negative eigenvalue.
        monkeypatch.setattr(
            harness, "oracle_covariance",
            lambda cfg, f: np.eye(cfg.n_antennas)[0] + 2.0 * np.eye(
                cfg.n_antennas)[1])
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
        obs = PilotObservation(pilots, pilots @ channel.per_subcarrier, 1e-2)
        dir_var, _ = harness._trial_crb(channel, obs)

        def center_bound(**ranges):
            params = ParamVector(directions=[los.direction.angle_rad],
                                 splits=[0.0], **ranges)
            return float(crb(cfg, params, pilots, [abs(los.gain) ** 2 * 16],
                             1e-2, float(grid.frequencies[grid.center_index])
                             ).crb_diag[0])

        assert dir_var == center_bound(ranges=[0.5])
        assert dir_var != pytest.approx(center_bound(), rel=1e-6)

    def test_los_power_is_the_simulated_one_with_several_paths(self):
        # channel_from_paths scales each of L paths by sqrt(N_T / L), so the
        # bound must take the LoS power the drawn channel carries, not
        # |alpha|^2 N_T.
        cfg = ArrayConfig.half_wavelength(16, 300e9)
        grid = SubcarrierGrid.build(3, 30e9, 300e9)
        channel = gen_channel(cfg, grid, 3, rng_seed=5)
        obs = observe(channel, gen_pilot_matrix(cfg, 8, rng_seed=6), 10.0,
                      rng_seed=7)
        los = channel.los_path
        silent = [dataclasses.replace(p, gain=0j) for p in channel.paths[1:]]
        h_los = channel_from_paths(cfg, grid, [los, *silent])
        power = np.sum(np.abs(h_los[:, grid.center_index]) ** 2)
        assert power == pytest.approx(16 / 3, rel=1e-12)
        params = ParamVector(directions=[los.direction.angle_rad],
                             splits=[0.0])
        expected = crb(cfg, params, obs.beamformer, [power], obs.noise_var,
                       float(grid.frequencies[grid.center_index])).crb_diag[0]
        dir_var, _ = harness._trial_crb(channel, obs)
        assert dir_var == pytest.approx(expected, rel=1e-9)


def test_serial_run_imports_no_pool(tmp_path):
    # A fresh interpreter that imports the CLI and runs a serial sweep
    # never loads the process pool; importing the pool does load the
    # modules looked for, so their absence is not vacuous.
    script = (
        "import sys\n"
        "from thzest.cli import main\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "code = main(['sweep', '--preset', 'desk', '--trials', '1',\n"
        "             '--threads', '1', '--out', sys.argv[1]])\n"
        "print(code, [m for m in pool if m in sys.modules])\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "print([m for m in pool if m in sys.modules])\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "desk.csv")], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.splitlines() == [
        f"{EXIT_OK} []", "['multiprocessing', 'concurrent.futures.process']"]
    assert (tmp_path / "desk.csv").read_text().count("\n") == 2 + 4 * 4


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

    @pytest.mark.parametrize("threads, trials, cpus, workers", [
        (4, 2, 8, 2),
        (10_000, 5, 2, 2),
        (4, 5, 1, 1),
    ], ids=["trials-bind", "cpus-bind", "one-cpu-no-pool"])
    def test_pool_runs_one_chunk_per_worker(self, monkeypatch,
                                            recording_pool, threads, trials,
                                            cpus, workers):
        # One chunk per worker, and no pool for one worker: each worker
        # builds each point's set-up once.
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        builds = []
        build = harness.EstimatorContext.build

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(harness.EstimatorContext, "build", counting_build)
        config = dataclasses.replace(TINY, trials=trials, sweep="snr",
                                     sweep_values=(0.0, 30.0))
        _, csv_text = run_sweep(dataclasses.replace(config, threads=threads))
        assert recording_pool == ([(workers, workers)] if workers > 1 else [])
        assert len(builds) == len(config.sweep_values) * workers
        _, serial = run_sweep(config)
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
def recording_pool(monkeypatch):
    """A stand-in for the process pool that runs the chunks in-process, so
    that a test starts no worker; the list it returns records
    (max_workers, chunk count) for each pool."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            pools.append((self.max_workers, len(chunks)))
            return map(fn, chunks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return pools


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
        _, two_threads_csv = run_sweep(TINY)
        assert _read_log(log) == [(os.getpid(), 1)] * TINY.trials
        assert two_blas_threads() == 2
        # The pinned chunk makes the bytes independent of the caller's count.
        harness._blas_thread_control()[1](1)
        _, one_thread_csv = run_sweep(TINY)
        assert one_thread_csv == two_threads_csv

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the recording wrapper reaches workers by fork")
    def test_pool_workers_run_on_one_thread(self, monkeypatch, tmp_path,
                                            two_blas_threads):
        log = tmp_path / "threads.log"
        _record_blas_threads(monkeypatch, log, two_blas_threads)
        # Two CPUs, so that two threads fork two workers on any host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
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

    def test_lookup_without_openblas_is_none(self, monkeypatch, tmp_path):
        # numpy's linear-algebra extension as a loadable library without
        # the thread controls, as a missing file, and absent (uncached).
        for path in (_ctypes.__file__, str(tmp_path / "libopenblas_gone.so")):
            monkeypatch.setattr(np.linalg, "_umath_linalg",
                                types.SimpleNamespace(__file__=path))
            assert harness._blas_thread_control.__wrapped__() is None
        monkeypatch.delattr(np.linalg, "_umath_linalg")
        assert harness._blas_thread_control.__wrapped__() is None

    def test_no_control_is_a_silent_no_op(self, monkeypatch):
        _, expected = run_sweep(TINY)
        monkeypatch.setattr(harness, "_blas_thread_control", lambda: None)
        _, csv_text = run_sweep(TINY)
        assert csv_text == expected

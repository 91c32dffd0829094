"""Command-line interface tests."""

import contextlib
import dataclasses
import functools
import io
import json
import operator
import os
import pathlib
import string
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzest import harness
from thzest.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    load_config_file,
    main,
    scenario_from_json,
    scenario_to_json,
)
from thzest.arrays import ArrayConfig, SubcarrierGrid
from thzest.channel import gen_channel, gen_pilot_matrix, observe
from thzest.sbce import SingularCovarianceError

TINY_ARGS = ["--config"]


def _write_tiny_config(tmp_path, **extra):
    lines = [
        "n_antennas = 16",
        "n_subcarriers = 2",
        "n_pilots = 8",
        "grid_size = 64  # coarse grid keeps the test fast",
        "trials = 2",
        "sweep = none",
        "estimators = sbce,ls",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestConfigFile:
    def test_parses_scalars_lists_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# header comment\n"
            "trials = 7\n"
            "snr_db = 12.5\n"
            "sweep_values = 0, 10, 20\n"
            "scenario = near   # trailing comment\n"
            "range_m = null\n"
            "n_paths = true\n")
        mapping = load_config_file(str(path))
        assert mapping == {"trials": 7, "snr_db": 12.5,
                           "sweep_values": [0, 10, 20],
                           "scenario": "near", "range_m": None,
                           "n_paths": "true"}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("trials 7\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))


class TestSweepCommand:
    def test_writes_csv_and_exits_zero(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["sweep", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "sweep_value,estimator" in text

    def test_deterministic_across_invocations(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_config_key_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_drive = 9\n")
        assert main(["sweep", "--config", path.as_posix()]) == EXIT_CONFIG

    def test_missing_config_file_exits_one(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert main(["sweep", "--config", str(missing)]) == EXIT_CONFIG

    def test_bad_sweep_values_exit_one(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--sweep", "snr",
                     "--values", "ten,twenty"]) == EXIT_CONFIG


class TestConfigValues:
    def test_single_estimator_runs(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, estimators="ls")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().split("\n")[2:]
        assert [r.split(",")[1] for r in rows] == ["ls"]

    def test_single_sweep_value_runs(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, estimators="ls", sweep="snr",
                                 sweep_values="20")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().split("\n")[2:]
        assert [r.split(",")[0] for r in rows] == ["20.0"]

    @pytest.mark.parametrize("key, value, words", [
        ("trials", "abc", "trials"),
        ("threads", "0", "threads"),
        ("snr_db", "nan", "snr_db"),
        ("snr_db", "inf", "snr_db"),
        ("snr_db", "4000", "snr_db"),
        ("snr_db", "-4000", "snr_db"),
        ("n_pilots", "2.5", "n_pilots"),
        ("sweep_values", "10, ten", "sweep value"),
        ("estimators", "ls, cnn", "cnn"),
        ("estimators", "ls, ls", "repeat"),
    ])
    def test_bad_value_exits_one_with_message(self, tmp_path, capsys, key,
                                              value, words):
        cfg = _write_tiny_config(tmp_path, **{key: value})
        for command in ("sweep", "crb"):
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ") and words in err

    @pytest.mark.parametrize("config, flags, words", [
        ("bandwidth_hz = 700e9", [], "bandwidth_hz"),
        ("", ["--sweep", "bandwidth", "--values", "30e9,700e9"],
         "bandwidth sweep value"),
    ], ids=["bandwidth_hz", "bandwidth-sweep"])
    def test_subcarrier_below_zero_hz_exits_one(self, tmp_path, capsys,
                                                monkeypatch, config, flags,
                                                words):
        # validate refuses the config before any set-up is built.
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up built for an invalid config")

        monkeypatch.setattr(harness.EstimatorContext, "build", no_setup)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(config + "\n")
        assert main(["sweep", "--preset", "desk", "--config", str(cfg),
                     *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
        assert "above 0 Hz" in err


class TestCrbCommand:
    def test_emits_table(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, trials=3)
        out = tmp_path / "crb.csv"
        code = main(["crb", "--config", cfg, "--sweep", "snr",
                     "--values", "10,20", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sweep_value,crb_dir_deg,crb_split_deg"
        assert len(lines) == 3

    @pytest.mark.parametrize("extra, crb_flags", [
        ({"sweep": "snr", "sweep_values": "10, 20"}, []),
        ({"scenario": "near", "sweep": "range", "sweep_values": "0.5, 2.0"},
         ["--threads", "2"]),
    ])
    def test_rows_equal_sweep_crb_columns(self, tmp_path, capsys, extra,
                                          crb_flags):
        cfg = _write_tiny_config(tmp_path, **extra)
        assert main(["sweep", "--config", cfg, "--estimators", "sbce"]) \
            == EXIT_OK
        sweep_lines = capsys.readouterr().out.strip().split("\n")[1:]
        header = sweep_lines[0].split(",")
        columns = [header.index(c)
                   for c in ("sweep_value", "crb_dir_deg", "crb_split_deg")]
        expected = [",".join(line.split(",")[i] for i in columns)
                    for line in sweep_lines]
        assert main(["crb", "--config", cfg, *crb_flags]) == EXIT_OK
        assert capsys.readouterr().out.strip().split("\n") == expected


CONFIG_KEYS = [f.name for f in dataclasses.fields(harness.ExperimentConfig)]

# No digits in the text alphabet, so a drawn word never parses to a large
# count of antennas, trials or worker processes.
DRAWN_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 4000.0,
                     -4000.0, 1e308, 0.5]),
    st.text(alphabet=string.ascii_letters + " ,._-", max_size=6),
    st.booleans(),
)


class TestExitCodes:
    @settings(max_examples=50, deadline=None)
    @given(key=st.sampled_from(CONFIG_KEYS), value=DRAWN_VALUES)
    def test_crb_exits_zero_or_one_with_message(self, key, value):
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # A drawn output_path is written relative to the working directory.
            os.chdir(tmp)
            try:
                cfg = _write_tiny_config(pathlib.Path(tmp), **{key: value})
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = main(["crb", "--config", cfg])
            finally:
                os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert stderr.getvalue().startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "abc"],
        ["sweep", "--bogus"],
        ["scenario", "run", "SCENARIO", "--out", "x.json"],
        ["selftest", "--preset", "paper"],
        ["scenario", "gen", "--trials", "2"],
        ["crb", "--estimators", "ls"],
    ], ids=["sweep-trials-abc", "sweep-bogus", "scenario-run-out",
            "selftest-preset", "scenario-gen-trials", "crb-estimators"])
    def test_usage_error_exits_one_with_message(self, tmp_path, capsys, argv):
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config",
                     _write_tiny_config(tmp_path), "--out", str(scen)]) \
            == EXIT_OK
        argv = [str(scen) if a == "SCENARIO" else a for a in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err


    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--estimators", ""], "--estimators"),
        (["sweep", "--values", " "], "--values"),
        (["crb", "--values", ""], "--values"),
        (["scenario", "run", "SCENARIO", "--estimators", ""], "--estimators"),
    ], ids=["sweep-estimators", "sweep-values", "crb-values",
            "scenario-run-estimators"])
    def test_empty_flag_exits_one_with_message(self, tmp_path, capsys,
                                               monkeypatch, argv, flag):
        # An empty list is an error, not a request for the config's lists.
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config",
                     _write_tiny_config(tmp_path), "--out", str(scen)]) \
            == EXIT_OK
        argv = [str(scen) if a == "SCENARIO" else a for a in argv]
        capsys.readouterr()

        def no_setup(*args, **kwargs):
            raise AssertionError("set-up built for an empty flag")

        monkeypatch.setattr(harness.EstimatorContext, "build", no_setup)
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    @pytest.mark.parametrize("command", ["sweep", "crb"])
    @pytest.mark.parametrize("values, item", [("10,x", "'x'"), (",", "''")],
                             ids=["letter", "empty-items"])
    def test_bad_values_item_exits_one_naming_flag_and_item(
            self, capsys, monkeypatch, command, values, item):
        def no_setup(*args, **kwargs):
            raise AssertionError("set-up built for a bad --values item")

        monkeypatch.setattr(harness.EstimatorContext, "build", no_setup)
        assert main([command, "--values", values]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --values: sweep value must be a "
                                f"number, got {item}\n")


class TestScenarioRoundTrip:
    def test_json_round_trip_preserves_observation(self):
        cfg = ArrayConfig.half_wavelength(16, 300e9)
        grid = SubcarrierGrid.build(2, 30e9, 300e9)
        channel = gen_channel(cfg, grid, 2, rng_seed=0)
        pilots = gen_pilot_matrix(cfg, 8, rng_seed=1)
        obs = observe(channel, pilots, 20.0, rng_seed=2)
        doc = scenario_to_json(channel, obs, 64)
        # Document must survive JSON serialization.
        doc = json.loads(json.dumps(doc))
        channel2, obs2, grid_size = scenario_from_json(doc)
        assert grid_size == 64
        np.testing.assert_allclose(channel2.per_subcarrier,
                                   channel.per_subcarrier, atol=1e-12)
        np.testing.assert_allclose(obs2.received, obs.received, atol=1e-12)
        assert obs2.noise_var == obs.noise_var

    def test_gen_then_run(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path)
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config", cfg,
                     "--out", str(scen)]) == EXIT_OK
        doc = json.loads(scen.read_text())
        assert doc["received"]["shape"] == [8, 2]
        assert not {"seed", "scenario"} & set(doc)
        assert all(set(p) == {"gain", "delay_s", "angle_rad", "range_m"}
                   for p in doc["paths"])
        code = main(["scenario", "run", str(scen), "--estimators", "ls,omp"])
        assert code == EXIT_OK
        replay = capsys.readouterr().out
        # Files written by older versions carry "seed", "scenario" and
        # per-path "is_los" keys; they are ignored.
        scen.write_text(json.dumps(dict(
            doc, seed=-1, scenario="far",
            paths=[dict(p, is_los=k == 0) for k, p in enumerate(doc["paths"])])))
        assert main(["scenario", "run", str(scen), "--estimators", "ls,omp"]) \
            == EXIT_OK
        assert capsys.readouterr().out == replay
        assert main(["scenario", "run", str(scen),
                     "--estimators", "foo"]) == EXIT_CONFIG


class TestScenarioReplay:
    """`scenario gen` writes trial 0, user 0 of the config's sweep = none
    point, so `scenario run` replays that sweep row."""

    ARGS = ["--preset", "desk", "--seed", "7"]

    @pytest.fixture
    def scen(self, tmp_path):
        path = tmp_path / "scen.json"
        assert main(["scenario", "gen", *self.ARGS, "--out", str(path)]) \
            == EXIT_OK
        return path

    def test_run_reproduces_sweep_row(self, scen, tmp_path, capsys):
        # Far field, then near field: the near file's paths carry ranges,
        # and no key other than each path's range_m says so.
        near_cfg = tmp_path / "near.cfg"
        near_cfg.write_text("scenario = near\n")
        near_args = [*self.ARGS, "--config", str(near_cfg)]
        near = tmp_path / "near.json"
        assert main(["scenario", "gen", *near_args, "--out", str(near)]) \
            == EXIT_OK
        for args, path, far in ((self.ARGS, scen, True),
                                (near_args, near, False)):
            doc = json.loads(path.read_text())
            assert "scenario" not in doc
            assert all((p["range_m"] is None) == far for p in doc["paths"])
            out = tmp_path / "row.csv"
            assert main(["sweep", *args, "--trials", "1", "--sweep", "none",
                         "--out", str(out)]) == EXIT_OK
            rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
            capsys.readouterr()
            assert main(["scenario", "run", str(path)]) == EXIT_OK
            replay = json.loads(capsys.readouterr().out)
            assert [r[1] for r in rows] == list(replay)
            assert [r[2] for r in rows] == \
                [repr(entry["nmse"]) for entry in replay.values()]

    def test_file_holds_the_trial_streams(self, scen):
        config = harness.PRESETS["desk"]
        array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                                config.carrier_freq_hz)
        grid = SubcarrierGrid.build(config.n_subcarriers,
                                    config.bandwidth_hz,
                                    config.carrier_freq_hz)
        rngs = [np.random.default_rng([7, 0, 0, 0, k]) for k in range(3)]
        channel = gen_channel(array_cfg, grid, config.n_paths,
                              rng_seed=rngs[0])
        obs = observe(channel, gen_pilot_matrix(array_cfg, config.n_pilots,
                                                rng_seed=rngs[1]),
                      config.snr_db, rng_seed=rngs[2])
        expected = json.loads(json.dumps(
            scenario_to_json(channel, obs, config.grid_size)))
        assert json.loads(scen.read_text()) == expected


class TestScenarioGridSize:
    """The scenario file carries the dictionary's grid size."""

    def test_replay_matches_sweep_row_off_the_default_grid(self, tmp_path,
                                                          capsys):
        # 16 antennas on 64 grid points, not the 8 N_T of older files.
        cfg = _write_tiny_config(tmp_path, seed=3, trials=1,
                                 estimators="sbce,ls,omp,mmse")
        out, scen = tmp_path / "row.csv", tmp_path / "scen.json"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["scenario", "gen", "--config", cfg,
                     "--out", str(scen)]) == EXIT_OK
        assert json.loads(scen.read_text())["grid_size"] == 64
        capsys.readouterr()
        assert main(["scenario", "run", str(scen)]) == EXIT_OK
        replay = json.loads(capsys.readouterr().out)
        rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
        assert [(r[1], r[2]) for r in rows] == \
            [(name, repr(entry["nmse"])) for name, entry in replay.items()]

    def test_gen_refuses_a_grid_that_run_would_refuse(self, tmp_path,
                                                       capsys):
        # 32 grid points on the 64-antenna desk array.
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("grid_size = 32\n")
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--preset", "desk", "--config",
                     str(cfg), "--out", str(scen)]) == EXIT_CONFIG
        assert "grid_size must be >= 64" in capsys.readouterr().err
        assert not scen.exists()

    def test_file_without_grid_size_gets_eight_per_antenna(self, tmp_path,
                                                           capsys):
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config",
                     _write_tiny_config(tmp_path, grid_size=128),
                     "--out", str(scen)]) == EXIT_OK
        doc = json.loads(scen.read_text())
        old = tmp_path / "old.json"
        old.write_text(json.dumps({k: v for k, v in doc.items()
                                   if k != "grid_size"}))
        capsys.readouterr()
        outputs = []
        for path in (scen, old):
            assert main(["scenario", "run", str(path), "--estimators",
                         "sbce,omp"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestScenarioRun:
    @pytest.fixture
    def scen(self, tmp_path):
        path = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config",
                     _write_tiny_config(tmp_path), "--out", str(path)]) == EXIT_OK
        return str(path)

    def test_default_runs_all_four_estimators(self, scen, capsys):
        assert main(["scenario", "run", scen]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["sbce", "ls", "omp", "mmse"]
        assert all(np.isfinite(entry["nmse"]) for entry in out.values())
        assert {"direction_sine", "iterations", "converged"} <= set(out["sbce"])

    def test_mmse_alone(self, scen, capsys):
        assert main(["scenario", "run", scen, "--estimators", "mmse"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["mmse"] and np.isfinite(out["mmse"]["nmse"])

    def test_numerical_failure_reported_with_runtime_exit(self, scen, capsys,
                                                          monkeypatch):
        def singular(*args, **kwargs):
            raise SingularCovarianceError("observation covariance is singular")

        monkeypatch.setattr(harness, "run_sbce", singular)
        code = main(["scenario", "run", scen, "--estimators", "sbce,ls"])
        assert code == EXIT_RUNTIME
        out = json.loads(capsys.readouterr().out)
        assert out["sbce"] == {"failed": True}
        assert np.isfinite(out["ls"]["nmse"])

    def test_more_pilots_than_antennas_runs(self, tmp_path, capsys):
        # A tall pilot matrix has no minimum-norm form; LS and LMMSE still
        # run and, with more pilots than unknowns, estimate well.
        cfg = ArrayConfig.half_wavelength(16, 300e9)
        channel = gen_channel(cfg, SubcarrierGrid.build(2, 30e9, 300e9), 1,
                              rng_seed=0)
        obs = observe(channel, gen_pilot_matrix(cfg, 20, rng_seed=1), 20.0,
                      rng_seed=2)
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(scenario_to_json(channel, obs, 64)))
        assert main(["scenario", "run", str(path), "--estimators",
                     "ls,mmse"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["ls"]["nmse"] < 0.1 and out["mmse"]["nmse"] < 0.1

    @pytest.mark.parametrize("estimators", [None, "omp"])
    def test_non_half_wavelength_array_exits_one(self, scen, capsys,
                                                 estimators):
        # SBCE's E-step and OMP's sensed atoms need the dictionary to be a
        # DFT, which holds only for half-wavelength spacing; another
        # spacing is a config error for them, but not for LS and LMMSE.
        doc = json.loads(pathlib.Path(scen).read_text())
        doc["config"]["element_spacing_m"] *= 0.9
        pathlib.Path(scen).write_text(json.dumps(doc))
        flags = ["--estimators", estimators] if estimators else []
        assert main(["scenario", "run", scen, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "half-wavelength" in \
            captured.err
        assert main(["scenario", "run", scen, "--estimators", "ls,mmse"]) \
            == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["ls", "mmse"]
        assert all(np.isfinite(entry["nmse"]) for entry in out.values())


_BAD_NOISE = {"negative-noise": -1.0, "nan-noise": float("nan"),
              "inf-noise": float("inf")}
# The tiny config's array has 16 antennas: a grid needs at least 16 points.
_BAD_GRID_SIZE = {"fractional-grid-size": 64.5, "float-grid-size": 64.0,
                  "small-grid-size": 15, "string-grid-size": "64",
                  "bool-grid-size": True}
# json.load reads NaN and Infinity; each must fail the file as a whole, not
# its estimators one by one.  Case: (key path into the document, value).
_NON_FINITE = {
    "nan-gain": (("paths", 0, "gain", 0), float("nan")),
    "inf-delay": (("paths", 0, "delay_s"), float("inf")),
    "nan-received": (("received", "data", 1, 0), float("nan")),
    "inf-beamformer": (("beamformer", "data", 2, 1), -float("inf")),
    "nan-bandwidth": (("grid", "bandwidth_hz"), float("nan")),
    "nan-spacing": (("config", "element_spacing_m"), float("nan")),
    "inf-carrier": (("config", "carrier_freq_hz"), float("inf")),
}


def _malformed(doc, case):
    if case == "config-list":
        doc["config"] = [1, 2, 3]
    elif case == "string-count":
        doc["config"]["n_antennas"] = "64"
    elif case == "string-noise":
        doc["noise_var"] = "high"
    elif case in _BAD_NOISE:
        doc["noise_var"] = _BAD_NOISE[case]
    elif case in _BAD_GRID_SIZE:
        doc["grid_size"] = _BAD_GRID_SIZE[case]
    elif case in _NON_FINITE:
        (*keys, last), value = _NON_FINITE[case]
        functools.reduce(operator.getitem, keys, doc)[last] = value
    elif case == "received-too-few-columns":
        # Drop the last subcarrier column of the P x M block.
        n_rows, n_cols = doc["received"]["shape"]
        data = doc["received"]["data"]
        doc["received"] = {
            "shape": [n_rows, n_cols - 1],
            "data": [v for k, v in enumerate(data) if k % n_cols < n_cols - 1]}
    elif case == "beamformer-1d":
        doc["beamformer"]["shape"] = [len(doc["beamformer"]["data"])]
    elif case == "no-pilots":
        # A 0 x N_T beamformer and the 0 x M received block that goes
        # with it.
        for key in ("beamformer", "received"):
            doc[key] = {"shape": [0, doc[key]["shape"][1]], "data": []}
    elif case == "no-paths":
        doc["paths"] = []
    elif case == "paths-object":
        doc["paths"] = {}
    else:
        doc = [doc]
    return doc


class TestMalformedScenario:
    @pytest.mark.parametrize("case", ["config-list", "string-count",
                                      "string-noise", "top-level-list",
                                      "no-paths", "paths-object",
                                      "no-pilots",
                                      *_BAD_NOISE, *_BAD_GRID_SIZE,
                                      *_NON_FINITE])
    def test_exits_one_without_traceback(self, tmp_path, case):
        self._assert_rejected(tmp_path, case, "ls,mmse")

    @pytest.mark.parametrize("estimator", ["sbce", "ls", "omp", "mmse"])
    @pytest.mark.parametrize("case", ["received-too-few-columns",
                                      "beamformer-1d"])
    def test_inconsistent_shapes_exit_one_without_traceback(
            self, tmp_path, case, estimator):
        self._assert_rejected(tmp_path, case, estimator)

    @staticmethod
    def _assert_rejected(tmp_path, case, estimators):
        # The console entry point in a fresh interpreter, so that a
        # traceback would reach stderr instead of the test.
        path = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config",
                     _write_tiny_config(tmp_path), "--out", str(path)]) \
            == EXIT_OK
        path.write_text(json.dumps(_malformed(json.loads(path.read_text()),
                                              case)))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "thzest.cli", "scenario", "run", str(path),
             "--estimators", estimators],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: malformed scenario file: ")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

class TestHighSnrSweep:
    def test_sbce_has_no_failures_up_to_300_db(self, tmp_path):
        # The noise-variance floor keeps Pi_y factorable at SNRs where the
        # estimate would otherwise collapse to zero.
        out = tmp_path / "out.csv"
        assert main(["sweep", "--preset", "desk", "--trials", "4",
                     "--values", "150,200,250,300", "--estimators", "sbce",
                     "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[2:]]
        assert [r[0] for r in rows] == ["150.0", "200.0", "250.0", "300.0"]
        assert [r[9] for r in rows] == ["0"] * 4


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        lines = capsys.readouterr().out.split("\n")
        assert "PASS  Toeplitz PSD check" in lines

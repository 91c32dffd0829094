"""Command-line interface tests."""

import json

import numpy as np
import pytest

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
            "range_m = null\n")
        mapping = load_config_file(str(path))
        assert mapping == {"trials": 7, "snr_db": 12.5,
                           "sweep_values": [0, 10, 20],
                           "scenario": "near", "range_m": None}

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
        ("n_pilots", "2.5", "n_pilots"),
        ("sweep_values", "10, ten", "sweep value"),
        ("estimators", "ls, cnn", "cnn"),
    ])
    def test_bad_value_exits_one_with_message(self, tmp_path, capsys, key,
                                              value, words):
        cfg = _write_tiny_config(tmp_path, **{key: value})
        for command in ("sweep", "crb"):
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ") and words in err


class TestCrbCommand:
    def test_emits_table(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, trials=3)
        out = tmp_path / "crb.csv"
        code = main(["crb", "--config", cfg, "--sweep", "snr",
                     "--values", "10,20", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "snr_db,crb_dir_deg,crb_split_deg"
        assert len(lines) == 3


class TestScenarioRoundTrip:
    def test_json_round_trip_preserves_observation(self):
        cfg = ArrayConfig.half_wavelength(16, 300e9)
        grid = SubcarrierGrid.build(2, 30e9, 300e9)
        channel = gen_channel(cfg, grid, 2, rng_seed=0)
        pilots = gen_pilot_matrix(cfg, 8, rng_seed=1)
        obs = observe(channel, pilots, 20.0, rng_seed=2)
        doc = scenario_to_json(channel, obs)
        # Document must survive JSON serialization.
        doc = json.loads(json.dumps(doc))
        channel2, obs2 = scenario_from_json(doc)
        np.testing.assert_allclose(channel2.per_subcarrier,
                                   channel.per_subcarrier, atol=1e-12)
        np.testing.assert_allclose(obs2.received, obs.received, atol=1e-12)
        assert obs2.noise_var == obs.noise_var

    def test_gen_then_run(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        scen = tmp_path / "scen.json"
        assert main(["scenario", "gen", "--config", cfg,
                     "--out", str(scen)]) == EXIT_OK
        doc = json.loads(scen.read_text())
        assert doc["received"]["shape"] == [8, 2]
        code = main(["scenario", "run", str(scen), "--estimators", "ls,omp"])
        assert code == EXIT_OK
        assert main(["scenario", "run", str(scen),
                     "--estimators", "foo"]) == EXIT_CONFIG


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


class TestSelftest:
    def test_selftest_passes(self):
        assert main(["selftest"]) == EXIT_OK

"""Command-line front end: sweeps, bound tables, scenario replay, selftest."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .arrays import ArrayConfig, Direction, SubcarrierGrid, steering
from .channel import (ChannelRealization, PathParams, PilotObservation,
                      channel_from_paths)
from .harness import (PRESETS, EstimatorContext, ExperimentConfig,
                      _blas_thread_control, _check_int, _fmt,
                      config_from_mapping, crb_degrees, draw_trial,
                      resolve_point, run_estimator, run_point, run_sweep,
                      sweep_points, write_output)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("null", ""):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` document; '#' starts a comment.

    ``null`` (or an empty value) parses to None; the word ``none`` stays a
    string, since it is a legal value for the sweep axis.
    """
    mapping = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if "," in value:
                mapping[key] = [_parse_scalar(v) for v in value.split(",")]
            else:
                mapping[key] = _parse_scalar(value)
    return mapping


def _apply_common_flags(config: ExperimentConfig,
                        args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    for flag, key in (("seed", "seed"), ("out", "output_path"),
                      ("sweep", "sweep"), ("threads", "threads"),
                      ("trials", "trials")):
        if getattr(args, flag, None) is not None:
            updates[key] = getattr(args, flag)
    if getattr(args, "estimators", None) is not None:
        updates["estimators"] = tuple(_comma_list("estimators",
                                                  args.estimators))
    if getattr(args, "values", None) is not None:
        updates["sweep_values"] = tuple(
            _sweep_value(v) for v in _comma_list("values", args.values))
    return dataclasses.replace(config, **updates)


def _sweep_value(item: str) -> float:
    try:
        return float(item)
    except ValueError:
        raise ValueError(f"--values: sweep value must be a number, "
                         f"got {item!r}") from None


def _comma_list(flag: str, text: str) -> list[str]:
    """The items of a --flag comma list; an empty flag is an error, not a
    request for the config's own list."""
    if not text.strip():
        raise ValueError(f"--{flag} is empty: give a comma list")
    return text.split(",")


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = PRESETS[args.preset] if args.preset else ExperimentConfig()
    if args.config:
        config = config_from_mapping({**dataclasses.asdict(config),
                                      **load_config_file(args.config)})
    config = _apply_common_flags(config, args)
    config.validate()
    return config


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    records, csv_text = run_sweep(config)
    if not config.output_path:
        write_output(csv_text, None)
    if any(r.flagged for r in records):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_crb(args: argparse.Namespace) -> int:
    """The sweep's CRB columns, one row per point, without the estimators."""
    config = dataclasses.replace(_resolve_config(args), estimators=())
    points = sweep_points(config)
    lines = ["sweep_value,crb_dir_deg,crb_split_deg"]
    for (_, value), rows in zip(points, run_point(config, points)):
        lines.append(",".join(_fmt(v) for v in (value, *crb_degrees(rows))))
    write_output("\n".join(lines) + "\n", config.output_path)
    return EXIT_OK


def _complex_to_json(arr: np.ndarray):
    return [[float(np.real(v)), float(np.imag(v))] for v in np.ravel(arr)]


def _complex_from_json(name: str, block: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in block["data"]])
    if not np.isfinite(flat).all():
        raise ValueError(f"a {name} entry is not finite")
    return flat.reshape(block["shape"])


def scenario_to_json(channel: ChannelRealization, obs: PilotObservation,
                     grid_size: int) -> dict:
    """The trial as a JSON document; grid_size is the dictionary's."""
    cfg = channel.config
    grid = channel.grid
    return {
        "config": {"n_antennas": cfg.n_antennas,
                   "carrier_freq_hz": cfg.carrier_freq_hz,
                   "element_spacing_m": cfg.element_spacing_m},
        "grid": {"n_subcarriers": grid.n_subcarriers,
                 "bandwidth_hz": grid.bandwidth_hz,
                 "carrier_freq_hz": grid.carrier_freq_hz},
        "grid_size": grid_size,
        "paths": [
            {"gain": [p.gain.real, p.gain.imag], "delay_s": p.delay_s,
             "angle_rad": p.direction.angle_rad, "range_m": p.range_m}
            for p in channel.paths
        ],
        "beamformer": {"shape": list(obs.beamformer.shape),
                       "data": _complex_to_json(obs.beamformer)},
        "received": {"shape": list(obs.received.shape),
                     "data": _complex_to_json(obs.received)},
        "noise_var": obs.noise_var,
    }


def scenario_from_json(doc: dict):
    """(channel, observation, grid_size), the inverse of scenario_to_json.

    The "seed", "scenario" and "is_los" keys of older files are ignored: a
    path's range_m decides its field model.  A file without "grid_size"
    gets 8 N_T grid points.  A document of the wrong structure
    or types, such as a list where an object belongs or a string where a
    number does, raises ValueError, as do a NaN or infinite number, arrays
    whose shapes disagree (the beamformer must be P x N_T, P >= 1, and the
    received block P x M) and a grid_size that is not an integer >= N_T.
    """
    try:
        cfg = ArrayConfig(**doc["config"])
        grid = SubcarrierGrid.build(**doc["grid"])
        paths = tuple(
            PathParams(gain=complex(*p["gain"]), delay_s=p["delay_s"],
                       direction=Direction.from_angle(p["angle_rad"]),
                       range_m=p["range_m"])
            for p in doc["paths"])
        if not np.isfinite([(p.gain, p.delay_s) for p in paths]).all():
            raise ValueError("a path gain or delay is not finite")
        h = channel_from_paths(cfg, grid, paths)
        channel = ChannelRealization(paths, h, grid, cfg)
        beamformer = _complex_from_json("beamformer", doc["beamformer"])
        received = _complex_from_json("received", doc["received"])
        if beamformer.ndim != 2 or beamformer.shape[1] != cfg.n_antennas \
                or not len(beamformer):
            raise ValueError(f"beamformer shape {beamformer.shape} is not "
                             f"P x {cfg.n_antennas} with P >= 1")
        if received.shape != (len(beamformer), grid.n_subcarriers):
            raise ValueError(f"received shape {received.shape} is not "
                             f"{(len(beamformer), grid.n_subcarriers)}")
        noise_var = float(doc["noise_var"])
        if not 0.0 <= noise_var < math.inf:
            raise ValueError(f"noise_var {noise_var!r} is not finite and >= 0")
        obs = PilotObservation(beamformer, received, noise_var)
        grid_size = doc.get("grid_size", 8 * cfg.n_antennas)
        _check_int("grid_size", grid_size, minimum=cfg.n_antennas)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"malformed scenario file: {exc}") from exc
    return channel, obs, grid_size


def cmd_scenario_gen(args: argparse.Namespace) -> int:
    """Trial 0, user 0 of the config's ``sweep = none`` point, as swept."""
    config = dataclasses.replace(_resolve_config(args), sweep="none")
    channel, obs = draw_trial(config, *resolve_point(config, config.snr_db),
                              0, 0, 0)
    doc = scenario_to_json(channel, obs, config.grid_size)
    write_output(json.dumps(doc, indent=1) + "\n", config.output_path)
    return EXIT_OK


def cmd_scenario_run(args: argparse.Namespace) -> int:
    with open(args.scenario_file) as fh:
        doc = json.load(fh)
    channel, obs, grid_size = scenario_from_json(doc)
    config = _apply_common_flags(ExperimentConfig(), args)
    config.validate()
    ctx = EstimatorContext.build(channel.config, channel.grid, grid_size,
                                 len(channel.paths), config.estimators)
    out = {}
    for name in config.estimators:
        error, fit = run_estimator(name, ctx, obs, channel.per_subcarrier)
        out[name] = {"failed": True} if math.isnan(error) else {"nmse": error}
        if fit is not None:
            out[name].update(direction_sine=fit.est_direction_sine,
                             iterations=fit.iterations,
                             converged=fit.converged)
    write_output(json.dumps(out, indent=1) + "\n", None)
    # One trial per estimator, so any failure exceeds the sweep's 20% rule.
    if any(entry.get("failed") for entry in out.values()):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    """Fast invariant suite covering each module's core identities."""
    from .baselines import _bessel_j0, check_psd_toeplitz, oracle_covariance
    from .sbce import (beam_split_from_c, posterior_update,
                       update_perturbation_diag)

    checks = []
    rng = np.random.default_rng(0)
    cfg = ArrayConfig.half_wavelength(32, 300e9)

    a = steering(cfg, 0.3, 315e9)
    checks.append(("steering unit norm",
                   abs(np.linalg.norm(a) - 1.0) < 1e-10))

    deltas = rng.uniform(-0.1, 0.1, 50)
    ok = all(abs(beam_split_from_c(np.exp(1j * np.pi * np.arange(64) * d)) - d)
             < 1e-9 for d in deltas)
    checks.append(("beam-split round trip", ok))

    # C a(p) = a(eta p) with eta = 315/300 = 1.05, drawn so |eta p| <= 1.
    ok = all(np.max(np.abs(
        update_perturbation_diag(32, p, 315e9, 300e9)
        * steering(cfg, p, 300e9) - steering(cfg, 1.05 * p, 300e9)))
        < 1e-12 for p in rng.uniform(-1 / 1.05, 1 / 1.05, 50))
    checks.append(("perturbation identity", ok))

    pp = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    sigma = rng.uniform(0.1, 1.0, 6)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z, pi = posterior_update(pp, sigma, 0.1, y)
    direct = np.linalg.inv(np.diag(1 / sigma) + pp.conj().T @ pp / 0.1)
    z2 = direct @ pp.conj().T @ y / 0.1
    checks.append(("posterior identity",
                   np.linalg.norm(z - z2) / np.linalg.norm(z2) < 1e-8))

    # J0 on both sides of the switch to Hankel's expansion at 40, as
    # scipy 1.17.1's j0 tabulates it.
    table = {1.0: 0.7651976865579665, 10.0: -0.24593576445134832,
             100.0: 0.01998585030422333, 1000.0: 0.02478668615242003}
    j0 = _bessel_j0(np.array(list(table)))
    checks.append(("Bessel J0 table",
                   np.max(np.abs(j0 - list(table.values()))) <= 1e-14))

    # The Schur PSD check accepts the oracle columns at the desk and paper
    # band edges, rejects a column with eigenvalue -1, and agrees with a
    # dense Cholesky of T + tau I on a definite and an indefinite 4 x 4.
    def accepts(check, arg):
        try:
            check(arg)
        except ValueError:      # LinAlgError included
            return False
        return True

    edges = []
    for preset in (PRESETS["desk"], PRESETS["paper"]):
        array = ArrayConfig.half_wavelength(preset.n_antennas,
                                            preset.carrier_freq_hz)
        grid = SubcarrierGrid.build(preset.n_subcarriers, preset.bandwidth_hz,
                                    preset.carrier_freq_hz)
        edges += [oracle_covariance(array, f)
                  for f in grid.frequencies[[0, -1]]]
    small = np.array([[1.0, 0.9, 0.7, 0.4], [1.0, 0.9, 0.6, 0.1]])
    lags = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    checks.append((
        "Toeplitz PSD check",
        all(accepts(check_psd_toeplitz, col) for col in edges)
        and not accepts(check_psd_toeplitz, np.array([1.0, 2.0, 0.0]))
        and [accepts(check_psd_toeplitz, col) for col in small]
        == [accepts(np.linalg.cholesky, col[lags] + 1e-8 * np.eye(4))
            for col in small] == [True, False]))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    control = _blas_thread_control()
    print("INFO  BLAS thread control: "
          + (control[1].__name__ if control else "none found"))
    return EXIT_OK if not failed else EXIT_RUNTIME


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thzest",
        description="Wideband THz channel estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--preset", choices=sorted(PRESETS))
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output file path")
    axis = argparse.ArgumentParser(add_help=False, parents=[common])
    axis.add_argument("--sweep", choices=["snr", "bandwidth", "range", "none"])
    axis.add_argument("--values", help="comma list of sweep values")
    axis.add_argument("--threads", type=int)
    axis.add_argument("--trials", type=int)

    p_sweep = sub.add_parser("sweep", parents=[axis],
                             help="Monte-Carlo metric sweep")
    p_sweep.add_argument("--estimators", help="comma list, e.g. sbce,ls")
    p_sweep.set_defaults(func=cmd_sweep)

    p_crb = sub.add_parser("crb", parents=[axis], help="bounds-only table")
    p_crb.set_defaults(func=cmd_crb)

    p_scen = sub.add_parser("scenario", help="persist / replay one scenario")
    scen_sub = p_scen.add_subparsers(dest="scenario_command", required=True)
    p_gen = scen_sub.add_parser("gen", parents=[common],
                                help="generate a scenario JSON")
    p_gen.set_defaults(func=cmd_scenario_gen)
    p_run = scen_sub.add_parser("run", help="run estimators on a scenario")
    p_run.add_argument("scenario_file")
    p_run.add_argument("--estimators", help="comma list, e.g. sbce,ls")
    p_run.set_defaults(func=cmd_scenario_run)

    p_self = sub.add_parser("selftest", help="run the quick invariant suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

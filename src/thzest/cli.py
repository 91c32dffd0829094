"""Command-line front end: sweeps, bound tables, scenario replay, selftest."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .arrays import ArrayConfig, Direction, SubcarrierGrid
from .channel import (ChannelRealization, PathParams, PilotObservation,
                      channel_from_paths, gen_channel, gen_pilot_matrix, observe)
from .crb import ParamVector, crb
from .harness import (PRESETS, EstimatorContext, ExperimentConfig,
                      config_from_mapping, run_estimator, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
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
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["output_path"] = args.out
    if getattr(args, "estimators", None):
        updates["estimators"] = tuple(args.estimators.split(","))
    if getattr(args, "sweep", None):
        updates["sweep"] = args.sweep
    if getattr(args, "values", None):
        updates["sweep_values"] = tuple(
            float(v) for v in args.values.split(","))
    if getattr(args, "threads", None) is not None:
        updates["threads"] = args.threads
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    return dataclasses.replace(config, **updates)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = PRESETS[args.preset] if args.preset else ExperimentConfig()
    if args.config:
        mapping = load_config_file(args.config)
        base = {f.name: getattr(config, f.name)
                for f in dataclasses.fields(ExperimentConfig)}
        base.update(mapping)
        config = config_from_mapping(base)
    config = _apply_common_flags(config, args)
    config.validate()
    return config


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    records, csv_text = run_sweep(config)
    if not config.output_path:
        sys.stdout.write(csv_text)
    if any(r.flagged for r in records):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_crb(args: argparse.Namespace) -> int:
    """Bound table: average observed-aperture CRB over random geometries."""
    config = _resolve_config(args)
    array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                            config.carrier_freq_hz)
    grid = SubcarrierGrid.build(config.n_subcarriers, config.bandwidth_hz,
                                config.carrier_freq_hz)
    values = config.sweep_values if config.sweep == "snr" else (config.snr_db,)
    lines = ["snr_db,crb_dir_deg,crb_split_deg"]
    for snr_db in values:
        rng = np.random.default_rng([config.seed, 101])
        dir_vars, split_vars = [], []
        for _ in range(config.trials):
            angle = rng.uniform(-np.pi / 2, np.pi / 2)
            pilots = gen_pilot_matrix(array_cfg, config.n_pilots, rng_seed=rng)
            power = float(array_cfg.n_antennas)
            noise_var = power / array_cfg.n_antennas / 10 ** (snr_db / 10.0)
            params = ParamVector(directions=[angle], splits=[0.0])
            rep = crb(array_cfg, params, pilots, [power], noise_var,
                      float(grid.frequencies[grid.center_index]),
                      inversion="per_entry")
            dir_vars.append(rep.crb_diag[0])
            split_vars.append(rep.crb_diag[1])
        lines.append("{},{!r},{!r}".format(
            snr_db,
            math.degrees(1.0) * float(np.sqrt(np.mean(dir_vars))),
            math.degrees(1.0) * float(np.sqrt(np.mean(split_vars)))))
    text = "\n".join(lines) + "\n"
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _complex_to_json(arr: np.ndarray):
    return [[float(np.real(v)), float(np.imag(v))] for v in np.ravel(arr)]


def _complex_from_json(data, shape) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(shape)


def scenario_to_json(channel: ChannelRealization,
                     obs: PilotObservation) -> dict:
    cfg = channel.config
    grid = channel.grid
    return {
        "config": {"n_antennas": cfg.n_antennas,
                   "carrier_freq_hz": cfg.carrier_freq_hz,
                   "element_spacing_m": cfg.element_spacing_m},
        "grid": {"n_subcarriers": grid.n_subcarriers,
                 "bandwidth_hz": grid.bandwidth_hz,
                 "carrier_freq_hz": grid.carrier_freq_hz},
        "scenario": channel.scenario,
        "paths": [
            {"gain": [p.gain.real, p.gain.imag], "delay_s": p.delay_s,
             "angle_rad": p.direction.angle_rad, "range_m": p.range_m,
             "is_los": p.is_los}
            for p in channel.paths
        ],
        "beamformer": {"shape": list(obs.beamformer.shape),
                       "data": _complex_to_json(obs.beamformer)},
        "received": {"shape": list(obs.received.shape),
                     "data": _complex_to_json(obs.received)},
        "noise_var": obs.noise_var,
        "seed": obs.seed,
    }


def scenario_from_json(doc: dict):
    cfg = ArrayConfig(**doc["config"])
    grid = SubcarrierGrid.build(**doc["grid"])
    paths = tuple(
        PathParams(gain=complex(*p["gain"]), delay_s=p["delay_s"],
                   direction=Direction.from_angle(p["angle_rad"]),
                   range_m=p["range_m"], is_los=p["is_los"])
        for p in doc["paths"])
    h = channel_from_paths(cfg, grid, paths, doc["scenario"])
    channel = ChannelRealization(paths, h, grid, cfg, doc["scenario"])
    obs = PilotObservation(
        beamformer=_complex_from_json(doc["beamformer"]["data"],
                                      doc["beamformer"]["shape"]),
        received=_complex_from_json(doc["received"]["data"],
                                    doc["received"]["shape"]),
        noise_var=doc["noise_var"], seed=doc["seed"])
    return channel, obs


def cmd_scenario_gen(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                            config.carrier_freq_hz)
    grid = SubcarrierGrid.build(config.n_subcarriers, config.bandwidth_hz,
                                config.carrier_freq_hz)
    channel = gen_channel(array_cfg, grid, config.n_paths,
                          scenario=config.scenario,
                          rng_seed=config.seed, range_m=config.range_m)
    pilots = gen_pilot_matrix(array_cfg, config.n_pilots,
                              rng_seed=config.seed + 1)
    obs = observe(channel, pilots, config.snr_db, rng_seed=config.seed + 2)
    doc = scenario_to_json(channel, obs)
    text = json.dumps(doc, indent=1)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_scenario_run(args: argparse.Namespace) -> int:
    with open(args.scenario_file) as fh:
        doc = json.load(fh)
    channel, obs = scenario_from_json(doc)
    config = _apply_common_flags(ExperimentConfig(), args)
    config.validate()
    ctx = EstimatorContext.build(channel.config, channel.grid,
                                 8 * channel.config.n_antennas,
                                 len(channel.paths), config.estimators)
    out = {}
    for name in config.estimators:
        error, fit = run_estimator(name, ctx, obs, channel.per_subcarrier)
        out[name] = {"failed": True} if math.isnan(error) else {"nmse": error}
        if fit is not None:
            out[name].update(direction_sine=fit.est_direction_sine,
                             iterations=fit.iterations,
                             converged=fit.converged)
    sys.stdout.write(json.dumps(out, indent=1) + "\n")
    # One trial per estimator, so any failure exceeds the sweep's 20% rule.
    if any(entry.get("failed") for entry in out.values()):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    """Fast invariant suite covering each module's core identities."""
    from .arrays import steering_far
    from .sbce import (beam_split_from_c, posterior_update,
                       update_perturbation_diag)

    checks = []
    rng = np.random.default_rng(0)
    cfg = ArrayConfig.half_wavelength(32, 300e9)

    a = steering_far(cfg, 0.3, 315e9)
    checks.append(("steering unit norm",
                   abs(np.linalg.norm(a) - 1.0) < 1e-10))

    deltas = rng.uniform(-0.1, 0.1, 50)
    ok = all(abs(beam_split_from_c(np.exp(1j * np.pi * np.arange(64) * d)) - d)
             < 1e-9 for d in deltas)
    checks.append(("beam-split round trip", ok))

    # C a(p) = a(eta p) with eta = 315/300 = 1.05, drawn so |eta p| <= 1.
    ok = all(np.max(np.abs(
        update_perturbation_diag(32, p, 315e9, 300e9)
        * steering_far(cfg, p, 300e9) - steering_far(cfg, 1.05 * p, 300e9)))
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

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if not failed else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzest",
        description="Wideband THz channel estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file path")
        p.add_argument("--estimators", help="comma list, e.g. sbce,ls")
        p.add_argument("--sweep", choices=["snr", "bandwidth", "range", "none"])
        p.add_argument("--values", help="comma list of sweep values")
        p.add_argument("--threads", type=int)
        p.add_argument("--trials", type=int)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo metric sweep")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_crb = sub.add_parser("crb", help="bounds-only table")
    add_common(p_crb)
    p_crb.set_defaults(func=cmd_crb)

    p_scen = sub.add_parser("scenario", help="persist / replay one scenario")
    scen_sub = p_scen.add_subparsers(dest="scenario_command", required=True)
    p_gen = scen_sub.add_parser("gen", help="generate a scenario JSON")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_scenario_gen)
    p_run = scen_sub.add_parser("run", help="run estimators on a scenario")
    p_run.add_argument("scenario_file")
    add_common(p_run)
    p_run.set_defaults(func=cmd_scenario_run)

    p_self = sub.add_parser("selftest", help="run the quick invariant suite")
    add_common(p_self)
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

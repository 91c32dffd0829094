"""Seeded Monte-Carlo experiment driver with CSV emission.

Each trial owns RNG streams derived from (master seed, sweep index, trial,
user), so results are independent of execution order and thread count.
Aggregation always walks trials in index order, which keeps the emitted CSV
byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, Dictionary, SubcarrierGrid, build_dictionary
from .baselines import ls_estimate, mmse_estimate, omp_estimate_joint, oracle_covariance
from .channel import gen_channel, gen_pilot_matrix, observe
from .crb import ParamVector, crb
from .sbce import SingularCovarianceError, run_sbce


@dataclass(frozen=True)
class EstimatorContext:
    """Everything besides the observation that the estimators read."""

    array_cfg: ArrayConfig
    grid: SubcarrierGrid
    dictionary: Dictionary
    n_paths: int
    mmse_covs: list | None    # oracle covariance per subcarrier

    @classmethod
    def build(cls, array_cfg: ArrayConfig, grid: SubcarrierGrid,
              grid_size: int, n_paths: int, estimators) -> "EstimatorContext":
        """The oracle covariances are built only when mmse will run."""
        mmse_covs = None
        if "mmse" in estimators:
            mmse_covs = [oracle_covariance(array_cfg, float(f))
                         for f in grid.frequencies]
        return cls(array_cfg, grid, build_dictionary(array_cfg, grid_size),
                   n_paths, mmse_covs)


# Each entry maps (ctx, obs) to (N_T x M estimate, SbceResult or None).  The
# estimators are looked up by module-global name on every call, so that a
# rebinding of e.g. `harness.run_sbce` reaches the dispatch.

def _sbce(ctx: EstimatorContext, obs):
    fit = run_sbce(obs, ctx.dictionary, ctx.grid, array_config=ctx.array_cfg)
    return fit.est_channel, fit


def _ls(ctx: EstimatorContext, obs):
    return np.stack([ls_estimate(obs.beamformer, obs.received[:, m])
                     for m in range(ctx.grid.n_subcarriers)], axis=1), None


def _omp(ctx: EstimatorContext, obs):
    _, est = omp_estimate_joint(obs.beamformer, ctx.dictionary.atoms,
                                obs.received, ctx.n_paths)
    return est, None


def _mmse(ctx: EstimatorContext, obs):
    return np.stack([
        mmse_estimate(obs.beamformer, obs.received[:, m], ctx.mmse_covs[m],
                      obs.noise_var)
        for m in range(ctx.grid.n_subcarriers)], axis=1), None


ESTIMATORS = {"sbce": _sbce, "ls": _ls, "omp": _omp, "mmse": _mmse}
# The CSV emits one row per estimator in this order.
ALL_ESTIMATORS = tuple(ESTIMATORS)


def run_estimator(name: str, ctx: EstimatorContext, obs, h_true):
    """(NMSE against the N_T x M truth h_true, SbceResult or None).

    A numerical breakdown or a non-finite estimate is a failure and gives
    (NaN, None); a finite estimate never gives NaN.  Any other exception is
    a bug and propagates.
    """
    failed = (float("nan"), None)
    try:
        est, fit = ESTIMATORS[name](ctx, obs)
    except (SingularCovarianceError, np.linalg.LinAlgError):
        return failed
    if not np.all(np.isfinite(est)):
        return failed
    return nmse(list(h_true.T), list(est.T)), fit


CSV_HEADER_COMMENT = (
    "# rmse_dir_deg: physical direction error in degrees (angle domain); "
    "rmse_split_deg: beam-split converted to degrees as "
    "arcsin(direction+split)-arcsin(direction) of the implied pair; "
    "crb columns are sqrt of the observed-aperture bound in the same units"
)

CSV_COLUMNS = ("sweep_value", "estimator", "nmse", "rmse_dir_deg",
               "rmse_split_deg", "crb_dir_deg", "crb_split_deg",
               "mean_iters", "trials", "failures", "flagged")


@dataclass(frozen=True)
class ExperimentConfig:
    n_antennas: int = 64
    carrier_freq_hz: float = 300e9
    bandwidth_hz: float = 30e9
    n_subcarriers: int = 8
    n_pilots: int = 16
    grid_size: int = 512
    n_paths: int = 1
    n_users: int = 1
    trials: int = 100
    seed: int = 0
    snr_db: float = 20.0
    sweep: str = "snr"                       # snr | bandwidth | range | none
    sweep_values: tuple = (0.0, 10.0, 20.0, 30.0)
    estimators: tuple = ALL_ESTIMATORS
    scenario: str = "far"
    range_m: float | None = None
    output_path: str | None = None
    threads: int = 1

    def validate(self) -> None:
        for name in ("n_antennas", "n_subcarriers", "n_pilots", "grid_size",
                     "n_paths", "n_users", "trials", "threads"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("seed", self.seed, minimum=0)
        _check_real("carrier_freq_hz", self.carrier_freq_hz, positive=True)
        _check_real("bandwidth_hz", self.bandwidth_hz)
        if self.bandwidth_hz < 0:
            raise ValueError("bandwidth_hz must be >= 0")
        _check_real("snr_db", self.snr_db)
        if self.range_m is not None:
            _check_real("range_m", self.range_m, positive=True)
        if self.sweep not in ("snr", "bandwidth", "range", "none"):
            raise ValueError(f"unknown sweep axis {self.sweep!r}")
        if not isinstance(self.sweep_values, tuple):
            raise ValueError("sweep_values must be a list of numbers")
        for value in self.sweep_values:
            _check_real("sweep value", value)
        if self.sweep != "none" and len(self.sweep_values) == 0:
            raise ValueError("sweep value list must be nonempty")
        if self.scenario not in ("far", "near"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.estimators, tuple):
            raise ValueError("estimators must be a list of names")
        unknown = [e for e in self.estimators if e not in ALL_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators: {unknown}")
        if self.output_path is not None and \
                not isinstance(self.output_path, str):
            raise ValueError("output_path must be a path")


def _check_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_real(name: str, value, positive: bool = False) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be > 0")


PRESETS = {
    "desk": ExperimentConfig(),
    "paper": ExperimentConfig(n_antennas=256, n_subcarriers=128, n_pilots=32,
                              grid_size=2048, n_users=8),
}


@dataclass(frozen=True)
class MetricRecord:
    sweep_value: float
    estimator: str
    nmse: float
    rmse_direction_deg: float | None
    rmse_split_deg: float | None
    crb_direction_deg: float | None
    crb_split_deg: float | None
    mean_iters: float | None
    trials: int
    failures: int
    flagged: bool


@dataclass
class PointResult:
    """Raw per-trial outcomes for one sweep point (one row per estimator)."""

    sweep_value: float
    nmse: dict = field(default_factory=dict)          # estimator -> list
    failures: dict = field(default_factory=dict)      # estimator -> int
    dir_err_deg: list = field(default_factory=list)   # sbce only
    split_err_deg: list = field(default_factory=list)
    crb_dir_var: list = field(default_factory=list)   # rad^2, per trial
    crb_split_var: list = field(default_factory=list)  # deg^2, per trial
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)


def nmse(true_channels, est_channels) -> float:
    """Mean over realizations of ||h - h_hat||^2 / ||h||^2."""
    true_channels = list(true_channels)
    est_channels = list(est_channels)
    if len(true_channels) != len(est_channels):
        raise ValueError("mismatched channel list lengths")
    ratios = []
    for h, h_est in zip(true_channels, est_channels):
        denom = float(np.linalg.norm(h) ** 2)
        if denom == 0.0:
            raise ValueError("zero-norm truth channel")
        ratios.append(float(np.linalg.norm(h - h_est) ** 2) / denom)
    return float(np.mean(ratios))


def rmse_deg(true_values_deg, est_values_deg) -> float:
    """Root-mean-square error of degree-valued sequences."""
    t = np.asarray(true_values_deg, dtype=float)
    e = np.asarray(est_values_deg, dtype=float)
    if t.shape != e.shape:
        raise ValueError("mismatched lengths")
    return float(np.sqrt(np.mean((t - e) ** 2)))


def _split_to_deg(direction_sine: float, split: float) -> float:
    """Degrees between the implied spatial and physical angles."""
    hi = np.clip(direction_sine + split, -1.0, 1.0)
    lo = np.clip(direction_sine, -1.0, 1.0)
    return math.degrees(math.asin(hi) - math.asin(lo))


def _point_config(config: ExperimentConfig, sweep_value: float):
    """Resolve (snr_db, bandwidth, fixed range) for one sweep point."""
    snr_db = config.snr_db
    bandwidth = config.bandwidth_hz
    range_m = config.range_m
    if config.sweep == "snr":
        snr_db = float(sweep_value)
    elif config.sweep == "bandwidth":
        bandwidth = float(sweep_value)
    elif config.sweep == "range":
        range_m = float(sweep_value)
    return snr_db, bandwidth, range_m


def _trial_chunk(config: ExperimentConfig, sweep_idx: int, sweep_value: float,
                 trial_indices) -> list[dict]:
    """Run a batch of trials; heavy shared setup is rebuilt once per chunk."""
    snr_db, bandwidth, range_m = _point_config(config, sweep_value)
    array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                            config.carrier_freq_hz)
    grid = SubcarrierGrid.build(config.n_subcarriers, bandwidth,
                                config.carrier_freq_hz)
    ctx = EstimatorContext.build(array_cfg, grid, config.grid_size,
                                 config.n_paths, config.estimators)
    out = []
    for trial in trial_indices:
        for user in range(config.n_users):
            out.append(_run_single(config, ctx, sweep_idx, snr_db, range_m,
                                   trial, user))
    return out


def _run_single(config, ctx, sweep_idx, snr_db, range_m, trial, user) -> dict:
    base = [config.seed, sweep_idx, trial, user]
    array_cfg, grid = ctx.array_cfg, ctx.grid
    channel = gen_channel(array_cfg, grid, config.n_paths,
                          scenario=config.scenario,
                          rng_seed=np.random.default_rng(base + [0]),
                          range_m=range_m)
    pilots = gen_pilot_matrix(array_cfg, config.n_pilots,
                              rng_seed=np.random.default_rng(base + [1]))
    obs = observe(channel, pilots, snr_db,
                  rng_seed=np.random.default_rng(base + [2]))
    los = channel.los_path
    result: dict = {"trial": trial, "user": user, "nmse": {}}

    for name in config.estimators:
        result["nmse"][name], fit = run_estimator(name, ctx, obs,
                                                  channel.per_subcarrier)
        if fit is not None:
            result["iterations"] = fit.iterations
            result["converged"] = fit.converged
            est_angle = math.degrees(math.asin(
                np.clip(fit.est_direction_sine, -1.0, 1.0)))
            result["dir_err_deg"] = est_angle - math.degrees(
                los.direction.angle_rad)
            split_errs = []
            for m in range(grid.n_subcarriers):
                true_split = (grid.frequencies[m] / grid.carrier_freq_hz
                              - 1.0) * los.direction.sine
                est_deg = _split_to_deg(fit.est_direction_sine,
                                        fit.est_beam_split[m])
                true_deg = _split_to_deg(los.direction.sine, true_split)
                split_errs.append(est_deg - true_deg)
            result["split_err_deg"] = split_errs

    result["crb_dir_var"], result["crb_split_var"] = _trial_crb(
        array_cfg, grid, pilots, los, obs.noise_var)
    return result


def _trial_crb(array_cfg, grid, pilots, los, noise_var):
    """Observed-aperture single-path bounds at the ground-truth geometry.

    Direction variance comes from the center subcarrier; the split variance
    (converted to squared degrees) is averaged over subcarriers.  A
    near-field path's range enters the bound as it enters the channel.
    """
    ranges = None if los.range_m is None else [los.range_m]
    params = ParamVector(directions=[los.direction.angle_rad], splits=[0.0],
                         ranges=ranges)
    power = abs(los.gain) ** 2 * array_cfg.n_antennas
    split_vars = []
    dir_var = float("nan")
    for m in range(grid.n_subcarriers):
        rep = crb(array_cfg, params, pilots, [power], noise_var,
                  float(grid.frequencies[m]), inversion="per_entry")
        if m == grid.center_index:
            dir_var = float(rep.crb_diag[0])
        theta = np.clip((grid.frequencies[m] / grid.carrier_freq_hz)
                        * los.direction.sine, -0.999999, 0.999999)
        conv = math.degrees(1.0) / math.sqrt(1.0 - theta ** 2)
        split_vars.append(float(rep.crb_diag[1]) * conv ** 2)
    return dir_var, float(np.mean(split_vars))


def run_point(config: ExperimentConfig, sweep_idx: int,
              sweep_value: float) -> PointResult:
    """Run all trials of one sweep point, possibly across processes."""
    trials = list(range(config.trials))
    if config.threads > 1 and len(trials) > 1:
        n_chunks = min(config.threads * 4, len(trials))
        chunks = [trials[i::n_chunks] for i in range(n_chunks)]
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            parts = list(pool.map(_trial_chunk,
                                  [config] * len(chunks),
                                  [sweep_idx] * len(chunks),
                                  [sweep_value] * len(chunks),
                                  chunks))
        rows = [r for part in parts for r in part]
    else:
        rows = _trial_chunk(config, sweep_idx, sweep_value, trials)
    rows.sort(key=lambda r: (r["trial"], r["user"]))

    point = PointResult(sweep_value)
    for name in config.estimators:
        point.nmse[name] = [row["nmse"][name] for row in rows]
        point.failures[name] = int(np.isnan(point.nmse[name]).sum())
    for row in rows:
        if "dir_err_deg" in row:       # set only when SBCE ran and succeeded
            point.dir_err_deg.append(row["dir_err_deg"])
            point.split_err_deg.extend(row["split_err_deg"])
            point.iterations.append(row["iterations"])
            point.converged.append(row["converged"])
        point.crb_dir_var.append(row["crb_dir_var"])
        point.crb_split_var.append(row["crb_split_var"])
    return point


def summarize_point(config: ExperimentConfig,
                    point: PointResult) -> list[MetricRecord]:
    records = []
    n_runs = config.trials * config.n_users
    crb_dir = math.degrees(1.0) * math.sqrt(np.mean(point.crb_dir_var)) \
        if point.crb_dir_var else None
    crb_split = math.sqrt(np.mean(point.crb_split_var)) \
        if point.crb_split_var else None
    for name in config.estimators:
        vals = np.asarray(point.nmse[name])
        ok = vals[np.isfinite(vals)]
        failures = point.failures[name]
        records.append(MetricRecord(
            sweep_value=point.sweep_value,
            estimator=name,
            nmse=float(np.mean(ok)) if ok.size else float("nan"),
            rmse_direction_deg=(
                float(np.sqrt(np.mean(np.square(point.dir_err_deg))))
                if name == "sbce" and point.dir_err_deg else None),
            rmse_split_deg=(
                float(np.sqrt(np.mean(np.square(point.split_err_deg))))
                if name == "sbce" and point.split_err_deg else None),
            crb_direction_deg=crb_dir if name == "sbce" else None,
            crb_split_deg=crb_split if name == "sbce" else None,
            mean_iters=(float(np.mean(point.iterations))
                        if name == "sbce" and point.iterations else None),
            trials=n_runs,
            failures=failures,
            flagged=failures > 0.2 * n_runs,
        ))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER_COMMENT, ",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.sweep_value, r.estimator, r.nmse, r.rmse_direction_deg,
            r.rmse_split_deg, r.crb_direction_deg, r.crb_split_deg,
            r.mean_iters, r.trials, r.failures, r.flagged)))
    return "\n".join(lines) + "\n"


def run_sweep(config: ExperimentConfig):
    """Run the full sweep; returns (records, csv_text) and writes the CSV."""
    config.validate()
    values = [config.snr_db] if config.sweep == "none" else \
        list(config.sweep_values)
    records = []
    for sweep_idx, value in enumerate(values):
        point = run_point(config, sweep_idx, float(value))
        records.extend(summarize_point(config, point))
    csv_text = records_to_csv(records)
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(csv_text)
    return records, csv_text


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat key-value pairs."""
    valid = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(mapping) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(mapping)
    # A one-element list reads back from a config file as a bare scalar.
    for key in ("sweep_values", "estimators"):
        if key in kwargs:
            value = kwargs[key]
            kwargs[key] = tuple(value) if isinstance(value, (list, tuple)) \
                else (value,)
    return ExperimentConfig(**kwargs)

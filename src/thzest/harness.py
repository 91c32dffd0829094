"""Seeded Monte-Carlo experiment driver with CSV emission.

Each trial owns RNG streams derived from (master seed, sweep index, trial,
user), so results are independent of execution order and thread count.
Aggregation always walks trials in index order, which keeps the emitted CSV
byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, Dictionary, SubcarrierGrid, build_dictionary
from .baselines import (check_psd_toeplitz, ls_estimate, mmse_estimate,
                        omp_estimate_joint, oracle_covariance,
                        toeplitz_spectrum)
from .channel import gen_channel, gen_pilot_matrix, observe
from .crb import ParamVector, crb
from .sbce import fit_centres, run_sbce


@dataclass(frozen=True)
class EstimatorContext:
    """Everything besides the observation that the estimators read."""

    grid: SubcarrierGrid
    dictionary: Dictionary
    n_paths: int
    mmse_spectra: np.ndarray | None    # (M, F) oracle covariance spectra

    @classmethod
    def build(cls, array_cfg: ArrayConfig, grid: SubcarrierGrid,
              grid_size: int, n_paths: int, estimators) -> "EstimatorContext":
        """Set-up work is done only for the estimators that need it.

        The dictionary holds only the grid and its first atom: SBCE and
        OMP work from its DFT structure, so its atom matrix is never built.
        The oracle covariances are built only when mmse will run, each as
        the first column of its real symmetric Toeplitz R_m.  One Schur
        pass checks all M columns positive semidefinite, in O(M N_T^2),
        and only the spectra of their circulant embeddings are kept
        (F >= 2 N_T - 1 values per subcarrier), which `mmse_estimate`
        reads.  No N_T x N_T matrix is built.
        """
        dictionary = build_dictionary(array_cfg, grid_size)
        mmse_spectra = None
        if "mmse" in estimators:
            cols = np.array([oracle_covariance(array_cfg, float(freq))
                             for freq in grid.frequencies])
            check_psd_toeplitz(cols)
            mmse_spectra = toeplitz_spectrum(cols)
        return cls(grid, dictionary, n_paths, mmse_spectra)


# Each entry maps (ctx, obs, centre_fit) to (N_T x M estimate, SbceResult or
# None); centre_fit is obs's fit from `sbce.fit_centres`, or None to have
# SBCE fit obs alone.  The estimators are looked up by module-global name on
# every call, so that a rebinding of e.g. `harness.run_sbce` reaches the
# dispatch.

def _sbce(ctx: EstimatorContext, obs, centre_fit):
    fit = run_sbce(obs, ctx.dictionary, ctx.grid, centre_fit)
    return fit.est_channel, fit


def _ls(ctx: EstimatorContext, obs, centre_fit):
    return ls_estimate(obs.beamformer, obs.received), None


def _omp(ctx: EstimatorContext, obs, centre_fit):
    _, est = omp_estimate_joint(obs.beamformer, ctx.dictionary,
                                obs.received, ctx.n_paths)
    return est, None


def _mmse(ctx: EstimatorContext, obs, centre_fit):
    return mmse_estimate(obs.beamformer, obs.received, ctx.mmse_spectra,
                         obs.noise_var), None


ESTIMATORS = {"sbce": _sbce, "ls": _ls, "omp": _omp, "mmse": _mmse}
# The CSV emits one row per estimator in this order.
ALL_ESTIMATORS = tuple(ESTIMATORS)


def run_estimator(name: str, ctx: EstimatorContext, obs, h_true,
                  centre_fit=None):
    """(NMSE against the N_T x M truth h_true, SbceResult or None).

    A numerical breakdown or a non-finite estimate is a failure and gives
    (NaN, None); a finite estimate never gives NaN.  Any other exception is
    a bug and propagates.
    """
    failed = (float("nan"), None)
    try:
        est, fit = ESTIMATORS[name](ctx, obs, centre_fit)
    except np.linalg.LinAlgError:
        return failed
    if not np.all(np.isfinite(est)):
        return failed
    return nmse(h_true.T, est.T), fit


CSV_HEADER_COMMENT = (
    "# rmse_dir_deg: physical direction error in degrees (angle domain); "
    "rmse_split_deg: beam-split converted to degrees as "
    "arcsin(direction+split)-arcsin(direction) of the implied pair; "
    "crb columns are sqrt of the observed-aperture bound in the same units"
)


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
        _check_int("n_antennas", self.n_antennas, minimum=2)
        _check_int("grid_size", self.grid_size, minimum=self.n_antennas)
        for name in ("n_subcarriers", "n_pilots", "n_paths", "n_users",
                     "trials", "threads"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("seed", self.seed, minimum=0)
        _check_real("carrier_freq_hz", self.carrier_freq_hz, positive=True)
        _check_real("bandwidth_hz", self.bandwidth_hz)
        if self.bandwidth_hz < 0:
            raise ValueError("bandwidth_hz must be >= 0")
        _check_snr("snr_db", self.snr_db)
        if self.range_m is not None:
            _check_real("range_m", self.range_m, positive=True)
        if self.sweep not in ("snr", "bandwidth", "range", "none"):
            raise ValueError(f"unknown sweep axis {self.sweep!r}")
        if not isinstance(self.sweep_values, tuple):
            raise ValueError("sweep_values must be a list of numbers")
        check_value = _check_snr if self.sweep == "snr" else _check_real
        for value in self.sweep_values:
            check_value("sweep value", value)
            if self.sweep == "range" and value <= 0:
                raise ValueError("range sweep values must be > 0")
            if self.sweep == "bandwidth" and value < 0:
                raise ValueError("bandwidth sweep values must be >= 0")
        if self.sweep != "none" and len(self.sweep_values) == 0:
            raise ValueError("sweep value list must be nonempty")
        self._check_lowest_subcarrier("bandwidth_hz", self.bandwidth_hz)
        if self.sweep == "bandwidth":
            for value in self.sweep_values:
                self._check_lowest_subcarrier("bandwidth sweep value", value)
        if self.scenario not in ("far", "near"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario != "near" and (self.sweep == "range"
                                        or self.range_m is not None):
            raise ValueError("a range sweep or range_m needs scenario = near")
        if not isinstance(self.estimators, tuple):
            raise ValueError("estimators must be a list of names")
        unknown = [e for e in self.estimators if e not in ALL_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators: {unknown}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError("estimators must not repeat a name")
        if self.output_path is not None and \
                not isinstance(self.output_path, str):
            raise ValueError("output_path must be a path")

    def _check_lowest_subcarrier(self, name: str, bandwidth: float) -> None:
        # SubcarrierGrid.build's lowest frequency, rounded the same way.
        m = self.n_subcarriers
        lowest = self.carrier_freq_hz - bandwidth / m * ((m - 1) / 2)
        if lowest <= 0:
            raise ValueError(
                f"{name} {bandwidth:g} puts the lowest of {m} subcarriers "
                f"at {lowest:g} Hz; it must lie above 0 Hz")


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


#: Largest |SNR| in dB that validate accepts: far beyond any SNR of
#: interest, and well inside the ~3,080 dB where 10**(snr/10) overflows or
#: the noise variance becomes infinite.
MAX_ABS_SNR_DB = 300.0


def _check_snr(name: str, value) -> None:
    _check_real(name, value)
    if abs(value) > MAX_ABS_SNR_DB:
        raise ValueError(f"{name} must lie in [-{MAX_ABS_SNR_DB:g}, "
                         f"{MAX_ABS_SNR_DB:g}] dB, got {value!r}")


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
    rmse_dir_deg: float | None
    rmse_split_deg: float | None
    crb_dir_deg: float | None
    crb_split_deg: float | None
    mean_iters: float | None
    trials: int
    failures: int
    flagged: bool


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(MetricRecord))


def nmse(true_channels, est_channels) -> float:
    """Mean over realizations, the rows, of ||h - h_hat||^2 / ||h||^2."""
    h, h_est = np.asarray(true_channels), np.asarray(est_channels)
    if h.shape != h_est.shape:
        raise ValueError("mismatched channel shapes")
    err = h - h_est
    denom = np.sum(h.real ** 2 + h.imag ** 2, axis=-1)
    if np.any(denom == 0.0):
        raise ValueError("zero-norm truth channel")
    return float(np.mean(np.sum(err.real ** 2 + err.imag ** 2, axis=-1)
                         / denom))


def _split_to_deg(direction_sine, split):
    """Degrees between the implied spatial and physical angles."""
    hi = np.clip(direction_sine + split, -1.0, 1.0)
    lo = np.clip(direction_sine, -1.0, 1.0)
    return np.degrees(np.arcsin(hi) - np.arcsin(lo))


def resolve_point(config: ExperimentConfig, sweep_value: float):
    """(array, grid, snr_db, range_m) of one sweep point."""
    snr_db, bandwidth, range_m = (config.snr_db, config.bandwidth_hz,
                                  config.range_m)
    if config.sweep == "snr":
        snr_db = float(sweep_value)
    elif config.sweep == "bandwidth":
        bandwidth = float(sweep_value)
    elif config.sweep == "range":
        range_m = float(sweep_value)
    array_cfg = ArrayConfig.half_wavelength(config.n_antennas,
                                            config.carrier_freq_hz)
    grid = SubcarrierGrid.build(config.n_subcarriers, bandwidth,
                                config.carrier_freq_hz)
    return array_cfg, grid, snr_db, range_m


def draw_trial(config: ExperimentConfig, array_cfg, grid, snr_db, range_m,
               sweep_idx: int, trial: int, user: int):
    """(channel, observation) of one trial-user; the channel, pilots and
    noise draw from the streams [seed, sweep_idx, trial, user, 0 | 1 | 2]."""
    rngs = [np.random.default_rng([config.seed, sweep_idx, trial, user, k])
            for k in range(3)]
    channel = gen_channel(array_cfg, grid, config.n_paths,
                          scenario=config.scenario, rng_seed=rngs[0],
                          range_m=range_m)
    pilots = gen_pilot_matrix(array_cfg, config.n_pilots, rng_seed=rngs[1])
    return channel, observe(channel, pilots, snr_db, rng_seed=rngs[2])


@functools.cache
def _blas_thread_control():
    """(get, set) thread-count functions of the OpenBLAS that numpy links,
    e.g. ``scipy_openblas_set_num_threads64_``, or None: a lookup through
    the handle of numpy's linear-algebra extension also searches the
    libraries it depends on."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):   # no such module, or no library
        return None
    names = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
             for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    for get_name, set_name in names:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            getter = getattr(lib, get_name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter = getattr(lib, set_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, then restore the count.

    A trial's matrices are too small to share: a second thread only spins,
    doubling the CPU per trial and oversubscribing a process pool's cores.
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    previous = control[0]()
    control[1](1)
    try:
        yield
    finally:
        control[1](previous)


@_one_blas_thread()
def _trial_chunk(config: ExperimentConfig, points,
                 trial_indices) -> list[list[dict]]:
    """`_run_single`'s rows of a batch of trials at every sweep point, one
    list per point, run on one BLAS thread.

    points holds (sweep_idx, sweep_value) pairs, and each point's shared
    set-up is built once.  The trial-users of all points queue for one
    stack of SBCE centre fits (`sbce.fit_centres`; 16 rows at desk size, 2
    at paper size), keyed by (point, trial, user, draw): each is drawn
    only when the stack admits it and runs through `_run_single` as soon as
    its fit leaves (at once without SBCE), so no more than
    `sbce.stack_rows` draws are held at once.  The points share the array,
    so one dictionary serves every row, and each row keeps its own point's
    centre frequency.  A row's fit does not depend on its stack-mates, so
    the CSV depends neither on how the trials are chunked nor on which
    points share a stack.
    """
    resolved = [resolve_point(config, value) for _, value in points]
    contexts = [EstimatorContext.build(array_cfg, grid, config.grid_size,
                                       config.n_paths, config.estimators)
                for array_cfg, grid, _, _ in resolved]

    def queue():
        for k, (sweep_idx, _) in enumerate(points):
            for trial in trial_indices:
                for user in range(config.n_users):
                    draw = draw_trial(config, *resolved[k], sweep_idx, trial,
                                      user)
                    yield (k, trial, user, draw), draw[1], contexts[k].grid

    if "sbce" in config.estimators:
        fits = fit_centres(queue(), contexts[0].dictionary)
    else:
        fits = ((key, None) for key, _, _ in queue())
    out = [[] for _ in points]
    for (k, trial, user, draw), fit in fits:
        out[k].append(_run_single(config, contexts[k], points[k][0], trial,
                                  user, draw, fit))
        del draw    # before the stack draws the next trial-user
    return out


def _run_single(config, ctx, sweep_idx, trial, user, draw,
                centre_fit) -> dict:
    """The estimators and bounds of trial-user (sweep_idx, trial, user), from
    its (channel, observation) draw and SBCE centre fit.

    The row maps "trial" and "user" to the indices, "nmse" to
    {estimator: NMSE, NaN on failure}, "crb_dir_var" to the direction bound
    in rad^2 and "crb_split_var" to the split bound in deg^2.  Only when
    SBCE ran and succeeded does it also hold "iterations", "converged",
    "dir_err_deg" (degrees) and "split_err_deg" (an array of M values in
    degrees).
    """
    array_cfg, grid = ctx.dictionary.config, ctx.grid
    channel, obs = draw
    los = channel.los_path
    result: dict = {"trial": trial, "user": user, "nmse": {}}

    for name in config.estimators:
        result["nmse"][name], fit = run_estimator(
            name, ctx, obs, channel.per_subcarrier, centre_fit)
        if fit is not None:
            result["iterations"] = fit.iterations
            result["converged"] = fit.converged
            est_angle = math.degrees(math.asin(
                np.clip(fit.est_direction_sine, -1.0, 1.0)))
            result["dir_err_deg"] = est_angle - math.degrees(
                los.direction.angle_rad)
            true_split = (grid.frequencies / array_cfg.carrier_freq_hz
                          - 1.0) * los.direction.sine
            result["split_err_deg"] = (
                _split_to_deg(fit.est_direction_sine, fit.est_beam_split)
                - _split_to_deg(los.direction.sine, true_split))

    result["crb_dir_var"], result["crb_split_var"] = _trial_crb(channel, obs)
    return result


def _trial_crb(channel, obs):
    """Observed-aperture single-path bounds at the channel's LoS geometry.

    Direction variance comes from the center subcarrier; the split variance
    (converted to squared degrees) is averaged over subcarriers.  The LoS
    power is |alpha|^2 N_T / L, as `channel_from_paths` scales each of the
    L paths, and a near-field path's range enters the bound as it enters
    the channel.
    """
    array_cfg, grid, los = channel.config, channel.grid, channel.los_path
    ranges = None if los.range_m is None else [los.range_m]
    params = ParamVector(directions=[los.direction.angle_rad], splits=[0.0],
                         ranges=ranges)
    power = abs(los.gain) ** 2 * array_cfg.n_antennas / len(channel.paths)
    bounds = crb(array_cfg, params, obs.beamformer, [power], obs.noise_var,
                 grid.frequencies).crb_diag
    theta = np.clip((grid.frequencies / array_cfg.carrier_freq_hz)
                    * los.direction.sine, -0.999999, 0.999999)
    conv = math.degrees(1.0) / np.sqrt(1.0 - theta ** 2)
    return (float(bounds[grid.center_index, 0]),
            float(np.mean(bounds[:, 1] * conv ** 2)))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask outside Linux
        return os.cpu_count() or 1


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported on the first
    pooled run: the import loads multiprocessing, socket, subprocess and
    queue, which a serial run never uses."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_point(config: ExperimentConfig, points) -> list[list[dict]]:
    """`_run_single`'s rows of all trials of every sweep point in the list
    points of (sweep_idx, sweep_value) pairs: one list per point, sorted
    by (trial, user).  Each of min(threads, trials, CPUs) workers runs
    one chunk of the trials at every point, in-process when it is the one
    worker."""
    workers = min(config.threads, config.trials, _cpu_count())
    chunks = [range(w, config.trials, workers) for w in range(workers)]
    run_chunk = functools.partial(_trial_chunk, config, points)
    if workers == 1:
        parts = [run_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, chunks))
    return [sorted((r for part in point_parts for r in part),
                   key=lambda r: (r["trial"], r["user"]))
            for point_parts in zip(*parts)]


def sweep_points(config: ExperimentConfig) -> list[tuple[int, float]]:
    """(sweep_idx, sweep_value) of every point in CSV order; ``sweep =
    none`` is one point at snr_db."""
    values = [config.snr_db] if config.sweep == "none" else \
        config.sweep_values
    return [(idx, float(v)) for idx, v in enumerate(values)]


def crb_degrees(rows: list[dict]) -> tuple[float, float]:
    """(crb_dir_deg, crb_split_deg): root-mean per-trial bounds in degrees."""
    return (math.degrees(1.0) * math.sqrt(np.mean([r["crb_dir_var"]
                                                   for r in rows])),
            math.sqrt(np.mean([r["crb_split_var"] for r in rows])))


def _rms(values) -> float | None:
    return float(np.sqrt(np.mean(np.square(values)))) if len(values) else None


def summarize_point(config: ExperimentConfig, sweep_value: float,
                    rows: list[dict]) -> list[MetricRecord]:
    """One record per estimator; the bounds span failed-SBCE rows too."""
    records = []
    n_runs = config.trials * config.n_users
    fitted = [r for r in rows if "dir_err_deg" in r]   # SBCE succeeded
    # rmse_dir_deg through mean_iters belong to the sbce row alone.
    sbce_columns = (_rms([r["dir_err_deg"] for r in fitted]),
                    _rms(np.concatenate([r["split_err_deg"] for r in fitted]))
                    if fitted else None,
                    *crb_degrees(rows),
                    float(np.mean([r["iterations"] for r in fitted]))
                    if fitted else None)
    for name in config.estimators:
        vals = np.array([r["nmse"][name] for r in rows])
        ok = vals[np.isfinite(vals)]
        failures = int(np.isnan(vals).sum())
        records.append(MetricRecord(
            sweep_value, name,
            float(np.mean(ok)) if ok.size else float("nan"),
            *(sbce_columns if name == "sbce" else (None,) * 5),
            n_runs, failures, failures > 0.2 * n_runs))
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
    lines += [",".join(map(_fmt, dataclasses.astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_sweep(config: ExperimentConfig):
    """Run the full sweep; returns (records, csv_text) and writes the CSV."""
    config.validate()
    points = sweep_points(config)
    records = []
    for (_, value), rows in zip(points, run_point(config, points)):
        records.extend(summarize_point(config, value, rows))
    csv_text = records_to_csv(records)
    if config.output_path:
        write_output(csv_text, config.output_path)
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

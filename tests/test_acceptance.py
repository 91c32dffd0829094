"""Acceptance suite: one test per release criterion.

Each test prints as a single pass/fail line under ``pytest -v``.  Frozen
reference values and tolerance bands are pinned in the constants next to
each criterion.  The Monte-Carlo criteria share one desk-scale SNR sweep
through a module-scoped fixture so the suite stays inside its runtime
budget on a single core.
"""

import time

import numpy as np
import pytest

from thzest.arrays import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    SubcarrierGrid,
    build_dictionary,
    fraunhofer_distance,
    steering,
)
from thzest.baselines import omp_estimate_joint
from thzest.channel import PilotObservation, gen_pilot_matrix
from thzest.crb import ParamVector, crb, perturbed_steering
from thzest.harness import ExperimentConfig, run_point, run_sweep, summarize_point
from thzest.sbce import (
    beam_split_from_c,
    posterior_update,
    run_sbce,
    update_perturbation_diag,
)

from fim_oracle import numeric_fim, steering_derivatives_near
from spherical import spherical_steering

DESK = ExperimentConfig(estimators=("sbce", "ls", "omp"))


@pytest.fixture(scope="module")
def snr_points():
    """Desk-scale results at 0/10/20/30 dB, 100 trials each, with timings."""
    points, elapsed = {}, {}
    for idx, snr in enumerate((0.0, 10.0, 20.0, 30.0)):
        t0 = time.monotonic()
        [points[snr]] = run_point(DESK, [(idx, snr)])
        elapsed[snr] = time.monotonic() - t0
    return points, elapsed


def test_01_fraunhofer_crossing_of_steering_mismatch():
    """256-antenna boundary distance and the mismatch ratio at the crossing."""
    cfg = ArrayConfig.half_wavelength(256, 300e9)
    boundary = fraunhofer_distance(cfg.aperture_m, cfg.carrier_freq_hz)
    assert boundary == pytest.approx(32.0, rel=0.03)
    # The crossing ratio reference 0.0013 is attained near end-fire; the
    # mismatch between spherical and planar steering depends on direction.
    sine = 0.974
    a_near = spherical_steering(cfg, sine, boundary, 300e9)
    a_far = steering(cfg, sine, 300e9)
    ratio = np.linalg.norm(a_near - a_far) ** 2 / np.linalg.norm(a_far) ** 2
    assert ratio == pytest.approx(0.0013, rel=0.30)


def test_02_aperture_example_boundary():
    """A 16*sqrt(2) half-wavelength aperture crosses at 0.256 m."""
    spacing = SPEED_OF_LIGHT / (2 * 300e9)
    aperture = 16 * np.sqrt(2) * spacing
    assert fraunhofer_distance(aperture, 300e9) == pytest.approx(
        0.256, rel=0.01)


def test_03_split_readback_round_trip():
    """Phase-slope readback inverts the perturbation diagonal to 1e-9."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        delta = rng.uniform(-0.1, 0.1)
        n = int(rng.choice([8, 64, 256]))
        c = np.exp(1j * np.pi * np.arange(n) * delta)
        worst = max(worst, abs(beam_split_from_c(c) - delta))
    assert worst < 1e-9


def test_04_posterior_identities():
    """Covariance-form and information-form posteriors agree to 1e-8."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        p_dim = int(rng.integers(2, 9))
        n_dim = int(rng.integers(p_dim, 13))
        mat = rng.standard_normal((p_dim, n_dim)) + \
            1j * rng.standard_normal((p_dim, n_dim))
        sigma = rng.uniform(0.05, 2.0, n_dim)
        nv = float(rng.uniform(0.05, 1.0))
        y = rng.standard_normal(p_dim) + 1j * rng.standard_normal(p_dim)
        z, pi = posterior_update(mat, sigma, nv, y)
        info = np.diag(1.0 / sigma) + mat.conj().T @ mat / nv
        pi_ref = np.linalg.inv(info)
        z_ref = pi_ref @ mat.conj().T @ y / nv
        assert np.linalg.norm(z - z_ref) <= 1e-8 * np.linalg.norm(z_ref)
        assert np.linalg.norm(pi - pi_ref) <= 1e-8 * np.linalg.norm(pi_ref)


def test_05_perturbation_exactness():
    """The diagonal perturbation maps grid steering onto shifted steering."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([8, 64, 256]))
        cfg = ArrayConfig.half_wavelength(n, 300e9)
        eta = rng.uniform(0.9, 1.1)
        phi = rng.uniform(-1.0 / 1.1, 1.0 / 1.1)
        c = update_perturbation_diag(n, phi, eta * 300e9, 300e9)
        lhs = c * steering(cfg, phi, 300e9)
        rhs = steering(cfg, eta * phi, 300e9)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


def test_06_crb_matches_numeric_fim():
    """Closed-form FIM tracks the second-difference oracle within 2%."""
    cfg = ArrayConfig.half_wavelength(4, 300e9)
    cases = [
        ParamVector([0.25], [0.0]),
        ParamVector([0.25], [0.0], [0.05]),
    ]
    for params in cases:
        rep = crb(cfg, params, np.eye(4), [4.0], 0.05, 306e9)
        ref = numeric_fim(cfg, params, np.eye(4), [4.0], 0.05, 306e9)
        rel = np.linalg.norm(rep.fim - ref) / np.linalg.norm(ref)
        assert rel < 0.02


def test_07_steering_derivative_checks():
    """Analytic steering derivatives match central differences to 1e-5."""
    cfg = ArrayConfig.half_wavelength(16, 300e9)
    rng = np.random.default_rng(7)

    def rel_err(analytic, fun, x, step):
        fd = (fun(x + step) - fun(x - step)) / (2 * step)
        return np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)

    for _ in range(100):
        angle = rng.uniform(-1.2, 1.2)
        split = rng.uniform(-0.05, 0.05)
        f = rng.uniform(285e9, 315e9)
        r = rng.uniform(0.5, 10.0)
        d_angle, _, d_split = steering_derivatives_near(cfg, angle, None,
                                                        split, f)
        assert rel_err(d_angle,
                       lambda a: perturbed_steering(cfg, a, split, f),
                       angle, 1e-7) < 1e-5
        assert rel_err(d_split,
                       lambda s: perturbed_steering(cfg, angle, s, f),
                       split, 1e-7) < 1e-5
        n_angle, n_range, n_split = steering_derivatives_near(
            cfg, angle, r, split, f)
        assert rel_err(n_angle,
                       lambda a: perturbed_steering(cfg, a, split, f, r),
                       angle, 1e-7) < 1e-5
        assert rel_err(n_range,
                       lambda rr: perturbed_steering(cfg, angle, split, f, rr),
                       r, 1e-6 * r) < 1e-5
        assert rel_err(n_split,
                       lambda s: perturbed_steering(cfg, angle, s, f, r),
                       split, 1e-7) < 1e-5


def test_08_noiseless_on_grid_recovery():
    """Full-aperture noiseless pilots recover an on-grid path exactly."""
    cfg = ArrayConfig.half_wavelength(64, 300e9)
    dictionary = build_dictionary(cfg, 512)
    grid = SubcarrierGrid.build(8, 30e9, 300e9)
    true_idx = 140
    sine = float(dictionary.grid_points[true_idx])
    pilots = gen_pilot_matrix(cfg, 64, rng_seed=8)
    h = np.stack([np.sqrt(64) * steering(cfg, sine, float(f))
                  for f in grid.frequencies], axis=1)
    obs = PilotObservation(beamformer=pilots, received=pilots @ h,
                           noise_var=1e-12)
    result = run_sbce(obs, dictionary, grid)
    err = np.linalg.norm(result.est_channel - h) ** 2 / np.linalg.norm(h) ** 2
    assert err < 1e-6
    assert int(np.argmin(np.abs(dictionary.grid_points -
                                result.est_direction_sine))) == true_idx
    assert result.est_direction_sine == pytest.approx(sine, abs=1e-9)

    # Narrowband greedy recovery: single subcarrier on the carrier.
    h1 = np.sqrt(64) * steering(cfg, sine, 300e9)
    support, est = omp_estimate_joint(pilots, dictionary,
                                      (pilots @ h1)[:, None], sparsity=1)
    assert support == (true_idx,)
    assert np.linalg.norm(est[:, 0] - h1) / np.linalg.norm(h1) < 1e-9


def test_09_nmse_ordering_across_snr(snr_points):
    """Sparse estimator beats LS and greedy at 10/20/30 dB, monotonically."""
    points, elapsed = snr_points
    sbce_medians = []
    for snr in (10.0, 20.0, 30.0):
        rows = points[snr]
        med = {name: float(np.median([r["nmse"][name] for r in rows]))
               for name in ("sbce", "ls", "omp")}
        assert med["sbce"] < med["omp"], f"snr={snr}: {med}"
        assert med["sbce"] < med["ls"], f"snr={snr}: {med}"
        sbce_medians.append(med["sbce"])
    assert sbce_medians[0] >= sbce_medians[1] >= sbce_medians[2]
    assert sum(elapsed[s] for s in (10.0, 20.0, 30.0)) < 300.0


def test_10_bandwidth_robustness():
    """SBCE stays <1.5x over bandwidth; split-blind OMP degrades >=3x.

    OMP (joint support) assumes one beamspace support for all subcarriers,
    so beam split breaks it as the bandwidth grows.  LS is split-agnostic:
    it uses no angular dictionary, so it must stay flat, pinned to its
    minimum-norm floor 1 - P/N_T, and lose to SBCE at every bandwidth.
    """
    config = ExperimentConfig(estimators=("sbce", "ls", "omp"),
                              sweep="bandwidth", snr_db=20.0, trials=50,
                              sweep_values=(0.9e9, 9e9, 30e9))
    t0 = time.monotonic()
    means = {name: [] for name in config.estimators}
    for idx, bw in enumerate(config.sweep_values):
        [rows] = run_point(config, [(idx, float(bw))])
        for name in config.estimators:
            means[name].append(float(np.mean([r["nmse"][name]
                                              for r in rows])))
    elapsed = time.monotonic() - t0

    sbce_change = max(means["sbce"]) / min(means["sbce"])
    assert sbce_change < 1.5, f"sbce NMSE over bandwidth: {means['sbce']}"
    assert means["omp"][-1] / means["omp"][0] >= 3.0, \
        f"omp NMSE over bandwidth: {means['omp']}"
    # B^+ y = B^+ B h + B^+ n keeps only the projection of h onto the
    # P-dimensional row space of the pilot matrix B.  The null-space miss
    # ||(I - B^+ B) h||^2 / ||h||^2 averages about 1 - P/N_T whatever the
    # frequency; the band allows for the pilot phases not spanning the full
    # circle and for the noise term B^+ n, a few 1e-3 at 20 dB.
    ls_floor = 1.0 - config.n_pilots / config.n_antennas
    ls_msg = (f"ls NMSE over bandwidth: {means['ls']}, "
              f"minimum-norm floor 1 - P/N_T = {ls_floor}")
    assert max(means["ls"]) / min(means["ls"]) <= 1.1, ls_msg
    assert all(abs(m - ls_floor) <= 0.05 for m in means["ls"]), ls_msg
    assert all(sb < ls for sb, ls in zip(means["sbce"], means["ls"])), \
        f"sbce {means['sbce']} does not beat ls {means['ls']}"
    assert elapsed < 600.0


def test_11_rmse_tracks_bounds(snr_points):
    """Direction and split RMSE stay within bound multiples and decrease."""
    points, elapsed = snr_points
    dir_rmse, split_rmse = {}, {}
    bounds = {}
    for snr, rows in points.items():
        rec = {r.estimator: r
               for r in summarize_point(DESK, snr, rows)}["sbce"]
        dir_rmse[snr] = rec.rmse_dir_deg
        split_rmse[snr] = rec.rmse_split_deg
        bounds[snr] = (rec.crb_dir_deg, rec.crb_split_deg)
    for snr, factor in ((20.0, 10.0), (30.0, 5.0)):
        assert dir_rmse[snr] <= factor * bounds[snr][0], \
            f"snr={snr}: dir rmse {dir_rmse[snr]} vs bound {bounds[snr][0]}"
        assert split_rmse[snr] <= factor * bounds[snr][1], \
            f"snr={snr}: split rmse {split_rmse[snr]} vs bound {bounds[snr][1]}"
    order = [0.0, 10.0, 20.0, 30.0]
    assert all(dir_rmse[a] >= dir_rmse[b] for a, b in zip(order, order[1:]))
    assert all(split_rmse[a] >= split_rmse[b]
               for a, b in zip(order, order[1:]))
    assert sum(elapsed.values()) < 600.0


def test_12_convergence_within_iteration_budget(snr_points):
    """At 20 dB, at least 95% of trials converge within 100 iterations."""
    points, _ = snr_points
    good = [r["converged"] and r["iterations"] <= 100
            for r in points[20.0] if "iterations" in r]
    assert len(good) == DESK.trials
    assert np.mean(good) >= 0.95, \
        f"converged<=100 fraction: {np.mean(good):.3f}"


def test_13_deterministic_csv():
    """Identical config and seed give byte-identical CSV at any thread count."""
    base = ExperimentConfig(trials=6, sweep_values=(10.0, 20.0))
    _, csv_a = run_sweep(base)
    _, csv_b = run_sweep(base)
    assert csv_a.encode() == csv_b.encode()
    import dataclasses
    _, csv_c = run_sweep(dataclasses.replace(base, threads=2))
    assert csv_c.encode() == csv_a.encode()

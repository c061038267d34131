"""Acceptance suite: every benchmark criterion at its stated tolerance.

Runs the full 1000-run protocol once (session fixture) plus the smaller
deterministic studies, and prints one PASS/FAIL line per criterion
(visible with pytest -s).
"""

import cmath
import csv
import json
import math
from collections import defaultdict

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, SimConfig, balanced_accuracy,
                      detect_jumps, floquet_multiplier, fold_info, ols_slope,
                      simulate, stratified_kfold)
from cycleews.classify import FeatureScaler
from cycleews.events import DetectorConfig
from cycleews.experiment import (ExperimentConfig, measured_delay_phase,
                                 run_experiment, run_figures)
from cycleews.features import (circular_mean, circular_std,
                               lag1_autocorrelation, sample_variance)
from cycleews.geometry import jump_phase_decomposition
from cycleews.rng import RunStream, derive_seed, generator


def check(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} [{status}] {description}  {detail}")
    assert ok, f"criterion {criterion}: {description} {detail}"


@pytest.fixture(scope="session")
def full_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    return run_experiment(ExperimentConfig(out_dir=str(out)))


@pytest.fixture(scope="session")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return run_experiment(ExperimentConfig(n_runs=200, out_dir=str(out)))


@pytest.fixture(scope="session")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    config = ExperimentConfig(n_runs=16, figure_runs=64, out_dir=str(out))
    run_figures(config)
    return out


# --------------------------------------------------------------------------
# 1. classification benchmark
# --------------------------------------------------------------------------

def test_criterion_1_full_benchmark(full_report):
    mean = full_report["cv"]["mean"]
    check(1, "full protocol cross-validated balanced accuracy in [0.82, 0.92]",
          0.82 <= mean <= 0.92, f"cv_mean={mean:.4f}")


def test_criterion_1_smoke_benchmark(smoke_report):
    mean = smoke_report["cv"]["mean"]
    check(1, "desk-scale smoke (200 runs) balanced accuracy >= 0.78",
          mean >= 0.78, f"cv_mean={mean:.4f}")


# --------------------------------------------------------------------------
# 2. importance ordering
# --------------------------------------------------------------------------

def test_criterion_2_drop_column(full_report):
    drop = full_report["drop_column"]
    largest = max(drop, key=drop.get)
    check(2, "drop-column delta is largest for slope_jump_phase",
          largest == "slope_jump_phase",
          ", ".join(f"{k}={v:+.4f}" for k, v in drop.items()))


def test_criterion_2_permutation(full_report):
    perm = {k: v["mean"] for k, v in full_report["permutation"].items()}
    phase = perm["slope_jump_phase"]
    others = [v for k, v in perm.items() if k != "slope_jump_phase"]
    in_band = 0.22 <= phase <= 0.42
    dominant = all(phase >= 3.0 * v for v in others)
    check(2, "permutation importance of slope_jump_phase in [0.22, 0.42] and "
             ">= 3x every other feature", in_band and dominant,
          ", ".join(f"{k}={v:+.4f}" for k, v in perm.items()))


# --------------------------------------------------------------------------
# 3. Floquet scaling
# --------------------------------------------------------------------------

def test_criterion_3_floquet_scaling():
    periods = [25.0, 50.0, 100.0, 200.0]
    logs = []
    for period in periods:
        config = SimConfig(dt=0.01, t_total=period, omega=2 * math.pi / period,
                           amplitude_schedule=ConstantAmplitude(1.2),
                           sigma=0.0, x0=1.0)
        logs.append(floquet_multiplier(config).log_multiplier)
    decreasing = all(a > b for a, b in zip(logs, logs[1:]))
    inv_omega = np.array([-period / (2 * math.pi) for period in periods])
    r = np.corrcoef(inv_omega, logs)[0, 1]
    r_squared = r * r
    config_225 = SimConfig(dt=0.01, t_total=225.0, omega=2 * math.pi / 225.0,
                           amplitude_schedule=ConstantAmplitude(1.2),
                           sigma=0.0, x0=1.0)
    mu_225 = floquet_multiplier(config_225).multiplier
    check(3, "log multiplier strictly decreasing, linear in -1/omega "
             "(R^2 > 0.95), and mu < 1e-8 at the protocol frequency",
          decreasing and r_squared > 0.95 and mu_225 < 1e-8,
          f"logs={[round(v, 1) for v in logs]}, R2={r_squared:.5f}, "
          f"mu(2pi/225)={mu_225:.2e}")


# --------------------------------------------------------------------------
# 4. slow-passage exponent
# --------------------------------------------------------------------------

def test_criterion_4_delay_exponent():
    periods = [100.0, 200.0, 400.0, 800.0]
    omegas = [2 * math.pi / p for p in periods]
    delays = [measured_delay_phase(1.0, w) for w in omegas]
    slope = ols_slope_loglog(omegas, delays)
    check(4, "deterministic jump-delay phase vs omega has log-log slope "
             "2/3 +/- 0.15 at amplitude 1.0",
          abs(slope - 2.0 / 3.0) <= 0.15,
          f"slope={slope:.4f}, delays={[round(d, 4) for d in delays]}")


def ols_slope_loglog(x, y):
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float((lx * ly).sum() / (lx * lx).sum())


# --------------------------------------------------------------------------
# 5. phase-offset decomposition
# --------------------------------------------------------------------------

def test_criterion_5_phase_decomposition():
    period = 800.0
    omega = 2 * math.pi / period
    det = DetectorConfig()
    max_residual = 0.0
    thetas = {}
    for d_a in (0.8, 1.0, 1.2):
        config = SimConfig(dt=0.01, t_total=5 * period, omega=omega,
                           amplitude_schedule=ConstantAmplitude(d_a),
                           sigma=0.0, x0=1.0)
        traj = simulate(config, 0)
        segset = detect_jumps(traj, det)
        post = segset.jump_times[segset.jump_times >= 3 * period]
        assert len(post) >= 2
        for t_j in post:
            dec = jump_phase_decomposition(float(t_j), d_a, omega)
            max_residual = max(max_residual,
                               abs(dec.psi - (dec.theta + dec.phi_delay)))
        thetas[d_a] = fold_info(d_a).static_phase_offset
    monotone = thetas[0.8] > thetas[1.0] > thetas[1.2]
    toward_zero = thetas[0.8] < 0.0
    check(5, "measured jump phases satisfy the offset-plus-delay identity to "
             "1e-10 and the static offset rises toward 0 as amplitude falls",
          max_residual < 1e-10 and monotone and toward_zero,
          f"max_residual={max_residual:.2e}, thetas={thetas}")


# --------------------------------------------------------------------------
# 6. level-protocol trends at 95% bootstrap confidence
# --------------------------------------------------------------------------

def _load_level_data(figure_dir):
    per_run_cycles = defaultdict(lambda: defaultdict(list))
    with open(figure_dir / "fig_level_cycle_stats.csv") as fh:
        for row in csv.DictReader(fh):
            run, level = int(row["run_id"]), int(row["level"])
            per_run_cycles[run][level].append((float(row["var"]), float(row["ac1"])))
    per_run_deltas = defaultdict(lambda: defaultdict(list))
    with open(figure_dir / "fig_level_jump_phases.csv") as fh:
        for row in csv.DictReader(fh):
            run, level = int(row["run_id"]), int(row["level"])
            per_run_deltas[run][level].append(float(row["delta"]))
    return per_run_cycles, per_run_deltas


def _level_statistics(run_ids, per_run_cycles, per_run_deltas, n_levels=4):
    stats = {"var": [], "ac1": [], "delta": [], "circ_std": []}
    for level in range(n_levels):
        variances, ac1s, deltas = [], [], []
        for run in run_ids:
            variances.extend(v for v, _ in per_run_cycles[run][level])
            ac1s.extend(a for _, a in per_run_cycles[run][level])
            deltas.extend(per_run_deltas[run][level])
        stats["var"].append(np.mean(variances))
        stats["ac1"].append(np.mean(ac1s))
        stats["delta"].append(circular_mean(deltas))
        stats["circ_std"].append(circular_std(deltas))
    return stats


def test_criterion_6_level_trends(figure_dir):
    per_run_cycles, per_run_deltas = _load_level_data(figure_dir)
    runs = sorted(per_run_cycles)
    assert len(runs) >= 50
    point = _level_statistics(runs, per_run_cycles, per_run_deltas)

    rng = generator(derive_seed(2025, "bootstrap"))
    n_boot = 1000
    wins = {metric: np.zeros(3) for metric in point}
    for _ in range(n_boot):
        resampled = [runs[i] for i in rng.integers(0, len(runs), len(runs))]
        stats = _level_statistics(resampled, per_run_cycles, per_run_deltas)
        for metric, values in stats.items():
            for pair in range(3):
                if values[pair + 1] > values[pair]:
                    wins[metric][pair] += 1
    confident = {metric: (wins[metric] / n_boot >= 0.95).all() for metric in wins}
    detail = "; ".join(
        f"{metric}: levels={[round(float(v), 4) for v in point[metric]]} "
        f"conf={[round(float(w) / n_boot, 3) for w in wins[metric]]}"
        for metric in point)
    check(6, "variance, AC1, mean jump phase, and phase dispersion all rise "
             "monotonically across the four amplitude levels (95% bootstrap)",
          all(confident.values()), detail)


# --------------------------------------------------------------------------
# 7. oracle equivalence suite
# --------------------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    rng = generator(derive_seed(2025, "oracles"))
    rel = 1e-10
    worst = 0.0

    def track(mine, ref):
        nonlocal worst
        err = abs(mine - ref) / max(1.0, abs(ref))
        worst = max(worst, err)
        assert err <= rel

    for _ in range(100):
        n = int(rng.integers(5, 50))
        y = np.asarray(rng.standard_normal(n) * rng.uniform(0.5, 4.0))

        # lag-1 autocorrelation against an index loop
        mean = sum(y) / n
        num = sum((y[i] - mean) * (y[i + 1] - mean) for i in range(n - 1))
        den = sum((v - mean) ** 2 for v in y)
        track(lag1_autocorrelation(y), num / den)
        track(sample_variance(y), den / n)

        # OLS slope against the closed form
        xbar = (n - 1) / 2.0
        sxy = sum((i - xbar) * y[i] for i in range(n))
        sxx = sum((i - xbar) ** 2 for i in range(n))
        track(ols_slope(y), sxy / sxx)

        # circular std against a cmath loop (away from the R -> 1 cusp)
        angles = [float(a) for a in rng.uniform(-math.pi, math.pi, max(4, n // 2))]
        resultant = sum(cmath.exp(1j * a) for a in angles) / len(angles)
        if abs(resultant) < 0.99:
            track(circular_std(angles),
                  math.sqrt(-2.0 * math.log(max(abs(resultant), 1e-12))))

        # scaler against explicit column loops
        X = np.asarray(rng.standard_normal((n, 2)) * 2.0 + 1.0)
        scaled = FeatureScaler().fit(X).transform(X)
        for j in range(2):
            col_mean = sum(X[:, j]) / n
            col_std = math.sqrt(sum((v - col_mean) ** 2 for v in X[:, j]) / n)
            for i in range(0, n, max(1, n // 5)):
                track(scaled[i, j], (X[i, j] - col_mean) / col_std)

        # balanced accuracy against per-class recall loops
        y_true = rng.random(n) < 0.5
        y_pred = rng.random(n) < 0.5
        if y_true.any() and not y_true.all():
            recalls = []
            for cls in (True, False):
                members = [i for i in range(n) if y_true[i] == cls]
                recalls.append(sum(y_pred[i] == cls for i in members) / len(members))
            track(balanced_accuracy(y_true, y_pred), 0.5 * sum(recalls))

        # stratified fold counts: exact counting checks
        k = int(rng.integers(2, 6))
        n_pos, n_neg = int(rng.integers(k, 30)), int(rng.integers(k, 30))
        labels = np.array([True] * n_pos + [False] * n_neg)
        folds = stratified_kfold(labels, k, int(rng.integers(0, 2 ** 63)))
        for cls, n_cls in ((True, n_pos), (False, n_neg)):
            counts = [int(((labels == cls) & (folds == f)).sum()) for f in range(k)]
            assert sum(counts) == n_cls and max(counts) - min(counts) <= 1

    check(7, "AC1, OLS slope, circular std, scaler, balanced accuracy, and "
             "fold counts match brute-force references on 100 random instances",
          True, f"worst relative error={worst:.2e}")


# --------------------------------------------------------------------------
# 8. OU calibration of the fluctuation indicators
# --------------------------------------------------------------------------

def test_criterion_8_ou_calibration():
    kappa, sigma, dt, n = 1.0, 0.3, 0.01, 100_000
    stream = RunStream(derive_seed(2025, "ou-acceptance"))
    burn = 5000
    xi = stream.normals(n + burn)
    y = np.empty(n + burn)
    y[0] = 0.0
    for i in range(1, len(y)):
        y[i] = (1.0 - kappa * dt) * y[i - 1] + sigma * math.sqrt(dt) * xi[i]
    y = y[burn:]
    ac1 = lag1_autocorrelation(y)
    var = sample_variance(y)
    ac1_ok = abs(ac1 - math.exp(-kappa * dt)) < 0.02
    var_ok = abs(var - sigma ** 2 / (2 * kappa)) < 0.10 * sigma ** 2 / (2 * kappa)
    check(8, "sampled mean-reverting noise gives AC1 within 0.02 of "
             "exp(-kappa dt) and variance within 10% of sigma^2/(2 kappa)",
          ac1_ok and var_ok,
          f"ac1={ac1:.5f} (target {math.exp(-kappa * dt):.5f}), "
          f"var={var:.5f} (target {sigma ** 2 / (2 * kappa):.5f})")


# --------------------------------------------------------------------------
# 9. end-to-end determinism
# --------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    base = dict(n_runs=40, k_folds=3, svm_iterations=2000,
                permutation_repeats=5, master_seed=31415)
    outputs = []
    for tag, extra in (("a", {"threads": 1}),
                       ("b", {"threads": 1}),
                       ("c", {"threads": 3, "batch_size": 7})):
        out = tmp_path / tag
        run_experiment(ExperimentConfig(out_dir=str(out), **base, **extra))
        outputs.append({name: (out / name).read_bytes()
                        for name in ("report.json", "features.csv",
                                     "pca_coords.csv")})
    identical = outputs[0] == outputs[1] == outputs[2]
    report = json.loads(outputs[0]["report.json"])
    check(9, "repeated experiments are byte-identical across thread counts",
          identical and report["cv"] is not None,
          f"cv_mean={report['cv']['mean']:.4f}" if report["cv"] else "cv skipped")

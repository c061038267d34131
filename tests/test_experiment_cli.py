import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cycleews import experiment
from cycleews.classify import Dataset, LinearHingeSVM
from cycleews.cli import main
from cycleews.experiment import (ConfigError, ExperimentConfig, classify_dataset,
                                 load_config, parse_config_text, read_features_csv,
                                 run_diagnose, run_experiment, write_report)
from cycleews.rng import generator

FAST = dict(n_runs=12, t_total=450.0, master_seed=77, out_dir="")


def fast_config(out_dir, **overrides):
    """Small but complete configuration: 2 forcing periods, 12 runs."""
    values = dict(FAST, out_dir=str(out_dir))
    values.update(overrides)
    return ExperimentConfig(**values)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def test_defaults_match_protocol():
    ec = ExperimentConfig()
    assert ec.dt == 0.01 and ec.t_total == 2500.0
    assert ec.omega == pytest.approx(2.0 * math.pi / 225.0)
    assert ec.d_max == 1.2 and (ec.d_min_low, ec.d_min_high) == (0.25, 0.9)
    assert ec.sigma == 0.3 and ec.x0 == 1.0 and ec.n_runs == 1000
    assert (ec.x_up, ec.x_low, ec.n_min_steps) == (0.4, -0.4, 80)
    assert ec.breakdown_factor == 0.75
    assert ec.buffer_fraction == 0.05 and ec.detrend_degree == 3
    assert ec.phase_window == 16 and ec.min_cycles == 5 and ec.min_jumps == 5
    assert ec.k_folds == 5


def test_parse_config_text():
    ec = parse_config_text("""
# comment
n_runs = 20
sigma = 0.1   # trailing comment
figure_levels = 1.0,0.8
svm_lambda = auto
out_dir = results
""")
    assert ec.n_runs == 20 and ec.sigma == 0.1
    assert ec.figure_levels == (1.0, 0.8)
    assert ec.svm_lambda is None
    assert ec.out_dir == "results"


@pytest.mark.parametrize("text", [
    "unknown_key = 1",
    "n_runs = twenty",
    "n_runs = 5\nn_runs = 6",
    "just some words",
    "sigma = -1",
])
def test_bad_config_rejected(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_runs = 50\nmaster_seed = 9\n")
    ec = load_config(path, {"n_runs": 8, "out_dir": str(tmp_path), "threads": None})
    assert ec.n_runs == 8 and ec.master_seed == 9 and ec.out_dir == str(tmp_path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_hash_stable():
    assert ExperimentConfig().config_hash() == ExperimentConfig().config_hash()
    assert (ExperimentConfig(n_runs=5).config_hash()
            != ExperimentConfig(n_runs=6).config_hash())


# --------------------------------------------------------------------------
# experiment pipeline
# --------------------------------------------------------------------------

def test_run_experiment_accounting_and_determinism(tmp_path):
    report1 = run_experiment(fast_config(tmp_path / "a"))
    report2 = run_experiment(fast_config(tmp_path / "b"))
    n_excluded = sum(len(v) for v in report1["exclusions"].values())
    assert report1["n_runs"] == 12
    assert report1["n_valid"] + n_excluded == 12
    bytes_a = (tmp_path / "a" / "report.json").read_bytes()
    bytes_b = (tmp_path / "b" / "report.json").read_bytes()
    assert bytes_a == bytes_b
    assert ((tmp_path / "a" / "features.csv").read_bytes()
            == (tmp_path / "b" / "features.csv").read_bytes())
    assert report1 == report2


def test_run_experiment_thread_invariance(tmp_path):
    run_experiment(fast_config(tmp_path / "t1", threads=1))
    run_experiment(fast_config(tmp_path / "t2", threads=3, batch_size=4))
    assert ((tmp_path / "t1" / "features.csv").read_bytes()
            == (tmp_path / "t2" / "features.csv").read_bytes())
    assert ((tmp_path / "t1" / "report.json").read_bytes()
            == (tmp_path / "t2" / "report.json").read_bytes())


def test_diverged_ensemble_report_independent_of_workers(tmp_path):
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        run_experiment(fast_config(out, n_runs=4, batch_size=2, x0=2000.0,
                                   threads=threads))
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    warnings = json.loads(reports[0])["warnings"]
    assert warnings[:4] == [f"run {i} diverged and was excluded" for i in range(4)]


def test_classification_fits_each_fold_model_once(tmp_path, monkeypatch):
    rng = generator(5)
    y = np.arange(60) % 3 == 0
    X = rng.standard_normal((60, 4)) + y[:, None]
    data = Dataset(X=X, y=y, run_ids=np.arange(60))
    fits = []
    real_fit = LinearHingeSVM.fit
    monkeypatch.setattr(LinearHingeSVM, "fit",
                        lambda self, X, y: fits.append(1) or real_fit(self, X, y))
    config = fast_config(tmp_path, svm_iterations=200, permutation_repeats=3)
    classify_dataset(data, config)
    assert len(fits) == config.k_folds * 5  # full set plus each of 4 features dropped


def test_features_csv_roundtrip(tmp_path):
    config = fast_config(tmp_path)
    run_experiment(config)
    rows = read_features_csv(tmp_path / "features.csv")
    assert len(rows) == config.n_runs
    report = json.loads((tmp_path / "report.json").read_text())
    assert sum(r["valid"] for r in rows) == report["n_valid"]
    for row in rows:
        assert row["d_min"] is not None
        if row["valid"]:
            assert all(np.isfinite(row["slopes"]))


def test_zero_breakdown_skips_classification(tmp_path):
    # a shallow ramp never approaches the fold, so no run breaks down and
    # stratification fails; the experiment still completes with a warning
    config = fast_config(tmp_path, n_runs=6, t_total=2500.0,
                         d_min_low=1.0, d_min_high=1.1)
    report = run_experiment(config)
    assert report["n_valid"] == 6
    assert report["class_counts"]["breakdown"] == 0
    assert report["cv"] is None
    assert report["warnings"] == [
        "classification skipped: class True has 0 members, fewer than k=5"]
    assert (tmp_path / "report.json").exists()


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def run_cli(*args):
    return main(list(args))


def test_python_m_cycleews_runs_from_a_checkout(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "cycleews", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("--help")
    assert done.returncode == 0, done.stderr
    assert "diagnose" in done.stdout
    done = run("diagnose", "--periods", "0.01", "--out", str(tmp_path))
    assert done.returncode == 2 and "at least 2 steps" in done.stderr


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 5\n")
    assert run_cli("experiment", "--config", str(bad)) == 2
    assert run_cli("experiment", "--config", str(tmp_path / "nope.cfg")) == 2


@pytest.mark.parametrize("setting", ["threads = 0", "threads = -4",
                                     "batch_size = 0", "batch_size = -1"])
def test_cli_rejects_bad_execution_setting(tmp_path, setting):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"t_total = 450\nn_runs = 4\n{setting}\n")
    assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("setting", [
    "k_folds = 1", "k_folds = 0", "svm_class_weight = bogus", "svm_iterations = 0",
    "svm_tolerance = 0", "svm_tolerance = -1e-9", "svm_tolerance = nan",
    "svm_tolerance = inf", "svm_lambda = 0", "svm_lambda = -0.5", "svm_lambda = nan",
    "svm_lambda = inf", "permutation_repeats = 0", "svm_step_size = 2.0",
])
def test_cli_rejects_bad_classification_setting(tmp_path, setting):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"t_total = 450\nn_runs = 4\n{setting}\n")
    assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("command,output", [("figures", "fig_breakdown_timeseries.csv"),
                                            ("experiment", "features.csv")])
@pytest.mark.parametrize("setting", [
    "figure_runs = 0", "figure_level_periods = 0", "figure_levels = 1.0,-0.5",
    "figure_d_min = 5.0", "figure_d_min = -1",
])
def test_cli_rejects_bad_figure_setting(tmp_path, setting, command, output):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"t_total = 450\nn_runs = 4\n{setting}\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("key,value", [
    ("n_runs", "0"), ("n_runs", "-3"), ("forcing_period", "0"), ("d_min_high", "2"),
    ("d_max", "inf"), ("sigma", "inf"), ("x_up", "inf"), ("breakdown_factor", "inf"),
    ("x_low", "-inf"), ("dt", "1e-300"), ("dt", "1e-320"), ("min_cycles", "1"),
])
def test_cli_rejects_bad_model_setting(tmp_path, key, value):
    settings = {"t_total": "25", "n_runs": "6", key: value}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert not (tmp_path / "features.csv").exists()


def test_config_rejects_batch_path_above_memory(monkeypatch, tmp_path):
    monkeypatch.setattr(experiment, "physical_memory", lambda: 50 * 2 ** 20)
    # ensemble: 128 runs x (3 chunk buffers of 8,193 rows + 42,024 samples
    # of stream state) x 8 bytes = 68 MB
    with pytest.raises(ConfigError, match="ensemble batch of 128 runs"):
        load_config(None)
    # figure levels, streamed with no breakdown limit: 64 runs x (3 chunk
    # buffers of 8,193 rows + 728,274 samples of stream state) x 8 bytes = 385 MB
    with pytest.raises(ConfigError, match="figure level batch of 64 runs"):
        load_config(None, {"n_runs": 1})
    assert load_config(None, {"n_runs": 1, "figure_runs": 1}).figure_runs == 1
    assert run_cli("experiment", "--out", str(tmp_path)) == 2
    assert not (tmp_path / "features.csv").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_are_strict_json(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 2500\nn_runs = 30\nmaster_seed = 3\nk_folds = 2\n"
                   "permutation_repeats = 1\n")
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["cv"] is not None
    assert run_cli("classify", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["cv"] is not None
    assert len(report["cv"]["iterations"]) == len(report["cv"]["gaps"]) == 2


def test_write_report_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_report({"cv": float("nan")}, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()  # no truncated file either


def test_cli_classify_rejects_truncated_row(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("run_id,d_min,slope_var,slope_ac1,slope_jump_phase,"
                        "slope_phase_std,label,valid\n"
                        "0,0.5,0.1,0.2,0.3,0.4,1,1\n"
                        "1,0.5,0.1,0.2\n")
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert str(features) in err and "line 3" in err
    assert not (tmp_path / "report.json").exists()


FEATURES_HEADER = ("run_id,d_min,slope_var,slope_ac1,slope_jump_phase,slope_phase_std,"
                   "label,valid\n")


@pytest.mark.parametrize("body,n_valid", [
    ("", 0),
    ("0,0.5,0.1,0.2,0.3,0.4,1,1\n1,0.6,nan,nan,nan,nan,0,0\n", 1),
], ids=["header_only", "one_valid_row"])
def test_cli_classify_fewer_than_two_valid_rows(tmp_path, body, n_valid):
    features = tmp_path / "features.csv"
    features.write_text(FEATURES_HEADER + body)
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == {"n_valid": n_valid,
                      "warnings": ["classification skipped: fewer than 2 valid runs"],
                      "cv": None, "drop_column": None, "permutation": None, "pca": None}
    assert not (tmp_path / "pca_coords.csv").exists()


def test_cli_classify_stratification_warning_text(tmp_path):
    rng = generator(8)
    features = tmp_path / "features.csv"
    with open(features, "w") as fh:
        fh.write(FEATURES_HEADER)
        for i in range(10):
            slopes = ",".join(f"{v:.17g}" for v in rng.standard_normal(4))
            fh.write(f"{i},0.5,{slopes},{int(i < 3)},1\n")
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["warnings"] == [
        "classification skipped: class True has 3 members, fewer than k=5"]
    assert report["cv"] is None and report["drop_column"] is None
    assert report["pca"] is not None and "decision_line" not in report["pca"]


@pytest.mark.parametrize("text,line", [
    (None, None),
    ("", 1),
    ("t,x,d_a\n0,1,1.2\n", 1),
    (FEATURES_HEADER + "0,0.5,0.1,nan,0.3,0.4,1,1\n", 2),
    (FEATURES_HEADER + "0,0.5,0.1,0.2,0.3,0.4,1,1\n1,0.5,0.1,0.2,0.3,0.4,2,1\n", 3),
    (FEATURES_HEADER + "0,0.5,0.1,0.2,0.3,0.4,1,2\n", 2),
], ids=["missing_file", "empty_file", "not_features", "nan_slope_in_valid_row",
        "label_2", "valid_2"])
def test_cli_classify_rejects_bad_features_file(tmp_path, capsys, text, line):
    features = tmp_path / "features.csv"
    if text is not None:
        features.write_text(text)
    out = tmp_path / "out"
    assert run_cli("classify", "--features", str(features), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(features) in err and "Traceback" not in err
    if line is not None:
        assert f"line {line}:" in err
    assert not out.exists()


@pytest.mark.parametrize("label,missing", [(0, True), (1, False)])
def test_cli_classify_one_class(tmp_path, label, missing):
    rng = generator(9)
    features = tmp_path / "features.csv"
    with open(features, "w") as fh:
        fh.write(FEATURES_HEADER)
        for i in range(12):
            slopes = ",".join(f"{v:.17g}" for v in rng.standard_normal(4))
            fh.write(f"{i},0.5,{slopes},{label},1\n")
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["warnings"] == [
        f"classification skipped: class {missing} has 0 members, fewer than k=5"]
    assert report["cv"] is None and report["drop_column"] is None
    assert report["permutation"] is None
    assert report["pca"] is not None and "decision_line" not in report["pca"]


def test_commands_agree_on_one_ensemble(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 2500\nn_runs = 40\nmaster_seed = 3\nk_folds = 2\n"
                   "permutation_repeats = 3\n")
    exp, feat, cls = tmp_path / "experiment", tmp_path / "features", tmp_path / "classify"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(exp)) == 0
    assert run_cli("features", "--config", str(cfg), "--out", str(feat)) == 0
    assert run_cli("classify", "--config", str(cfg), "--out", str(cls),
                   "--features", str(exp / "features.csv")) == 0
    assert (feat / "features.csv").read_bytes() == (exp / "features.csv").read_bytes()
    assert (cls / "pca_coords.csv").read_bytes() == (exp / "pca_coords.csv").read_bytes()
    full = json.loads((exp / "report.json").read_text())
    alone = json.loads((cls / "report.json").read_text())
    assert full["cv"] is not None
    for key in ("n_valid", "cv", "drop_column", "permutation", "pca", "warnings"):
        assert alone[key] == full[key], key


def test_serial_commands_do_not_import_multiprocessing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 450\nn_runs = 4\nmaster_seed = 5\n"
                   "svm_iterations = 200\npermutation_repeats = 2\n")
    rng = generator(6)
    features = tmp_path / "pool.csv"
    with open(features, "w") as fh:
        fh.write("run_id,d_min,slope_var,slope_ac1,slope_jump_phase,slope_phase_std,"
                 "label,valid\n")
        for i in range(30):
            slopes = ",".join(f"{v:.17g}" for v in rng.standard_normal(4) + (i % 2))
            fh.write(f"{i},0.5,{slopes},{i % 2},1\n")
    code = ("import sys; from cycleews.cli import main; "
            f"args = ['--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]; "
            "rc = main(['experiment'] + args); "
            f"rc += main(['classify', '--features', {str(features)!r}] + args); "
            "print(rc, 'multiprocessing' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["cv"] is not None


def test_cli_simulate(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 450\nn_runs = 4\nmaster_seed = 5\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,d_a"
    assert len(lines) == 45_001 + 1
    assert (tmp_path / "events.csv").exists()


@pytest.mark.parametrize("flag,value", [("--run-index", "-1"), ("--run-seed", "-3"),
                                        ("--run-seed", str(2 ** 64))])
def test_cli_simulate_rejects_seed_out_of_range(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run_cli("simulate", "--out", str(out), flag, value) == 2
    assert "config error: run" in capsys.readouterr().err
    assert not out.exists()


def test_cli_features_then_classify(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 2500\nn_runs = 30\nmaster_seed = 3\nk_folds = 2\n"
                   "permutation_repeats = 3\nsvm_iterations = 500\n")
    assert run_cli("features", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert (tmp_path / "features.csv").exists()
    assert (tmp_path / "cycles.csv").exists()
    assert (tmp_path / "phases.csv").exists()
    assert run_cli("classify", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pca"] is not None
    if report["cv"] is not None:
        assert 0.0 <= report["cv"]["mean"] <= 1.0
        assert (tmp_path / "pca_coords.csv").exists()


def test_cli_diagnose(tmp_path):
    assert run_cli("diagnose", "--out", str(tmp_path),
                   "--da", "0.5,1.2", "--periods", "50") == 0
    rows = json.loads((tmp_path / "diagnostics.json").read_text())["rows"]
    assert len(rows) == 2
    below = next(r for r in rows if r["d_a"] == 0.5)
    assert below["fold_exists"] is False
    assert below["beta"] is None and below["measured_delay_phase"] is None
    above = next(r for r in rows if r["d_a"] == 1.2)
    assert above["fold_exists"] is True
    assert above["log_floquet"] < -20.0
    assert above["measured_delay_phase"] > 0.0
    assert above["beta"] == pytest.approx(1.2 * (2 * math.pi / 50)
                                          * math.sqrt(1 - 4 / (9 * 1.44)))


def test_cli_diagnose_diverging_grid_gives_nulls(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("x0 = 2000\n")
    assert run_cli("diagnose", "--config", str(cfg), "--out", str(tmp_path),
                   "--da", "0.5,0.9,1.2", "--periods", "50,100") == 0
    rows = json.loads((tmp_path / "diagnostics.json").read_text())["rows"]
    assert len(rows) == 6
    assert all(r["log_floquet"] is None and r["measured_delay_phase"] is None
               for r in rows)


def test_run_diagnose_integrates_only_the_floquet_search(monkeypatch, tmp_path):
    def no_simulate(*args, **kwargs):
        raise AssertionError("diagnose simulated outside the Floquet search")

    monkeypatch.setattr(experiment, "simulate", no_simulate)
    rows = run_diagnose(ExperimentConfig(out_dir=str(tmp_path)), [0.5, 1.2], [50.0])
    assert rows[0]["measured_delay_phase"] is None
    assert rows[1]["measured_delay_phase"] > 0.0


def test_diagnose_rejects_delay_window_above_memory(monkeypatch, tmp_path):
    config = ExperimentConfig(out_dir=str(tmp_path))
    # period 50 at dt 0.01: two periods hold 2 * 5,000 + 1 points of 8 bytes
    window = 8 * (2 * 5_000 + 1)
    monkeypatch.setattr(experiment, "physical_memory", lambda: window - 1)
    with pytest.raises(ConfigError, match="delay window"):
        run_diagnose(config, [1.2], [50.0])
    assert not (tmp_path / "diagnostics.json").exists()
    monkeypatch.setattr(experiment, "physical_memory", lambda: window)
    assert run_diagnose(config, [1.2], [50.0])[0]["measured_delay_phase"] > 0.0


@pytest.mark.parametrize("flag,value", [
    ("--da", "abc"), ("--da", "nan"), ("--da", "-1"), ("--da", "0"), ("--da", "1.2,"),
    ("--periods", "0"), ("--periods", "-50"), ("--periods", "inf"),
    ("--periods", "50,0.005"), ("--periods", "1e12"), ("--periods", "0.01"),
])
def test_cli_diagnose_rejects_bad_grid(tmp_path, flag, value):
    assert run_cli("diagnose", flag, value, "--out", str(tmp_path)) == 2
    assert not (tmp_path / "diagnostics.json").exists()


def test_cli_figures(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_runs = 6\nfigure_runs = 4\nfigure_level_periods = 2\n"
                   "master_seed = 21\nsvm_iterations = 300\n")
    assert run_cli("figures", "--config", str(cfg), "--out", str(tmp_path)) == 0
    for name in ("fig_breakdown_timeseries.csv", "fig_breakdown_events.csv",
                 "fig_breakdown_meta.json", "fig_level_cycle_stats.csv",
                 "fig_level_cycle_means.csv", "fig_level_jump_phases.csv",
                 "fig_level_phase_stats.csv"):
        assert (tmp_path / name).exists(), name
    for name in ("features.csv", "pca_coords.csv", "fig_class_distributions.csv",
                 "fig_pca_meta.json"):
        assert not (tmp_path / name).exists(), name
    meta = json.loads((tmp_path / "fig_breakdown_meta.json").read_text())
    assert meta["breakdown"] is True
    assert meta["onset_time"] > 0.0


def test_cli_experiment_end_to_end(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 450\nmaster_seed = 13\n")
    assert run_cli("experiment", "--config", str(cfg), "--runs", "10",
                   "--out", str(tmp_path), "--threads", "2") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_runs"] == 10
    assert report["provenance"]["master_seed"] == 13
    assert "config_hash" in report["provenance"]
    lines = (tmp_path / "fig_class_distributions.csv").read_text().splitlines()
    assert lines[0] == "feature,label,run_id,value"
    assert len(lines) == 1 + 4 * report["n_valid"]

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, DetectorConfig, SimConfig, detect_jumps, experiment,
                      floquet_multiplier, label_breakdown, sim, simulate)
from cycleews.classify import Dataset, LinearHingeSVM
from cycleews.cli import main
from cycleews.experiment import (ConfigError, ExperimentConfig, classify_dataset,
                                 feature_rows, load_config, read_features_csv,
                                 run_diagnose, run_experiment, run_figures,
                                 write_features_csv, write_report)
from cycleews.features import FeatureStream
from cycleews.rng import derive_seed, generator
from cycleews.sim import CHUNK_STEPS, RunResult, kernel_samples, write_trajectory_csv

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
    assert ec.forcing_period == 225.0 and ec.sim_config().omega == 2.0 * math.pi / 225.0
    assert ec.d_max == 1.2 and (ec.d_min_low, ec.d_min_high) == (0.25, 0.9)
    assert ec.sigma == 0.3 and ec.x0 == 1.0 and ec.n_runs == 1000
    assert (ec.x_up, ec.x_low, ec.n_min_steps) == (0.4, -0.4, 80)
    assert ec.breakdown_factor == 0.75
    assert ec.buffer_fraction == 0.05 and ec.detrend_degree == 3
    assert ec.phase_window == 16 and ec.min_cycles == 5 and ec.min_jumps == 5
    assert ec.k_folds == 5


def test_parse_config_text(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("""
# comment
n_runs = 20
sigma = 0.1   # trailing comment
figure_levels = 1.0,0.8
svm_lambda = auto
out_dir = results
""")
    ec = load_config(path)
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
def test_bad_config_rejected(text, tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_runs = 50\nmaster_seed = 9\n")
    ec = load_config(path, {"n_runs": 8, "out_dir": str(tmp_path), "threads": None})
    assert ec.n_runs == 8 and ec.master_seed == 9 and ec.out_dir == str(tmp_path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("build,message", [
    (lambda: ExperimentConfig(k_folds=1), "k_folds must be >= 2"),
    (lambda: ExperimentConfig(batch_size=0), "batch_size must be >= 1"),
    (lambda: ExperimentConfig(min_cycles=1), "min_cycles must be >= 2"),
    (lambda: replace(ExperimentConfig(), threads=0), "threads must be >= 1"),
], ids=["k_folds", "batch_size", "min_cycles", "replace_threads"])
def test_config_validates_on_construction(build, message):
    # library callers get the checks too, before anything is simulated
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("text", [
    "n_min_steps = 1", "buffer_fraction = 0.5", "phase_window = 1", "d_min_low = 0",
    "d_min_high = 0.1", "figure_level_periods = 0", "figure_d_min = 0",
])
def test_config_error_names_its_key(text, tmp_path):
    # each is checked by an object built from the config, under a name of its own
    path = tmp_path / "exp.cfg"
    path.write_text(text + "\n")
    key = text.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_load_config_override_replaces_file_value_before_checks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_runs = 0\nt_total = 450\n")
    with pytest.raises(ConfigError, match="n_runs must be >= 1"):
        load_config(path)
    config = load_config(path, {"n_runs": 4})
    assert config.n_runs == 4 and config.t_total == 450.0
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", str(path), "--runs", "4", "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["n_runs"] == 4


def test_load_config_builds_one_config(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text("n_runs = 50\nmaster_seed = 9\n")
    built = []
    post_init = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    config = load_config(path, {"n_runs": 8, "threads": None})
    assert built == [config]  # from the merged values, checked once
    built.clear()
    assert built == [load_config(None)]


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


def checkout_env():
    """os.environ with this checkout's src first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_cycleews_runs_from_a_checkout(tmp_path):
    env = checkout_env()

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


def test_cli_rejects_config_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"n_runs = 4\n\xff\xfe = 1\n")
    assert run_cli("experiment", "--config", str(bad), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"cannot read config {bad}" in err and "Traceback" not in err
    assert not (tmp_path / "features.csv").exists()


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
    monkeypatch.setattr(experiment, "physical_memory", lambda: 37 * 2 ** 20)
    # ensemble: (a 4,097-sample chunk buffer row for each of 128 runs + 128
    # runs x 33,832 samples of stream state + the fed run's 4,097-sample piece
    # and 16,876-sample joined segment) x 8 bytes = 39.0 MB, above 37 MiB (38.8 MB)
    with pytest.raises(ConfigError, match="ensemble batch of 128 runs"):
        load_config(None)
    # figure levels, streamed with no breakdown limit, so a run's state is
    # capped by its whole path: (4,097 x 64 + 64 x 360,001 +
    # 4,097 + 360,001) x 8 bytes = 189 MB
    with pytest.raises(ConfigError, match="figure level batch of 64 runs"):
        load_config(None, {"n_runs": 1})
    assert load_config(None, {"n_runs": 1, "figure_runs": 1}).figure_runs == 1
    assert run_cli("experiment", "--out", str(tmp_path)) == 2
    assert not (tmp_path / "features.csv").exists()


def test_config_accepts_ensemble_batch_within_its_stream_bound(monkeypatch):
    # a stream holds one segment of 16,876 samples, n_min = 80 steps and one
    # residual of at most 16,876 samples between feeds, no chunk more, so the
    # default ensemble batch's 39.0 MB fits in 48 MiB (50.3 MB)
    monkeypatch.setattr(experiment, "physical_memory", lambda: 48 * 2 ** 20)
    assert load_config(None, {"figure_runs": 1}).n_runs == 1000


def test_config_accepts_figure_batch_within_whole_path_bound(monkeypatch):
    # a level run holds at most its whole path: (4,097 x 64 +
    # 64 x 360,001 + 4,097 + 360,001) x 8 bytes = 189 MB for the default
    # figure level batch
    monkeypatch.setattr(experiment, "physical_memory", lambda: 300 * 10 ** 6)
    assert load_config(None, {"n_runs": 1}).figure_runs == 64


def test_config_bound_counts_batches_running_at_once(monkeypatch, tmp_path):
    # each worker holds one batch, and min(threads, batches) run at once:
    # memory for one and a half 8-run ensemble batches (the figure level
    # batch, one short run, is smaller) takes one batch at a time only
    settings = {"n_runs": 16, "batch_size": 8, "figure_runs": 1,
                "figure_level_periods": 1}
    config = load_config(None, settings)
    n_steps = config.sim_config().n_steps
    one = 8 * (kernel_samples(8, n_steps) + FeatureStream.held_samples(
        config.detector(), config.forcing_period, config.dt, n_steps, CHUNK_STEPS, 8))
    monkeypatch.setattr(experiment, "physical_memory", lambda: 3 * one // 2)
    with pytest.raises(ConfigError, match="2 ensemble batches of 8 runs at once"):
        load_config(None, {**settings, "threads": 2})
    assert load_config(None, settings).threads == 1
    assert load_config(None, {**settings, "threads": 2, "n_runs": 8}).threads == 2
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert run_cli("experiment", "--config", str(cfg), "--threads", "2",
                   "--out", str(tmp_path)) == 2
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


def test_features_csv_round_trip(tmp_path):
    # a diverged run as feature_rows gives it: NaN slopes, d_min None (no sampler)
    diverged, = feature_rows([RunResult(run_index=2, seed=0, d_min=None, value=None)])
    rows = [
        {"run_id": 0, "d_min": 0.58372910564811462,
         "slopes": [-0.0, 5e-324, 1.7976931348623157e308, -2.0 / 3.0],
         "label": True, "valid": True},
        {"run_id": 1, "d_min": 0.25, "slopes": [1e-300, 0.1, -7.5, 0.0],
         "label": False, "valid": True},
        diverged,
    ]
    path = tmp_path / "features.csv"
    write_features_csv(rows, path)
    assert path.read_text().splitlines()[3] == "2,,nan,nan,nan,nan,0,0"
    back = read_features_csv(path)

    def bits(row):
        return dict(row, slopes=np.array(row["slopes"], dtype=float).tobytes())

    assert [bits(row) for row in back] == [bits(row) for row in rows]
    assert back[2]["d_min"] is None and back[2]["label"] is False


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


def test_cli_classify_constant_column(tmp_path, capsys):
    # a constant slope_ac1 column is degenerate in every fold and overall,
    # so classification is skipped with a warning rather than a traceback
    rng = generator(9)
    features = tmp_path / "features.csv"
    with open(features, "w") as fh:
        fh.write(FEATURES_HEADER)
        for i in range(20):
            var, phase, std = (f"{v:.17g}" for v in rng.standard_normal(3))
            fh.write(f"{i},0.5,{var},0.25,{phase},{std},{i % 2},1\n")
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    warning = "classification skipped: fold 0: zero-variance columns: [1]"
    assert report["warnings"] == [warning]
    assert [report[k] for k in ("cv", "drop_column", "permutation", "pca")] == [None] * 4
    assert not (tmp_path / "pca_coords.csv").exists()
    assert warning in capsys.readouterr().err


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
    done = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["cv"] is not None


def test_diagnose_does_not_import_numpy_random(tmp_path):
    # its runs are noise-free, so none builds a Philox stream
    code = ("import sys; from cycleews.cli import main; "
            "rc = main(['diagnose', '--da', '0.5,0.9,1.2', '--periods', '25,50', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
    rows = json.loads((tmp_path / "diagnostics.json").read_text())["rows"]
    assert sum(row["log_floquet"] is not None for row in rows) == 4


def test_svm_fit_does_not_import_numpy_ma():
    # numpy's unique loads numpy.ma on first use; the class check needs no unique
    code = ("import sys; import numpy as np; from cycleews.classify import LinearHingeSVM; "
            "X = np.arange(12.0).reshape(6, 2); y = np.array([0, 1, 0, 1, 1, 0], dtype=bool); "
            "LinearHingeSVM().fit(X, y); print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["False"], done.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


def run_python(code, **preset):
    """Run code in a fresh interpreter on this checkout, with no BLAS thread
    variable set but those in preset; returns its stdout split into words."""
    env = {k: v for k, v in checkout_env().items() if k not in BLAS_THREAD_VARIABLES}
    done = subprocess.run([sys.executable, "-c", code], env=dict(env, **preset),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_cycleews_loads_no_numpy_and_leaves_blas_threads_alone():
    code = ("import os, sys, cycleews; "
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_python(code) == ["False", "None"]


def test_package_names_are_their_home_modules_objects():
    code = """
import importlib, cycleews
for name in cycleews.__all__:
    home = importlib.import_module(f"cycleews.{cycleews._HOME[name]}")
    assert getattr(cycleews, name) is getattr(home, name), name
    assert name in dir(cycleews), name
try:
    cycleews.no_such_name
except AttributeError:
    print("ok")
"""
    assert run_python(code) == ["ok"]
    import cycleews
    assert {"simulate", "SimConfig", "cross_validate", "run_experiment", "main"} <= set(
        cycleews.__all__)


def test_cli_runs_blas_on_one_thread_unless_the_caller_set_it():
    code = ("import os, cycleews.cli; "
            f"print(*(os.environ[name] for name in {BLAS_THREAD_VARIABLES!r}))")
    assert run_python(code) == ["1", "1", "1", "1"]
    assert run_python(code, OPENBLAS_NUM_THREADS="3") == ["3", "1", "1", "1"]


def test_cli_process_starts_no_blas_thread():
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs Linux /proc")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("this numpy does not report its BLAS build")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
    code = "import os, cycleews.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    assert run_python(code) == ["1"]


def test_cli_simulate(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 450\nn_runs = 4\nmaster_seed = 5\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,d_a"
    assert len(lines) == 45_001 + 1
    assert (tmp_path / "events.csv").exists()


# seeds derive from 64-bit labels, so run index 2**64 would alias run index 0
@pytest.mark.parametrize("flag,value", [("--run-index", "-1"), ("--run-index", str(2 ** 64)),
                                        ("--run-seed", "-3"), ("--run-seed", str(2 ** 64))])
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


@pytest.mark.parametrize("command", ["experiment", "figures", "simulate", "diagnose"])
def test_cli_rejects_x0_beyond_the_divergence_bound(monkeypatch, tmp_path, capsys, command):
    # every run from there would diverge at its first step
    monkeypatch.setattr(sim, "_integrate", lambda *args: pytest.fail("integrated"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("t_total = 450\nn_runs = 4\nx0 = 1e200\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert "divergence bound" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose_diverging_grid_gives_nulls(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("x0 = 2000\n")
    assert run_cli("diagnose", "--config", str(cfg), "--out", str(tmp_path),
                   "--da", "0.5,0.9,1.2", "--periods", "50,100") == 0
    rows = json.loads((tmp_path / "diagnostics.json").read_text())["rows"]
    assert len(rows) == 6
    assert all(r["log_floquet"] is None and r["measured_delay_phase"] is None
               for r in rows)


def test_run_diagnose_nulls_a_diverged_floquet_search(tmp_path):
    config = ExperimentConfig(x0=1.0e6, out_dir=str(tmp_path))
    (row,) = run_diagnose(config, [1.2], [225.0])
    assert row["log_floquet"] is None and row["measured_delay_phase"] is None
    assert json.loads((tmp_path / "diagnostics.json").read_text())["rows"] == [row]


def test_run_diagnose_integrates_only_the_floquet_search(monkeypatch, tmp_path):
    def no_simulate(*args, **kwargs):
        raise AssertionError("diagnose simulated outside the Floquet search")

    monkeypatch.setattr(experiment, "simulate", no_simulate)
    rows = run_diagnose(ExperimentConfig(out_dir=str(tmp_path)), [0.5, 1.2], [50.0])
    assert rows[0]["measured_delay_phase"] is None
    assert rows[1]["measured_delay_phase"] > 0.0


def test_diagnose_rejects_delay_window_above_memory(monkeypatch, tmp_path):
    config = ExperimentConfig(out_dir=str(tmp_path))
    # period 50 at dt 0.01: a point holds two period paths of 5,000 + 1 points of 8 bytes
    paths = 16 * (5_000 + 1)
    monkeypatch.setattr(experiment, "physical_memory", lambda: paths - 1)
    with pytest.raises(ConfigError, match="two period paths of 80016 bytes"):
        run_diagnose(config, [1.2], [50.0])
    assert not (tmp_path / "diagnostics.json").exists()
    monkeypatch.setattr(experiment, "physical_memory", lambda: paths)
    assert run_diagnose(config, [1.2], [50.0])[0]["measured_delay_phase"] > 0.0


def _traced_peak(fn, *args):
    """fn(*args) and how far traced memory peaked above what was live at the call."""
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - live


def test_whole_run_paths_peak_at_their_admitted_size(tmp_path):
    # simulate holds the 8 bytes a point that ExperimentConfig admits for one
    # run path, plus the kernel's chunk buffers; detecting the path's jumps
    # and writing a path's CSV each add at most 1 MB.  A diagnose point is
    # admitted at two period paths: the Floquet search holds the last period
    # and the one before, plus a lone run's chunk buffers and its chunk of
    # Python floats (about 140 KB at period 400), and the delay holds no copy
    # of a period beside the orbit: it stays under half a period path, a
    # quarter of a two-period window.  The CSV is written for the protocol's
    # 250,001-point path, where one array over the whole path would take
    # 2 MB: formatting a million rows under tracemalloc takes about 20 s on a
    # 2-core AVX-512 Xeon host (4.3 s for the 250,001 rows).
    config = ExperimentConfig(t_total=10_000.0).sim_config()
    assert config.n_steps + 1 >= 10 ** 6
    protocol = ExperimentConfig().sim_config()
    protocol_run = simulate(protocol, 7)
    orbit_cfg = SimConfig(dt=0.01, t_total=400.0, forcing_period=400.0,
                          amplitude_schedule=ConstantAmplitude(1.2), sigma=0.0, x0=1.0)
    path = 8 * (orbit_cfg.n_steps + 1)
    tracemalloc.start()
    try:
        traj, peak = _traced_peak(simulate, config, 7)
        assert peak <= 8 * (config.n_steps + 1) + 8 * kernel_samples(1, config.n_steps) + 10 ** 6
        _, peak = _traced_peak(detect_jumps, traj, DetectorConfig())
        assert peak <= 10 ** 6
        del traj
        _, peak = _traced_peak(write_trajectory_csv, protocol_run, protocol,
                               tmp_path / "traj.csv")
        assert peak <= 10 ** 6
        floquet, peak = _traced_peak(floquet_multiplier, orbit_cfg)
        assert peak < 2 * path + 8 * kernel_samples(1, orbit_cfg.n_steps) + 3 * path // 4
        delay, peak = _traced_peak(experiment.measured_delay_phase, orbit_cfg, floquet,
                                   DetectorConfig())
        assert delay is not None and peak < path // 2
    finally:
        tracemalloc.stop()


def test_streamed_batch_peaks_within_its_admitted_size():
    # 16 ramped runs in one batch stream into FeatureStreams over more than
    # three chunks: every run starts at x0 = 1 under the same forcing, so
    # their jumps stay in phase and the streams hold their most at once, and
    # the traced peak stays within the bytes ExperimentConfig admits a batch
    import numpy.random  # noqa: F401  (loaded by iter_ensemble, not traced here)

    config = ExperimentConfig(n_runs=16, master_seed=31)
    sim_cfg, det = config.sim_config(), config.detector()
    n_steps = sim_cfg.n_steps
    made = []

    def consumer():
        made.append(FeatureStream(det, config.feature_config(), config.forcing_period,
                                  sim_cfg.dt, n_steps))
        return made[-1]

    bound = 8 * (kernel_samples(16, n_steps) + FeatureStream.held_samples(
        det, config.forcing_period, config.dt, n_steps, CHUNK_STEPS, 16))
    tracemalloc.start()
    try:
        runs, peak = _traced_peak(list, sim.iter_ensemble(
            sim_cfg, 16, config.d_min_sampler(), consumer=consumer, batch_size=16))
    finally:
        tracemalloc.stop()
    assert all(res.error is None for res in runs)
    assert max(stream.jumps.seen for stream in made) > 3 * CHUNK_STEPS
    assert peak <= bound


@pytest.mark.parametrize("flag,value", [
    ("--da", "abc"), ("--da", "nan"), ("--da", "-1"), ("--da", "0"), ("--da", "1.2,"),
    ("--periods", "0"), ("--periods", "-50"), ("--periods", "inf"),
    ("--periods", "50,0.005"), ("--periods", "1e12"), ("--periods", "0.01"),
])
def test_cli_diagnose_rejects_bad_grid(tmp_path, flag, value):
    assert run_cli("diagnose", flag, value, "--out", str(tmp_path)) == 2
    assert not (tmp_path / "diagnostics.json").exists()


@pytest.mark.parametrize("command,flag", [
    ("simulate", "--runs"), ("simulate", "--threads"), ("classify", "--runs"),
    ("figures", "--runs"), ("diagnose", "--runs"), ("diagnose", "--threads"),
])
def test_cli_rejects_overrides_the_command_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, flag, "2", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the subcommand's, which lists the flags it does take
    assert err.startswith(f"usage: cycleews {command} ")
    assert f"cycleews {command}: error: unrecognized arguments: {flag} 2" in err
    assert not out.exists()


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


def test_figure_breakdown_onset_matches_the_feature_stream(tmp_path):
    # figure (a) takes its onset from label_breakdown on the whole path; a
    # FeatureStream fed that path in chunks, as the ensemble's runs are, finds
    # the same onset, and the meta file's label and onset time follow from it
    config = ExperimentConfig(figure_runs=1, figure_level_periods=2, out_dir=str(tmp_path))
    run_figures(config)
    onset_cfg, _ = config.figure_sim_configs()
    traj = simulate(onset_cfg, derive_seed(config.master_seed, "figure-breakdown"))
    det, t_f = config.detector(), config.forcing_period
    stream = FeatureStream(det, config.feature_config(), t_f, onset_cfg.dt, onset_cfg.n_steps)
    for lo in range(0, len(traj.x), CHUNK_STEPS):
        if stream.feed(traj.x[lo:lo + CHUNK_STEPS]):
            break
    assert stream.onset is not None
    assert stream.onset == label_breakdown(detect_jumps(traj, det), t_f, det)
    meta = json.loads((tmp_path / "fig_breakdown_meta.json").read_text())
    assert meta["breakdown"] is True
    assert meta["onset_time"] == float(stream.jumps.boundaries[stream.onset] * onset_cfg.dt)


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

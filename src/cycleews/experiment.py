"""End-to-end experiment orchestration and file outputs.

Configuration is a flat key = value text file whose defaults reproduce
the benchmark protocol; every derived random stream hangs off the one
master_seed, so a whole experiment is a pure function of the resolved
configuration.  Data goes to files (CSV/JSON, round-trip exact),
progress and warnings to stderr, nothing nondeterministic into reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import __version__
from .base import require, write_csv
from .classify import (Dataset, DegenerateFeatureError, FeatureScaler, LinearHingeSVM,
                       StratificationError, cross_validate,
                       drop_column_importance, pca_2d, permutation_importance, stratified_kfold)
# perfbench's tracer wraps iter_ensemble, simulate, detect_jumps, label_breakdown,
# truncate_at_onset and extract_features where this module looks them up, so
# each stays importable from here even where this module no longer calls it
from .events import (DetectorConfig, JumpStream, detect_jumps, label_breakdown,  # noqa: F401
                     truncate_at_onset, write_events_csv)
from .features import (FEATURE_NAMES, FeatureConfig, FeatureStream,  # noqa: F401
                       circular_mean, circular_std, extract_features)
from .geometry import (ConvergenceError, FOLD_FORCING_VALUE, FloquetEstimate,
                       diagnostics_record, floquet_multiplier, jump_phase_decomposition)
from .rng import derive_seed
from .sim import (ConstantAmplitude, LinearRampAmplitude, PiecewiseConstantAmplitude,
                  RunResult, SimConfig, Trajectory, UniformSampler, chunk_steps,
                  draw_d_min, iter_ensemble, kernel_samples,
                  run_seed_for, simulate, write_trajectory_csv)


class ConfigError(ValueError):
    pass


def _float_list(text: str):
    return tuple(float(v) for v in str(text).split(","))


def _optional_float(text):
    if text is None or str(text).strip().lower() in ("", "auto", "none"):
        return None
    return float(text)


def physical_memory() -> int:
    """Bytes of physical memory: page size times page count."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; the defaults are the benchmark protocol."""

    dt: float = 0.01
    t_total: float = 2500.0
    forcing_period: float = 225.0
    d_max: float = 1.2
    d_min_low: float = 0.25
    d_min_high: float = 0.9
    sigma: float = 0.3
    x0: float = 1.0
    master_seed: int = 2025
    n_runs: int = 1000
    x_up: float = 0.4
    x_low: float = -0.4
    n_min_steps: int = 80
    breakdown_factor: float = 0.75
    buffer_fraction: float = 0.05
    detrend_degree: int = 3
    phase_window: int = 16
    min_cycles: int = 5
    min_jumps: int = 5
    k_folds: int = 5
    svm_iterations: int = 100_000
    svm_lambda: Optional[float] = None
    svm_tolerance: float = 1.0e-10
    svm_class_weight: Optional[str] = "balanced"
    permutation_repeats: int = 20
    batch_size: int = 128
    threads: int = 1
    out_dir: str = "out"
    figure_levels: tuple = (1.0, 0.9, 0.8, 0.72)
    figure_level_periods: int = 4
    figure_runs: int = 64
    figure_d_min: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                require(math.isfinite(value), f"{f.name} must be finite")
        require(self.n_runs >= 1, "n_runs must be >= 1")
        require(self.d_min_high <= self.d_max, "d_min_high must be <= d_max")
        require(self.threads >= 1, "threads must be >= 1")
        require(self.batch_size >= 1, "batch_size must be >= 1")
        require(self.k_folds >= 2, "k_folds must be >= 2")
        require(self.permutation_repeats >= 1, "permutation_repeats must be >= 1")
        require(self.figure_runs >= 1, "figure_runs must be >= 1")
        # every other rule belongs to an object built from the settings
        self._built(self.svm_hyperparams(),
                    "svm_lambda svm_iterations svm_tolerance svm_class_weight")
        det = self._built(self.detector, "x_up x_low n_min_steps breakdown_factor")
        self._built(self.feature_config,
                    "buffer_fraction detrend_degree phase_window min_cycles min_jumps")
        self._built(self.d_min_sampler, "d_min_low d_min_high")
        sim_cfg = self._built(self.sim_config, "dt t_total forcing_period sigma x0 master_seed")
        memory = physical_memory()
        # simulate and the figure ramp hold one whole path as long as an ensemble run
        n_points = sim_cfg.n_steps + 1
        require(8 * n_points <= memory,
                f"one run path of {float(n_points):.6g} points (8 bytes each) exceeds the "
                f"{memory} bytes of physical memory")
        # a streamed batch holds the kernel's buffers plus each run's FeatureStream,
        # and fork_map runs one batch per worker, min(threads, batches) at once
        _, piece = self._built(self.figure_sim_configs,
                               "d_max figure_d_min figure_levels figure_level_periods")
        for what, cfg, run_det, n_runs in (
                ("ensemble", sim_cfg, det, self.n_runs),
                ("figure level", piece, self.level_detector(), self.figure_runs)):
            batch = min(self.batch_size, n_runs)
            at_once = min(self.threads, -(-n_runs // batch))
            chunk = min(chunk_steps(batch), cfg.n_steps)
            held = 8 * at_once * (
                kernel_samples(batch, cfg.n_steps) + FeatureStream.held_samples(
                    run_det, self.forcing_period, self.dt, cfg.n_steps, chunk, batch))
            batches = (f"one {what} batch of {batch} runs holds" if at_once == 1 else
                       f"{at_once} {what} batches of {batch} runs at once hold")
            require(held <= memory,
                    f"{batches} up to {float(held):.6g} bytes (chunk buffers and per-run "
                    f"state), more than the {memory} bytes of physical memory")

    def _built(self, build, keys: str):
        """build(); its ValueError, which names the derived object's own fields
        (n_min, p_buf, low, ...), is re-raised with the settings it is built from."""
        try:
            return build()
        except ValueError as exc:
            settings = ", ".join(f"{key} = {getattr(self, key)}" for key in keys.split())
            raise ValueError(f"{settings}: {exc}") from exc

    def sim_config(self, schedule=None) -> SimConfig:
        if schedule is None:
            schedule = LinearRampAmplitude(self.d_max, self.d_min_low)
        return SimConfig(dt=self.dt, t_total=self.t_total, forcing_period=self.forcing_period,
                         amplitude_schedule=schedule, sigma=self.sigma, x0=self.x0,
                         master_seed=self.master_seed)

    def detector(self) -> DetectorConfig:
        return DetectorConfig(x_up=self.x_up, x_low=self.x_low, n_min=self.n_min_steps,
                              breakdown_factor=self.breakdown_factor)

    def level_detector(self) -> DetectorConfig:
        """The figure level protocol's: no breakdown limit, so no level run stops early."""
        return replace(self.detector(), breakdown_factor=math.inf)

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(p_buf=self.buffer_fraction, detrend_degree=self.detrend_degree,
                             window_w=self.phase_window, min_cycles=self.min_cycles,
                             min_jumps=self.min_jumps)

    def d_min_sampler(self) -> UniformSampler:
        return UniformSampler(self.d_min_low, self.d_min_high)

    def figure_sim_configs(self):
        """Sim configs of the figure protocols: (deep ramp, amplitude levels)."""
        ramp = self.sim_config(LinearRampAmplitude(self.d_max, self.figure_d_min))
        level_duration = self.figure_level_periods * self.forcing_period
        levels = tuple(self.figure_levels)
        schedule = PiecewiseConstantAmplitude(levels, level_duration)
        piece = replace(self.sim_config(schedule), t_total=level_duration * len(levels),
                        master_seed=derive_seed(self.master_seed, "figure-levels"))
        return ramp, piece

    def svm_hyperparams(self):
        """The SVM factory: LinearHingeSVM with the svm_* settings."""
        return partial(LinearHingeSVM, lambda_reg=self.svm_lambda, n_iter=self.svm_iterations,
                       tol=self.svm_tolerance, class_weight=self.svm_class_weight)

    # execution details with no effect on results; kept out of provenance
    EXECUTION_FIELDS = ("out_dir", "threads", "batch_size")

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in self.EXECUTION_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(f"{v:.17g}" for v in value)
            elif isinstance(value, float):
                value = f"{value:.17g}"
            elif value is None:
                value = "auto"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


# a key's value parses as the type of its default, except where the
# default's type does not cover the spellings ("auto", "none", a list)
_PARSERS = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_PARSERS.update(
    svm_lambda=_optional_float,
    svm_class_weight=lambda v: None if str(v).strip().lower() == "none" else str(v),
    figure_levels=_float_list)


def _config_values(text: str) -> dict:
    """Parsed values of flat key = value text; a bad line raises ConfigError."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(path=None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Config from file values (or defaults), then non-None overrides, then validation.

    The merged values build one self-validating ExperimentConfig, so an override
    replaces a file value before it is checked; a rejection is a ConfigError.
    """
    values = {}
    if path is not None:
        try:
            values = _config_values(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    try:
        return ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# per-run pipeline
# --------------------------------------------------------------------------

def _feature_streams(config: ExperimentConfig, sim_cfg: SimConfig, det: DetectorConfig):
    """iter_ensemble's consumer factory: a FeatureStream for each run of sim_cfg."""
    return partial(FeatureStream, det, config.feature_config(), sim_cfg.forcing_period,
                   sim_cfg.dt, sim_cfg.n_steps)


def run_feature_pipeline(config: ExperimentConfig) -> Iterator[RunResult]:
    """Stream the ensemble in run order, each run reduced to its FeatureVector.

    Each run streams into a FeatureStream, which stops it at its
    breakdown onset.  A run that diverges before then comes back with
    value None and its error set.
    """
    sim_cfg = config.sim_config()
    return iter_ensemble(sim_cfg, config.n_runs, config.d_min_sampler(),
                         batch_size=config.batch_size, threads=config.threads,
                         consumer=_feature_streams(config, sim_cfg, config.detector()))


def feature_rows(results: Iterable[RunResult]) -> List[dict]:
    """features.csv rows of ensemble results, in the form read_features_csv returns."""
    rows = []
    for res in results:
        fv = res.value
        if fv is None:
            slopes, label, valid = [math.nan] * len(FEATURE_NAMES), False, False
        else:
            slopes = [getattr(fv, name) for name in FEATURE_NAMES]
            label, valid = fv.label, fv.valid
        rows.append({"run_id": res.run_index, "d_min": res.d_min, "slopes": slopes,
                     "label": label, "valid": valid})
    return rows


# d_min is %.17g, or empty for an ensemble drawn without a d_min sampler
FEATURES_CSV = (("run_id", "%d"), ("d_min", "%s"), *((n, "%.17g") for n in FEATURE_NAMES),
                ("label", "%d"), ("valid", "%d"))
FEATURES_COLUMNS = tuple(name for name, _ in FEATURES_CSV)
FEATURES_HEADER = ",".join(FEATURES_COLUMNS)


def write_features_csv(rows: Sequence[dict], path) -> None:
    write_csv(path, FEATURES_CSV, (
        (row["run_id"], "" if row["d_min"] is None else "%.17g" % row["d_min"],
         *row["slopes"], row["label"], row["valid"]) for row in rows))


def read_features_csv(path):
    """Rows of FEATURES_COLUMNS, the slopes as one list, from a features CSV.

    An unreadable file, a header other than FEATURES_HEADER, and a row
    that does not hold one parseable value per column (label and valid
    0 or 1, and finite slopes where valid is 1) raise ConfigError,
    naming the file and, where there is one, the line.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read features {path}: {exc}") from exc
    header = lines[0].strip() if lines else ""
    if header != FEATURES_HEADER:
        raise ConfigError(f"{path} line 1: expected the features CSV header, got {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != len(FEATURES_COLUMNS):
            raise ConfigError(f"{path} line {lineno}: expected {len(FEATURES_COLUMNS)} "
                              f"columns, got {len(parts)}")
        if not {parts[-2], parts[-1]} <= {"0", "1"}:
            raise ConfigError(f"{path} line {lineno}: label and valid must be 0 or 1")
        try:
            row = {
                "run_id": int(parts[0]),
                "d_min": float(parts[1]) if parts[1] else None,
                "slopes": [float(v) for v in parts[2:-2]],
                "label": parts[-2] == "1",
                "valid": parts[-1] == "1",
            }
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
        if row["valid"] and not all(math.isfinite(v) for v in row["slopes"]):
            raise ConfigError(f"{path} line {lineno}: a valid row needs finite slopes")
        rows.append(row)
    return rows


def dataset_from_rows(rows: Sequence[dict]) -> Dataset:
    """The valid runs among features.csv rows (see feature_rows, read_features_csv)."""
    rows = [r for r in rows if r["valid"]]
    X = np.array([r["slopes"] for r in rows], dtype=float)
    X = X.reshape(len(rows), len(FEATURE_NAMES))
    y = np.array([r["label"] for r in rows], dtype=bool)
    ids = np.array([r["run_id"] for r in rows], dtype=np.int64)
    return Dataset(X=X, y=y, run_ids=ids)


def exclusion_table(results: Sequence[RunResult]) -> Dict[str, List[int]]:
    """Invalid runs partitioned by the first failing requirement."""
    table = {"divergence": [], "too_few_cycles": [], "too_few_jumps": []}
    for res in results:
        if res.error is not None:
            table["divergence"].append(res.run_index)
        elif not res.value.valid:
            table[res.value.exclusion_reason].append(res.run_index)
    return table


# --------------------------------------------------------------------------
# classification stage and report
# --------------------------------------------------------------------------

def classify_dataset(data: Dataset, config: ExperimentConfig) -> dict:
    """CV and both importances for one dataset.

    The full-feature fold models are fitted once and shared by the
    reported CV, the drop-column baseline and the permutation analysis;
    fold fits are spread over config.threads worker processes.
    """
    folds = stratified_kfold(data.y, config.k_folds,
                             derive_seed(config.master_seed, "folds"))
    cv = cross_validate(data, folds, config.svm_hyperparams(), workers=config.threads)
    drop = drop_column_importance(data, cv, workers=config.threads)
    perm = permutation_importance(data, cv, derive_seed(config.master_seed, "importance"),
                                  repeats=config.permutation_repeats)
    fits = [fm.model for fm in cv.fold_models]
    return {"cv": {"scores": cv.scores.tolist(), "mean": cv.mean,
                   "iterations": [fit.n_iter_run_ for fit in fits],
                   "gaps": [fit.gap_ for fit in fits]},
            "drop_column": drop, "permutation": perm}


def pca_block(data: Dataset, config: ExperimentConfig, out_dir: Path,
              with_decision_line: bool) -> dict:
    scaler = FeatureScaler().fit(data.X)
    X_std = scaler.transform(data.X)
    coords, explained, components = pca_2d(X_std)
    coords_path = out_dir / "pca_coords.csv"
    write_csv(coords_path,
              (("run_id", "%d"), ("pc1", "%.17g"), ("pc2", "%.17g"), ("label", "%d")),
              zip(data.run_ids, *coords.T, data.y))
    block = {"coords_path": coords_path.name,
             "explained_variance": explained.tolist()}
    if with_decision_line:
        model = config.svm_hyperparams()().fit(X_std, data.y)
        coef_pc = components @ model.coef_
        intercept = float(model.intercept_ + model.coef_ @ X_std.mean(axis=0))
        block["decision_line"] = {"coef_pc": coef_pc.tolist(), "intercept": intercept}
    return block


def add_classification(report: dict, data: Dataset, config: ExperimentConfig,
                       out_dir: Path) -> None:
    """Fill report's cv, drop_column, permutation and pca entries.

    With fewer than 2 valid runs all four stay null.  When a class has
    fewer than k_folds members or a fold has a constant feature column,
    only the PCA (without decision line) is filled, unless the column is
    constant over all runs.  The reason is appended to report["warnings"].
    """
    report.update(cv=None, drop_column=None, permutation=None, pca=None)
    if data.n_samples < 2:
        reason = "fewer than 2 valid runs"
    else:
        try:
            report.update(classify_dataset(data, config))
            reason = None
        except (StratificationError, DegenerateFeatureError) as exc:
            reason = str(exc)
        try:
            report["pca"] = pca_block(data, config, out_dir,
                                      with_decision_line=reason is None)
        except DegenerateFeatureError:
            pass  # constant in every fold too, so reason already says why
    if reason is not None:
        report["warnings"].append(f"classification skipped: {reason}")
        _log(f"warning: classification skipped: {reason}")


def write_report(report: dict, path) -> None:
    """Write strict JSON; a NaN or inf raises ValueError before the file is opened."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def run_experiment(config: ExperimentConfig) -> dict:
    """Full pipeline: ensemble, features, classification, importances, PCA, figures (d, e)."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _log(f"simulating {config.n_runs} runs "
         f"(at most {config.n_runs * config.sim_config().n_steps} steps total)")
    results = list(run_feature_pipeline(config))
    rows = feature_rows(results)
    write_features_csv(rows, out_dir / "features.csv")

    data = dataset_from_rows(rows)
    # every valid run's feature values, long form, for class-conditional plots
    write_csv(out_dir / "fig_class_distributions.csv",
              (("feature", "%s"), ("label", "%d"), ("run_id", "%d"), ("value", "%.17g")),
              ((name, lab, rid, value) for name, column in zip(FEATURE_NAMES, data.X.T)
               for rid, value, lab in zip(data.run_ids, column, data.y)))
    n_break = int(data.y.sum())
    exclusions = exclusion_table(results)
    report = {
        "provenance": {
            "package": "cycleews",
            "version": __version__,
            "master_seed": config.master_seed,
            "config_hash": config.config_hash(),
            "config": json.loads(json.dumps(
                {f.name: getattr(config, f.name) for f in fields(config)
                 if f.name not in config.EXECUTION_FIELDS},
                default=list)),
        },
        "n_runs": config.n_runs,
        "n_valid": data.n_samples,
        "class_counts": {"breakdown": n_break,
                         "no_breakdown": data.n_samples - n_break},
        "exclusions": exclusions,
        "features_path": "features.csv",
        "warnings": [f"run {run_id} diverged and was excluded"
                     for run_id in exclusions["divergence"]],
    }
    add_classification(report, data, config, out_dir)
    write_report(report, out_dir / "report.json")
    _log(f"wrote {out_dir / 'report.json'}")
    return report


# --------------------------------------------------------------------------
# auxiliary feature exports (cycle and phase series)
# --------------------------------------------------------------------------

def run_features_command(config: ExperimentConfig) -> List[RunResult]:
    """features.csv plus auxiliary per-run cycle and phase series CSVs."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = list(run_feature_pipeline(config))
    ok = [(res.run_index, res.value) for res in results if res.error is None]
    write_csv(out_dir / "cycles.csv",
              (("run_id", "%d"), ("cycle_index", "%d"), ("var", "%.17g"), ("ac1", "%.17g"),
               ("sample_count", "%d")),
              ((run, c.cycle_index, c.var, c.ac1, c.sample_count) for run, fv in ok
               for c in fv.cycles))
    write_csv(out_dir / "phases.csv",
              (("run_id", "%d"), ("jump_ordinal", "%d"), ("jump_index", "%d"), ("phi", "%.17g"),
               ("delta", "%.17g")),
              ((run, j, *jump) for run, fv in ok for j, jump in
               enumerate(zip(fv.phases.jump_index, fv.phases.phi, fv.phases.delta))))
    write_features_csv(feature_rows(results), out_dir / "features.csv")
    return results


def classify_from_csv(config: ExperimentConfig, features_path) -> dict:
    """Classification stage driven by a previously written features CSV."""
    data = dataset_from_rows(read_features_csv(features_path))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"n_valid": data.n_samples, "warnings": []}
    add_classification(report, data, config, out_dir)
    write_report(report, out_dir / "report.json")
    return report


# --------------------------------------------------------------------------
# figure protocols
# --------------------------------------------------------------------------

def run_figures(config: ExperimentConfig) -> None:
    """Emit figure data (a)-(c): breakdown series and per-level trends; experiment has (d, e)."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    det = config.detector()

    # (a) single-run breakdown time series under a deep ramp
    onset_cfg, piece_cfg = config.figure_sim_configs()
    seed = derive_seed(config.master_seed, "figure-breakdown")
    traj = simulate(onset_cfg, seed)
    segset = detect_jumps(traj, det)
    onset = label_breakdown(segset, config.forcing_period, det)
    write_trajectory_csv(traj, onset_cfg, out_dir / "fig_breakdown_timeseries.csv")
    write_events_csv(segset, out_dir / "fig_breakdown_events.csv")
    onset_time = None if onset is None else float(segset.boundaries[onset] * segset.dt)
    write_report({"seed": seed, "d_min": config.figure_d_min,
                  "breakdown": onset is not None, "onset_time": onset_time},
                 out_dir / "fig_breakdown_meta.json")

    # (b, c) piecewise-constant level protocol; each run's stream keeps
    # every segment of its path
    schedule = piece_cfg.amplitude_schedule
    levels = schedule.levels
    streams = _feature_streams(config, piece_cfg, config.level_detector())
    cycles, jumps = [], []  # (run_id, level, d_a, ordinal, *values) rows
    for res in iter_ensemble(piece_cfg, config.figure_runs, batch_size=config.batch_size,
                             threads=config.threads, consumer=streams):
        if res.error is not None:
            raise res.error
        phases = res.value.phases
        # segment boundary times: the path's two ends and every jump between
        t_bounds = np.concatenate(([0], phases.jump_index, [piece_cfg.n_steps])) \
            * piece_cfg.dt
        for c in res.value.cycles:
            mid = 0.5 * (t_bounds[2 * c.cycle_index] + t_bounds[2 * c.cycle_index + 2])
            lv = int(schedule.level_index(mid))
            cycles.append((res.run_index, lv, levels[lv], c.cycle_index, c.var, c.ac1))
        for j, (lv, delta) in enumerate(zip(schedule.level_index(t_bounds[1:-1]),
                                            phases.delta)):
            jumps.append((res.run_index, int(lv), levels[lv], j, delta))
    write_csv(out_dir / "fig_level_cycle_stats.csv",
              (("run_id", "%d"), ("level", "%d"), ("d_a", "%.17g"), ("cycle_index", "%d"),
               ("var", "%.17g"), ("ac1", "%.17g")), cycles)
    write_csv(out_dir / "fig_level_jump_phases.csv",
              (("run_id", "%d"), ("level", "%d"), ("d_a", "%.17g"), ("jump_ordinal", "%d"),
               ("delta", "%.17g")), jumps)

    def by_level(rows):
        """Each level in rows with the columns of its rows, in run order."""
        return [(lv, tuple(zip(*(row for row in rows if row[1] == lv))))
                for lv in sorted({row[1] for row in rows})]

    write_csv(out_dir / "fig_level_cycle_means.csv",
              (("level", "%d"), ("d_a", "%.17g"), ("mean_var", "%.17g"), ("mean_ac1", "%.17g"),
               ("n_cycles", "%d")),
              ((lv, levels[lv], np.mean(c[4]), np.mean(c[5]), len(c[4]))
               for lv, c in by_level(cycles)))
    write_csv(out_dir / "fig_level_phase_stats.csv",
              (("level", "%d"), ("d_a", "%.17g"), ("circ_mean", "%.17g"), ("circ_std", "%.17g"),
               ("n_jumps", "%d")),
              ((lv, levels[lv], circular_mean(c[4]), circular_std(c[4]), len(c[4]))
               for lv, c in by_level(jumps)))
    _log(f"figure data written to {out_dir}")


# --------------------------------------------------------------------------
# geometry diagnostics
# --------------------------------------------------------------------------

def measured_delay_phase(config: SimConfig, floquet: FloquetEstimate,
                         det: DetectorConfig) -> Optional[float]:
    """Mean fold-to-jump delay phase over the jumps of two periods of floquet.orbit.

    The orbit of config, found periodic by floquet_multiplier, is laid
    twice on the grid t = i dt, i = 0 .. 2 steps; the chatter rules
    drop a jump within n_min steps of either end of those two periods.
    One JumpStream is fed the orbit twice, orbit[:-1] and then orbit, so
    no two-period window is built: beside the orbit it holds at most two
    threshold masks of a byte a sample.  None when no jump is detected.
    """
    d_a, orbit = config.amplitude_schedule.value, floquet.orbit
    stream = JumpStream(det, 2 * (len(orbit) - 1))
    for path in (orbit[:-1], orbit):
        stream.feed(path)
    delays = [jump_phase_decomposition(t_j, d_a, config.omega).phi_delay
              for t_j in stream.segments(config.dt).jump_times]
    return float(np.mean(delays)) if delays else None


def run_diagnose(config: ExperimentConfig, d_a_values: Sequence[float],
                 periods: Sequence[float]) -> List[dict]:
    """Fold info, sweep rate, log Floquet multiplier, and measured delay per grid point.

    Every grid point is checked before any is computed: each d_a must be
    finite and > 0, each period a whole number of dt steps, at least 2,
    and the two period paths a point holds, 16 * (steps + 1) bytes,
    within physical memory, else ConfigError.  A point holds the Floquet
    search's last period and the one before it; the delay is read off
    the last, and the point's FloquetEstimate goes once its row is
    built.  A failed Floquet search nulls log_floquet and the delay.
    """
    grid = []
    for d_a in d_a_values:
        for period in periods:
            try:
                require(math.isfinite(d_a) and d_a > 0.0, "d_a must be finite and > 0")
                grid.append(SimConfig(dt=config.dt, t_total=period, forcing_period=period,
                                      amplitude_schedule=ConstantAmplitude(d_a),
                                      sigma=0.0, x0=config.x0))
                require(grid[-1].n_steps >= 2, "period must span at least 2 steps of dt")
                paths = 16 * (grid[-1].n_steps + 1)
                require(paths <= physical_memory(),
                        f"two period paths of {paths} bytes exceed physical memory")
            except ValueError as exc:
                raise ConfigError(f"diagnose grid point d_a = {d_a}, period = {period}: "
                                  f"{exc}") from exc
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sim_cfg in grid:
        d_a = sim_cfg.amplitude_schedule.value
        log_mu = delay = None
        if d_a > FOLD_FORCING_VALUE:
            try:
                floquet = floquet_multiplier(sim_cfg)
            except ConvergenceError:
                pass
            else:
                log_mu = floquet.log_multiplier
                delay = measured_delay_phase(sim_cfg, floquet, config.detector())
                del floquet  # so the next point's search holds only its own two periods
        row = diagnostics_record(d_a, sim_cfg.omega, log_floquet=log_mu)
        row["forcing_period"] = sim_cfg.forcing_period
        row["measured_delay_phase"] = delay
        rows.append(row)
    write_report({"rows": rows}, out_dir / "diagnostics.json")
    _log(f"wrote {out_dir / 'diagnostics.json'}")
    return rows


def simulate_one(config: ExperimentConfig, run_index: int = 0,
                 run_seed: Optional[int] = None) -> Trajectory:
    """One ensemble member (ramp d_min drawn exactly as the ensemble would).

    A run_index or run_seed outside [0, 2**64) raises ConfigError before
    anything is simulated or written (run seeds derive from 64-bit labels).
    """
    if not 0 <= run_index < 2 ** 64:
        raise ConfigError(f"run index must lie in [0, 2**64), got {run_index}")
    if run_seed is not None and not 0 <= run_seed < 2 ** 64:
        raise ConfigError(f"run seed must lie in [0, 2**64), got {run_seed}")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = run_seed if run_seed is not None else run_seed_for(config.master_seed, run_index)
    d_min = draw_d_min(seed, config.d_min_sampler())
    sched = LinearRampAmplitude(config.d_max, d_min)
    sim_cfg = config.sim_config(schedule=sched)
    traj = simulate(sim_cfg, seed)
    write_trajectory_csv(traj, sim_cfg, out_dir / "trajectory.csv")
    write_events_csv(detect_jumps(traj, config.detector()), out_dir / "events.csv")
    _log(f"wrote {out_dir / 'trajectory.csv'} (seed {seed}, d_min {d_min:.6g})")
    return traj

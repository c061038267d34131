"""Cycle-aware early-warning indicators for slowly forced bistable oscillators.

The names below load on first use (PEP 562), so ``import cycleews`` imports
neither numpy nor any submodule and leaves the caller's BLAS threading alone.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "sim": ("ConstantAmplitude", "DivergenceError", "LinearRampAmplitude",
            "PiecewiseConstantAmplitude", "SimConfig", "Trajectory",
            "UniformSampler", "simulate"),
    "events": ("DetectorConfig", "SegmentSet", "detect_jumps", "label_breakdown",
               "truncate_at_onset"),
    "features": ("FEATURE_NAMES", "FeatureConfig", "FeatureVector", "circular_std",
                 "extract_features", "jump_phases", "ols_slope", "rolling_circ_std",
                 "wrap_angle"),
    "geometry": ("FloquetEstimate", "FoldInfo", "floquet_multiplier", "fold_info",
                 "fold_sweep_rate", "hazard_window_width", "jump_phase_decomposition",
                 "predicted_delay_phase"),
    "classify": ("Dataset", "FeatureScaler", "LinearHingeSVM", "balanced_accuracy",
                 "cross_validate", "drop_column_importance", "pca_2d",
                 "permutation_importance", "stratified_kfold"),
    "experiment": ("ConfigError", "ExperimentConfig", "load_config", "run_experiment"),
    "cli": ("main",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from cycleews import sim`
    # falls back to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

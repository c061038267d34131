"""Cycle-aware early-warning indicators for slowly forced bistable oscillators."""

__version__ = "0.1.0"

from .sim import (  # noqa: E402,F401
    ConstantAmplitude, DivergenceError, LinearRampAmplitude,
    PiecewiseConstantAmplitude, SimConfig, Trajectory,
    UniformSampler, amplitude_at, drift, simulate,
)
from .events import (  # noqa: F401
    DetectorConfig, SegmentSet, detect_jumps, label_breakdown, truncate_at_onset,
)
from .features import (  # noqa: F401
    FEATURE_NAMES, FeatureConfig, FeatureVector, circular_std, cycle_stats,
    extract_features, jump_phases, ols_slope, rolling_circ_std, wrap_angle,
)
from .geometry import (  # noqa: F401
    FloquetEstimate, FoldInfo, critical_manifold_roots, floquet_multiplier,
    fold_info, fold_sweep_rate, hazard_window_width, jump_phase_decomposition,
    predicted_delay_phase,
)
from .classify import (  # noqa: F401
    Dataset, FeatureScaler, LinearHingeSVM, SvmHyperParams,
    balanced_accuracy, cross_validate, drop_column_importance, pca_2d,
    permutation_importance, stratified_kfold,
)
from .experiment import (  # noqa: F401
    ConfigError, ExperimentConfig, load_config, run_experiment,
)

"""Cycle-wise fluctuation statistics, jump-phase statistics, and trend features.

Between-jump segments are buffered, polynomial-detrended, and paired
into forcing cycles; each cycle contributes a variance and a lag-1
autocorrelation of the concatenated residuals.  Jump times map to
signed phase offsets from the nearest forcing extremum, summarized by
a rolling circular standard deviation.  Each run is compressed into
four OLS trend slopes (variance, AC1, jump phase, phase dispersion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .base import ParamsMixin, require
from .events import SegmentSet
from .sim import Trajectory

TWO_PI = 2.0 * math.pi
MIN_RESULTANT = 1.0e-12  # clamp for degenerate phasor means

FEATURE_NAMES = ("slope_var", "slope_ac1", "slope_jump_phase", "slope_phase_std")


@dataclass(frozen=True)
class FeatureConfig:
    p_buf: float = 0.05
    detrend_degree: int = 3
    window_w: int = 16
    min_cycles: int = 5
    min_jumps: int = 5

    def __post_init__(self):
        require(0.0 <= self.p_buf < 0.5, "p_buf must lie in [0, 0.5)")
        require(self.detrend_degree >= 0, "detrend_degree must be >= 0")
        require(self.window_w >= 2, "window_w must be >= 2")
        require(self.min_cycles >= 1 and self.min_jumps >= 1,
                "minimum counts must be >= 1")


@dataclass(frozen=True)
class CycleStats:
    cycle_index: int
    var: float
    ac1: float
    sample_count: int


@dataclass(frozen=True)
class PhaseSeries:
    """Per-jump forcing phases and offsets from the nearest extremum."""

    jump_index: np.ndarray   # grid index of each jump
    phi: np.ndarray          # forcing phase in [0, 2pi)
    delta: np.ndarray        # wrapped offset from nearest extremum, (-pi, pi]
    eta: np.ndarray          # +1 nearest extremum is a maximum, -1 a minimum

    @property
    def n_jumps(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class FeatureVector:
    slope_var: float
    slope_ac1: float
    slope_jump_phase: float
    slope_phase_std: float
    label: bool
    valid: bool
    exclusion_reason: Optional[str] = None
    n_cycles: int = 0
    n_jumps: int = 0
    # the per-cycle and per-jump series the slopes were fitted to
    cycles: Tuple[CycleStats, ...] = field(default=(), compare=False, repr=False)
    phases: Optional[PhaseSeries] = field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------
# angles
# --------------------------------------------------------------------------

def wrap_angle(theta):
    """Principal-value wrap of an angle (or array) into (-pi, pi]."""
    w = np.fmod(theta, TWO_PI)
    w = np.where(w > math.pi, w - TWO_PI, w)
    w = np.where(w <= -math.pi, w + TWO_PI, w)
    if np.ndim(theta) == 0:
        return float(w)
    return w


def assign_extremum(phi):
    """Nearest forcing-extremum phase for phi in [0, 2pi).

    Returns (delta, eta): the signed wrapped offset and +1/-1 for
    maximum (phase 0) / minimum (phase pi).  An exact tie at distance
    pi/2 resolves toward the extremum earlier in time, i.e. delta = +pi/2.
    """
    phi = np.asarray(phi, dtype=float)
    d_max = np.abs(wrap_angle(phi))
    d_min = np.abs(wrap_angle(phi - math.pi))
    delta = np.where(d_max < d_min, wrap_angle(phi), wrap_angle(phi - math.pi))
    eta = np.where(d_max < d_min, 1, -1)
    tie = d_max == d_min
    if np.any(tie):
        behind_is_max = np.asarray(wrap_angle(phi)) > 0
        delta = np.where(tie, math.pi / 2.0, delta)
        eta = np.where(tie, np.where(behind_is_max, 1, -1), eta)
    return delta, eta.astype(np.int8)


# --------------------------------------------------------------------------
# detrending and cycle statistics
# --------------------------------------------------------------------------

def detrend_segment(samples, fcfg: FeatureConfig):
    """Buffer and polynomial-detrend one segment.

    Drops floor(p_buf * n) samples from each end, fits a least-squares
    polynomial of the configured degree against the local sample index,
    and returns interior - fit.  Returns None when too few interior
    samples remain (the segment is skipped, not fatal).
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    b = int(fcfg.p_buf * n)
    interior = samples[b:n - b] if b > 0 else samples
    if len(interior) < fcfg.detrend_degree + 2:
        return None
    idx = np.arange(len(interior), dtype=float)
    fit = np.polynomial.Polynomial.fit(idx, interior, fcfg.detrend_degree)
    return interior - fit(idx)


def sample_variance(y: np.ndarray) -> float:
    d = y - y.mean()
    return float((d * d).mean())


def lag1_autocorrelation(y: np.ndarray) -> float:
    """AC1 = sum (y_i - ybar)(y_{i+1} - ybar) / sum (y_i - ybar)^2."""
    d = y - y.mean()
    den = float((d * d).sum())
    if den == 0.0:
        return math.nan
    return float((d[:-1] * d[1:]).sum() / den)


def cycle_stats(segset: SegmentSet, traj: Trajectory,
                fcfg: FeatureConfig) -> List[CycleStats]:
    """Variance and AC1 per forcing cycle (pairs of consecutive segments).

    Pairing starts at the first retained segment; a trailing unpaired
    segment is dropped.  Cycles with a skipped segment or exactly zero
    residual variance are omitted.
    """
    residuals = []
    for k in range(segset.n_segments):
        i0, i1 = segset.segment_bounds(k)
        residuals.append(detrend_segment(traj.x[i0:i1], fcfg))
    out = []
    for ci in range(len(residuals) // 2):
        a, b = residuals[2 * ci], residuals[2 * ci + 1]
        if a is None or b is None:
            continue
        y = np.concatenate([a, b])
        var = sample_variance(y)
        if var == 0.0:
            continue
        out.append(CycleStats(ci, var, lag1_autocorrelation(y), len(y)))
    return out


def ols_slope(values) -> float:
    """Least-squares slope of values against their 0-based integer index."""
    y = np.asarray(values, dtype=float)
    require(len(y) >= 2, "ols_slope needs at least 2 values")
    x = np.arange(len(y), dtype=float)
    xc = x - x.mean()
    return float((xc * y).sum() / (xc * xc).sum())


# --------------------------------------------------------------------------
# phase statistics
# --------------------------------------------------------------------------

def jump_phases(segset: SegmentSet, omega: float) -> PhaseSeries:
    """Forcing phase and extremum offset for every real jump (endpoints excluded)."""
    times = segset.jump_times
    phi = np.mod(omega * times, TWO_PI)
    delta, eta = assign_extremum(phi)
    return PhaseSeries(jump_index=segset.jump_indices.copy(),
                       phi=np.atleast_1d(phi),
                       delta=np.atleast_1d(np.asarray(delta, dtype=float)),
                       eta=np.atleast_1d(eta))


def mean_resultant_length(deltas) -> float:
    z = np.exp(1j * np.asarray(deltas, dtype=float))
    return float(np.abs(z.mean()))


def circular_std(deltas) -> float:
    """sqrt(-2 log R) with R the mean resultant length, clamped below at 1e-12."""
    deltas = np.asarray(deltas, dtype=float)
    require(len(deltas) >= 1, "circular_std needs a non-empty window")
    r = np.clip(mean_resultant_length(deltas), MIN_RESULTANT, 1.0)
    return float(math.sqrt(-2.0 * math.log(r)))


def circular_mean(deltas) -> float:
    z = np.exp(1j * np.asarray(deltas, dtype=float))
    return float(np.angle(z.mean()))


def rolling_circ_std(deltas, window_w: int) -> np.ndarray:
    """Right-aligned rolling circular std; value j summarizes jumps j-W+1..j."""
    deltas = np.asarray(deltas, dtype=float)
    n = len(deltas)
    if n < window_w:
        return np.empty(0)
    return np.array([circular_std(deltas[j - window_w + 1:j + 1])
                     for j in range(window_w - 1, n)])


# --------------------------------------------------------------------------
# per-run trend features
# --------------------------------------------------------------------------

def extract_features(traj: Trajectory, segset: SegmentSet, fcfg: FeatureConfig,
                     omega: float) -> FeatureVector:
    """Four trend slopes for one run; segset must already be truncated.

    A run is invalid when fewer than min_cycles cycles are available,
    fewer than min_jumps jumps, or fewer than two rolling dispersion
    windows (the minimum for a defined slope); the first failed
    requirement is recorded.
    """
    label = segset.breakdown
    cycles = tuple(cycle_stats(segset, traj, fcfg))
    phases = jump_phases(segset, omega)
    n_cycles = len(cycles)
    n_jumps = phases.n_jumps

    def invalid(reason):
        return FeatureVector(math.nan, math.nan, math.nan, math.nan,
                             label=label, valid=False, exclusion_reason=reason,
                             n_cycles=n_cycles, n_jumps=n_jumps,
                             cycles=cycles, phases=phases)

    if n_cycles < fcfg.min_cycles:
        return invalid("too_few_cycles")
    if n_jumps < fcfg.min_jumps:
        return invalid("too_few_jumps")
    rolled = rolling_circ_std(phases.delta, fcfg.window_w)
    if len(rolled) < 2:
        return invalid("too_few_jumps")

    return FeatureVector(
        slope_var=ols_slope([c.var for c in cycles]),
        slope_ac1=ols_slope([c.ac1 for c in cycles]),
        slope_jump_phase=ols_slope(phases.delta),
        slope_phase_std=ols_slope(rolled),
        label=label, valid=True,
        n_cycles=n_cycles, n_jumps=n_jumps, cycles=cycles, phases=phases)


class TrendFeatureExtractor(ParamsMixin):
    """Estimator-style wrapper producing FeatureVector records."""

    def __init__(self, p_buf: float = 0.05, detrend_degree: int = 3,
                 window_w: int = 16, min_cycles: int = 5, min_jumps: int = 5):
        self.p_buf = p_buf
        self.detrend_degree = detrend_degree
        self.window_w = window_w
        self.min_cycles = min_cycles
        self.min_jumps = min_jumps

    def _config(self) -> FeatureConfig:
        return FeatureConfig(self.p_buf, self.detrend_degree, self.window_w,
                             self.min_cycles, self.min_jumps)

    def fit(self, traj=None, y=None):
        self._config()
        return self

    def transform(self, traj: Trajectory, segset: SegmentSet, omega: float) -> FeatureVector:
        return extract_features(traj, segset, self._config(), omega)

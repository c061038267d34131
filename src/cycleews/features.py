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

from .base import require
from .events import DetectorConfig, JumpStream, SegmentSet
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
        require(self.min_cycles >= 2, "min_cycles must be >= 2 (a slope needs two cycles)")
        require(self.min_jumps >= 1, "min_jumps must be >= 1")


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

    Drops floor(p_buf * n) samples from each end and returns the residual
    of the least-squares polynomial fit of the configured degree against
    the local index, or None when fewer than deg + 2 samples remain (the
    segment is skipped, not fatal).  On the symmetric grid u = -1 + 2i/(n-1)
    the discrete orthogonal polynomials p_0 = 1, p_1 = u and
    p_{k+1} = u p_k - (|p_k|^2 / |p_{k-1}|^2) p_{k-1} (Forsythe 1957) span
    the fit, so the residual is y - mean(y) - sum_{k=1..deg} <y,p_k>/|p_k|^2 p_k,
    with no linear solve and no BLAS call (see below).  It equals the
    residual of numpy's Polynomial.fit to rounding.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    b = int(fcfg.p_buf * n)
    y = samples[b:n - b] if b > 0 else samples
    n, deg = len(y), fcfg.detrend_degree
    if n < deg + 2:
        return None
    u = -1.0 + (2.0 / (n - 1)) * np.arange(n, dtype=float)
    residual = y - y.mean()
    p_prev, p, sq_prev = 1.0, u, float(n)
    # Inner products are (a * b).sum(), never np.dot, @ or np.linalg: BLAS
    # threads in each forked ensemble worker oversubscribe the cores (a 256-run
    # experiment at 2 workers on 2 cores took 2.5-12x the wall time).
    for k in range(deg):
        if k:
            p_prev, p, sq_prev = p, u * p - (sq / sq_prev) * p_prev, sq
        sq = (p * p).sum()
        residual -= ((y * p).sum() / sq) * p
    return residual


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
    cycles = (_cycle(ci, residuals[2 * ci], residuals[2 * ci + 1])
              for ci in range(len(residuals) // 2))
    return [c for c in cycles if c is not None]


def _cycle(ci: int, a, b) -> Optional[CycleStats]:
    """Statistics of cycle ci from its two residual series; None if omitted."""
    if a is None or b is None:
        return None
    y = np.concatenate([a, b])
    var = sample_variance(y)
    if var == 0.0:
        return None
    return CycleStats(ci, var, lag1_autocorrelation(y), len(y))


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
    return trend_features(tuple(cycle_stats(segset, traj, fcfg)),
                          jump_phases(segset, omega), segset.breakdown, fcfg)


def trend_features(cycles: Tuple[CycleStats, ...], phases: PhaseSeries, label: bool,
                   fcfg: FeatureConfig) -> FeatureVector:
    """The FeatureVector of a run's cycle and jump-phase series (see extract_features)."""
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


class FeatureStream:
    """One run's FeatureVector from its path fed in consecutive chunks.

    Gives the bits of detect_jumps, label_breakdown, truncate_at_onset
    and extract_features on the whole path, while holding only the
    samples of segments that are not yet final.  A segment is final once
    its right boundary is (see events.JumpStream.n_final); it is then
    checked against the breakdown threshold and, if not longer, detrended
    and paired into its cycle.  The breakdown onset is the first segment
    longer than breakdown_factor * t_f.  It is known before the path ends
    once the open segment starts at a final boundary and already holds
    more samples than that; since merges only lengthen segments, no
    later sample can change it.  feed then returns True: the run needs
    no more samples.
    """

    def __init__(self, det: DetectorConfig, fcfg: FeatureConfig, t_f: float,
                 omega: float, dt: float, n_steps: int):
        self.fcfg = fcfg
        self.omega = omega
        self.dt = dt
        self.threshold = det.breakdown_factor * t_f
        self.jumps = JumpStream(det, n_steps)
        self.onset: Optional[int] = None
        self.done = False
        self._x = np.empty(0)  # the path from sample _base on
        self._base = 0
        self._detrended = 0  # segments detrended so far, all final
        self._pending = None  # residual of an even segment awaiting its pair
        self._cycles: List[CycleStats] = []

    @staticmethod
    def held_samples(det: DetectorConfig, t_f: float, dt: float, n_steps: int,
                     chunk: int) -> int:
        """At most how many samples one stream holds while fed chunks of `chunk`.

        Path and pending residual each span at most a segment that is
        not too long, and the path also the top boundary's n_min steps
        and one chunk.
        """
        ratio = det.breakdown_factor * t_f / dt
        longest = n_steps + 1 if ratio >= n_steps else math.floor(ratio) + 1
        return 2 * longest + det.n_min + chunk

    def feed(self, x) -> bool:
        """Take the next samples of the path; True once the run needs no more."""
        require(not self.done, "the run's features are complete")
        keep = self.jumps.boundaries[self._detrended] - self._base
        self._x = np.concatenate((self._x[keep:], x))
        self._base += keep
        self.jumps.feed(self._x[len(self._x) - len(x):])
        self._advance()
        return self.done

    def _advance(self) -> None:
        b = self.jumps.boundaries
        n_final = self.jumps.n_final()
        for i in range(self._detrended, len(b) - 1):
            # a segment can only grow, so one too long now stays too long
            if (b[i + 1] - b[i]) * self.dt > self.threshold:
                self._stop(i)
                return
            if i + 1 < n_final:
                self._detrend(i)
        if self.jumps.finished:
            self._stop(None)
        elif n_final == len(b) and (self.jumps.seen - b[-1]) * self.dt > self.threshold:
            self._stop(len(b) - 1)

    def _detrend(self, i: int) -> None:
        b = self.jumps.boundaries
        residual = detrend_segment(self._x[b[i] - self._base:b[i + 1] - self._base],
                                   self.fcfg)
        if i % 2 == 0:
            self._pending = residual
        else:
            cycle = _cycle(i // 2, self._pending, residual)
            if cycle is not None:
                self._cycles.append(cycle)
            self._pending = None
        self._detrended = i + 1

    def _stop(self, onset: Optional[int]) -> None:
        self.onset = onset
        kept = len(self.jumps.boundaries) - 1 if onset is None else onset
        for i in range(self._detrended, kept):
            self._detrend(i)
        self._x = self._pending = None
        self.done = True

    def segments(self) -> SegmentSet:
        """The truncated SegmentSet: truncate_at_onset(label_breakdown(...))."""
        require(self.done, "the run's features are not complete")
        if self.onset is None:
            return self.jumps.segments(self.dt)
        k = self.onset
        artificial = np.zeros(k + 1, dtype=bool)
        artificial[0] = True
        return SegmentSet(boundaries=np.array(self.jumps.boundaries[:k + 1], dtype=np.int64),
                          artificial=artificial,
                          wells=np.array(self.jumps.wells[:k], dtype=np.int8),
                          dt=self.dt, breakdown=True)

    def result(self) -> FeatureVector:
        segset = self.segments()
        return trend_features(tuple(self._cycles), jump_phases(segset, self.omega),
                              segset.breakdown, self.fcfg)

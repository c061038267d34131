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
from .events import DetectorConfig, JumpStream
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


@dataclass(frozen=True)
class FeatureVector:
    slope_var: float
    slope_ac1: float
    slope_jump_phase: float
    slope_phase_std: float
    label: bool
    valid: bool
    exclusion_reason: Optional[str] = None
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
    the local index, or None when fewer than deg + 2 samples remain or a
    squared norm |p_k|^2 below is not a positive normal float (the segment
    is skipped, not fatal).  On the symmetric grid u = -1 + 2i/(n-1)
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
    tiny = np.finfo(float).tiny
    # Inner products are (a * b).sum(), never np.dot, @ or np.linalg: numpy's
    # pairwise sum gives the same bits on every build, where a BLAS dot's
    # order depends on its kernel, and a library caller's process may run
    # BLAS threads that would oversubscribe the cores beside forked workers
    # (a 256-run experiment at 2 workers on 2 cores once took 2.5-12x the
    # wall time).
    for k in range(deg):
        if k:
            p_prev, p, sq_prev = p, u * p - (sq / sq_prev) * p_prev, sq
        sq = (p * p).sum()
        if not sq >= tiny:  # underflowed (on 700 samples from degree 495): skip
            return None
        residual -= ((y * p).sum() / sq) * p
    return residual


def _cycle(ci: int, a, b) -> Optional[CycleStats]:
    """Statistics of cycle ci from its two residual series; None if omitted."""
    if a is None or b is None:
        return None
    y = np.concatenate([a, b])
    d = y - y.mean()
    ss = float((d * d).sum())
    var = ss / len(y)  # conftest's sample_variance(y): numpy's mean is the sum over the count
    if not var > 0.0:  # a flat cycle
        return None
    # conftest's lag1_autocorrelation(y), whose denominator ss is not 0 here
    return CycleStats(ci, var, float((d[:-1] * d[1:]).sum() / ss), len(y))


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

def jump_phases(jump_index, dt: float, omega: float) -> PhaseSeries:
    """Forcing phase and extremum offset of the jumps at grid indices jump_index."""
    jump_index = np.array(jump_index, dtype=np.int64)
    phi = np.mod(omega * (jump_index * dt), TWO_PI)
    return PhaseSeries(jump_index=jump_index, phi=phi, delta=assign_extremum(phi)[0])


def circular_std(deltas) -> float:
    """sqrt(-2 log R), R the mean resultant length clamped to [1e-12, 1].

    R is 1 exactly for a window whose deltas are all equal (one delta
    included), which reads +0.0.  A window spread by less than about
    1e-8 rad still reads the rounding floor of R, sqrt(2.2e-16) = 1.5e-8.
    """
    deltas = np.asarray(deltas, dtype=float)
    require(len(deltas) >= 1, "circular_std needs a non-empty window")
    equal = bool((deltas == deltas[0]).all())
    r = 1.0 if equal else np.clip(float(np.abs(np.exp(1j * deltas).mean())),
                                  MIN_RESULTANT, 1.0)
    return math.sqrt(-2.0 * math.log(r)) if r < 1.0 else 0.0  # +0.0, where sqrt gives -0.0


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

def extract_features(traj: Trajectory, det: DetectorConfig, fcfg: FeatureConfig,
                     t_f: float) -> FeatureVector:
    """Four trend slopes for one run: a FeatureStream fed the whole path once.

    A run is invalid when fewer than min_cycles cycles are available,
    fewer than min_jumps jumps, or fewer than two rolling dispersion
    windows (the minimum for a defined slope); the first failed
    requirement is recorded.
    """
    stream = FeatureStream(det, fcfg, t_f, traj.dt, len(traj.x) - 1)
    stream.feed(traj.x)
    return stream.result()


def trend_features(cycles: Tuple[CycleStats, ...], phases: PhaseSeries, label: bool,
                   fcfg: FeatureConfig) -> FeatureVector:
    """The FeatureVector of a run's cycle and jump-phase series (see extract_features)."""
    def invalid(reason):
        return FeatureVector(math.nan, math.nan, math.nan, math.nan,
                             label=label, valid=False, exclusion_reason=reason,
                             cycles=cycles, phases=phases)

    if len(cycles) < fcfg.min_cycles:
        return invalid("too_few_cycles")
    if len(phases.delta) < fcfg.min_jumps:
        return invalid("too_few_jumps")
    rolled = rolling_circ_std(phases.delta, fcfg.window_w)
    if len(rolled) < 2:
        return invalid("too_few_jumps")

    return FeatureVector(
        slope_var=ols_slope([c.var for c in cycles]),
        slope_ac1=ols_slope([c.ac1 for c in cycles]),
        slope_jump_phase=ols_slope(phases.delta),
        slope_phase_std=ols_slope(rolled),
        label=label, valid=True, cycles=cycles, phases=phases)


class FeatureStream:
    """One run's FeatureVector from its path fed in consecutive chunks.

    The package's one pairing of segments into cycles and one decision of a
    run's breakdown onset for its features.  It gives the bits of the whole
    path put through detect_jumps, label_breakdown and truncate_at_onset,
    with consecutive segments then paired into cycles
    (tests/test_features.py keeps that pipeline as its oracle), while
    holding only the path from the start of the first segment not yet
    detrended and at most one residual.  A segment is final once its right
    boundary is (see events.JumpStream.n_final); it is then checked against
    the breakdown threshold and, if not longer, detrended at once and its
    samples released.  An even segment's residual is held until its odd
    partner is detrended, and the two are paired into a cycle.  Each fed
    chunk is kept as its own piece, so a feed copies only the new samples,
    and once the first segment not yet detrended has moved on, the first
    piece held is cut to begin at its start, a copy of at most one chunk
    per segment; a segment is joined from its pieces only when it is
    detrended.  The breakdown onset is the first segment longer than
    breakdown_factor * t_f; an even segment whose partner is the onset is
    left unpaired.  The onset is known before the path ends once the open
    segment starts at a final boundary and already holds more samples than
    that; since merges only lengthen segments, no later sample can change
    it.  feed then returns True: the run needs no more samples.  t_f is
    the forcing period, and the jump phases use omega = 2 pi / t_f, as
    SimConfig.omega does.
    """

    def __init__(self, det: DetectorConfig, fcfg: FeatureConfig, t_f: float,
                 dt: float, n_steps: int):
        self.fcfg = fcfg
        self.omega = TWO_PI / t_f
        self.dt = dt
        self.threshold = det.breakdown_factor * t_f
        self.jumps = JumpStream(det, n_steps)
        self.onset: Optional[int] = None
        self.done = False
        self._pieces: List[np.ndarray] = []  # consecutive pieces of the path
        self._base = 0  # path index of the first sample of _pieces[0]
        self._detrended = 0  # segments detrended so far, all final
        self._even = None  # residual of segment _detrended - 1 when that is even
        self._cycles: List[CycleStats] = []

    @staticmethod
    def held_samples(det: DetectorConfig, t_f: float, dt: float, n_steps: int,
                     chunk: int, streams: int) -> int:
        """At most how many samples `streams` streams hold, fed chunks of `chunk`.

        Between feeds a stream holds exactly its path from the start of its
        first segment not yet detrended on, at most one segment that is not
        too long and the top boundary's n_min steps, and at most one even
        segment's residual, no longer than that segment: 2 * longest + n_min
        samples, and at most n_steps + 1, since the residual's segment and
        the samples held are disjoint parts of its path.  The streams of a batch are fed one at a time, and the one
        being fed holds one more piece of at most one chunk until it drops
        the pieces it no longer needs, then a copy of at most one chunk
        while it cuts its first piece, and one segment joined from its
        pieces while it is detrended (segments are joined one at a time);
        those count once.
        """
        ratio = det.breakdown_factor * t_f / dt
        longest = n_steps + 1 if ratio >= n_steps else math.floor(ratio) + 1
        held = min(2 * longest + det.n_min, n_steps + 1)
        return streams * held + chunk + 1 + longest

    def feed(self, x) -> bool:
        """Take the next samples of the path; True once the run needs no more."""
        require(not self.done, "the run's features are complete")
        piece = np.array(x, dtype=float)  # owned: the caller may reuse x's memory
        self._pieces.append(piece)
        self.jumps.feed(piece)
        self._advance()
        if not self.done:
            first = self.jumps.boundaries[self._detrended]
            while self._base + len(self._pieces[0]) <= first:
                self._base += len(self._pieces.pop(0))
            if first > self._base:  # a copy, so the samples before first are freed
                self._pieces[0] = self._pieces[0][first - self._base:].copy()
                self._base = first
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

    def _segment(self, k: int) -> np.ndarray:
        """The samples of segment k, joined from the pieces that hold them."""
        lo, hi = self.jumps.boundaries[k], self.jumps.boundaries[k + 1]
        parts, start = [], self._base
        for piece in self._pieces:
            if start < hi and start + len(piece) > lo:
                parts.append(piece[max(lo - start, 0):hi - start])
            start += len(piece)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _detrend(self, k: int) -> None:
        """Detrend final segment k; an odd one is paired with the held even residual."""
        residual = detrend_segment(self._segment(k), self.fcfg)
        if k % 2 == 0:
            self._even = residual
        else:
            cycle = _cycle(k // 2, self._even, residual)
            if cycle is not None:
                self._cycles.append(cycle)
            self._even = None
        self._detrended = k + 1

    def _stop(self, onset: Optional[int]) -> None:
        # every segment before the onset (or the path's end) is final and detrended
        self.onset = onset
        self._pieces = self._even = None
        self.done = True

    def result(self) -> FeatureVector:
        """The run's FeatureVector; its jumps are the boundaries before the onset."""
        require(self.done, "the run's features are not complete")
        b = self.jumps.boundaries
        jumps = b[1:-1] if self.onset is None else b[1:self.onset + 1]
        return trend_features(tuple(self._cycles), jump_phases(jumps, self.dt, self.omega),
                              self.onset is not None, self.fcfg)

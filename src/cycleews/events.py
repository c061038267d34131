"""Hysteresis jump detection, segmentation, and the breakdown onset.

A two-threshold state machine converts a trajectory into an alternating
sequence of well-to-well jumps.  The path's two ends bound the first and
last segments.  In the same pass over the crossings, each segment shorter
than n_min steps is treated as threshold chatter and merged away as it
closes, so detection is linear in the number of crossings.  A run's
breakdown onset is its first segment that lasts strictly longer than
breakdown_factor times the forcing period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .base import require, write_csv
from .sim import CHUNK_STEPS, Trajectory

UPPER = 1
LOWER = -1


@dataclass(frozen=True)
class DetectorConfig:
    x_up: float = 0.4
    x_low: float = -0.4
    n_min: int = 80
    breakdown_factor: float = 0.75

    def __post_init__(self):
        require(self.x_up > 0.0 > self.x_low, "thresholds must satisfy x_up > 0 > x_low")
        require(self.n_min >= 2, "n_min must be >= 2")
        require(self.breakdown_factor > 0.0, "breakdown_factor must be > 0")


@dataclass(frozen=True)
class SegmentSet:
    """Segment boundaries on the grid and the well of each segment.

    boundaries[k] .. boundaries[k+1] is segment k (indices, left-closed
    right-open in samples).  The first and last boundaries are the ends of
    the span the set covers, and every boundary between them is a jump.
    wells holds one label per segment (+1 upper / -1 lower) and alternates
    across the jumps.
    """

    boundaries: np.ndarray
    wells: np.ndarray
    dt: float

    def __post_init__(self):
        require(len(self.wells) == max(0, len(self.boundaries) - 1),
                "need one well label per segment")
        if len(self.boundaries) > 1:
            require(bool(np.all(np.diff(self.boundaries) > 0)),
                    "boundaries must be strictly increasing")

    @property
    def jump_indices(self) -> np.ndarray:
        return self.boundaries[1:-1]

    @property
    def jump_times(self) -> np.ndarray:
        return self.jump_indices * self.dt

    @property
    def n_jumps(self) -> int:
        return max(0, len(self.boundaries) - 2)

    def jump_directions(self):
        """'down' / 'up' per jump, ordered in time: the well each jump leaves."""
        return ["down" if well == UPPER else "up" for well in self.wells[:-1]]


class JumpStream:
    """The detector of detect_jumps, fed a path in consecutive chunks.

    n_last is the index of the path's final sample; feeding that sample
    applies the end rules and sets finished.  boundaries and wells are
    the stack of kept boundaries and the well of each closed segment.
    A chatter event can only remove or move the top boundary, and only
    within n_min steps of it, so every boundary below the top is final
    (see n_final).
    """

    def __init__(self, det: DetectorConfig, n_last: int):
        require(n_last >= 1, "trajectory must contain at least two samples")
        self.det = det
        self.n_last = n_last
        self.boundaries = [0]
        self.wells = []
        self.seen = 0  # samples fed so far
        self.finished = False
        self._well = UPPER
        self._pos = 0  # index of the last threshold event

    def feed(self, x) -> None:
        """Walk the threshold crossings among the next samples of the path."""
        x = np.asarray(x, dtype=float)
        if len(x) == 0:
            return
        require(not self.finished, "the whole path has been fed")
        lo, hi = float(x.min()), float(x.max())  # NaN propagates through both
        require(math.isfinite(lo) and math.isfinite(hi),
                "trajectory contains non-finite states")
        offset = self.seen
        if offset == 0:
            self._well = UPPER if x[0] >= 0.0 else LOWER
        self.seen += len(x)
        require(self.seen <= self.n_last + 1, "more samples than the path holds")
        head = x[:self.n_last - offset]  # a crossing at n_last counts as the end
        exits = {}  # each well's exit mask over head, built when the walk first needs it
        # the walk stops once no sample of x lies beyond the current well's exit threshold
        while (lo < self.det.x_low) if self._well == UPPER else (hi > self.det.x_up):
            if self._well not in exits:
                exits[self._well] = (head < self.det.x_low if self._well == UPPER
                                     else head > self.det.x_up)
            mask = exits[self._well]
            start = max(self._pos + 1 - offset, 0)
            if start >= len(mask):
                break
            k = start + int(mask[start:].argmax())  # the first exit after the last event
            if not mask[k]:
                break
            self._event(offset + k)
        if self.seen == self.n_last + 1:
            self._event(self.n_last)
            self.finished = True

    def _event(self, pos: int) -> None:
        b = self.boundaries
        if pos - b[-1] >= self.det.n_min or (len(b) == 1 and pos == self.n_last):
            b.append(pos)
            self.wells.append(self._well)
        elif pos == self.n_last:  # final chatter
            b[-1] = pos
        elif len(b) > 1:  # chatter between two real jumps
            b.pop()
            self.wells.pop()
        # initial chatter keeps no boundary; the segment takes the next well
        self._well = -self._well
        self._pos = pos

    def n_final(self) -> int:
        """How many boundaries, from the first, no later sample can change."""
        top = self.boundaries[-1]
        if self.finished or len(self.boundaries) == 1 or self.seen - top >= self.det.n_min:
            return len(self.boundaries)
        return len(self.boundaries) - 1

    def segments(self, dt: float) -> SegmentSet:
        """The SegmentSet of the whole path; the path must be finished."""
        require(self.finished, "segments need the whole path")
        return SegmentSet(boundaries=np.array(self.boundaries, dtype=np.int64),
                          wells=np.array(self.wells, dtype=np.int8), dt=dt)


def detect_jumps(traj: Trajectory, det: DetectorConfig) -> SegmentSet:
    """Detect alternating jumps and drop threshold chatter in one pass.

    The hysteresis state machine walks the threshold crossings in time
    order, and each segment is judged as it closes.  One shorter than
    n_min steps is chatter: between two real jumps both jumps go and the
    segment before it continues; an initial one loses its jump and takes
    the well the path settles into; a final one loses its left jump.
    Kept boundaries form a stack, so nothing is rescanned.  The path goes
    to a JumpStream in CHUNK_STEPS pieces, so its exit masks stay that
    short.
    """
    stream = JumpStream(det, len(traj.x) - 1)
    for lo in range(0, len(traj.x), CHUNK_STEPS):
        stream.feed(traj.x[lo:lo + CHUNK_STEPS])
    return stream.segments(traj.dt)


def label_breakdown(segset: SegmentSet, t_f: float, det: DetectorConfig) -> Optional[int]:
    """The breakdown onset: the first segment longer than breakdown_factor * t_f, or None."""
    too_long = np.flatnonzero(np.diff(segset.boundaries) * segset.dt
                              > det.breakdown_factor * t_f)
    return int(too_long[0]) if len(too_long) else None


def truncate_at_onset(segset: SegmentSet, onset: Optional[int]) -> SegmentSet:
    """The segments before the onset; the onset's left boundary ends the span."""
    if onset is None:
        return segset
    return replace(segset, boundaries=segset.boundaries[:onset + 1],
                   wells=segset.wells[:onset])


def write_events_csv(segset: SegmentSet, path) -> None:
    """A CSV of the jumps: grid index, time and direction of each."""
    write_csv(path, (("jump_index", "%d"), ("jump_time", "%.17g"), ("direction", "%s")),
              zip(segset.jump_indices, segset.jump_times, segset.jump_directions()))

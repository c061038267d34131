"""Hysteresis jump detection, segmentation, and breakdown labeling.

A two-threshold state machine converts a trajectory into an alternating
sequence of well-to-well jumps.  Grid endpoints are artificial segment
boundaries.  In the same pass over the crossings, each segment shorter
than n_min steps is treated as threshold chatter and merged away as it
closes, so detection is linear in the number of crossings.  A run is
labeled a breakdown when some between-jump segment lasts strictly longer
than breakdown_factor times the forcing period.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .base import require
from .sim import Trajectory

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
    """Segment boundaries on the grid, well labels, and the breakdown state.

    boundaries[k] .. boundaries[k+1] is segment k (indices, left-closed
    right-open in samples); artificial marks appended endpoints that are
    not jumps.  wells holds one label per segment (+1 upper / -1 lower)
    and alternates across real jumps.
    """

    boundaries: np.ndarray
    artificial: np.ndarray
    wells: np.ndarray
    dt: float
    breakdown_onset: Optional[int] = None
    breakdown: bool = False

    def __post_init__(self):
        require(len(self.boundaries) == len(self.artificial), "boundary/flag length mismatch")
        require(len(self.wells) == max(0, len(self.boundaries) - 1),
                "need one well label per segment")
        if len(self.boundaries) > 1:
            require(bool(np.all(np.diff(self.boundaries) > 0)),
                    "boundaries must be strictly increasing")

    @property
    def n_segments(self) -> int:
        return max(0, len(self.boundaries) - 1)

    @property
    def jump_mask(self) -> np.ndarray:
        return ~self.artificial

    @property
    def jump_indices(self) -> np.ndarray:
        return self.boundaries[self.jump_mask]

    @property
    def jump_times(self) -> np.ndarray:
        return self.jump_indices * self.dt

    @property
    def n_jumps(self) -> int:
        return int(self.jump_mask.sum())

    def segment_bounds(self, k: int):
        return int(self.boundaries[k]), int(self.boundaries[k + 1])

    def segment_durations(self) -> np.ndarray:
        return np.diff(self.boundaries) * self.dt

    def jump_directions(self):
        """'down' / 'up' per real jump, ordered in time."""
        out = []
        for pos in np.flatnonzero(self.jump_mask):
            out.append("down" if self.wells[pos - 1] == UPPER else "up")
        return out


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
        require(bool(np.isfinite(x).all()), "trajectory contains non-finite states")
        offset = self.seen
        if offset == 0:
            self._well = UPPER if x[0] >= 0.0 else LOWER
        self.seen += len(x)
        require(self.seen <= self.n_last + 1, "more samples than the path holds")
        head = x[:self.n_last - offset]  # a crossing at n_last counts as the end
        exits = {UPPER: np.flatnonzero(head < self.det.x_low) + offset,
                 LOWER: np.flatnonzero(head > self.det.x_up) + offset}
        while True:
            arr = exits[self._well]
            j = np.searchsorted(arr, self._pos + 1)
            if j == len(arr):
                break
            self._event(int(arr[j]))
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
        artificial = np.zeros(len(self.boundaries), dtype=bool)
        artificial[[0, -1]] = True
        return SegmentSet(boundaries=np.array(self.boundaries, dtype=np.int64),
                          artificial=artificial,
                          wells=np.array(self.wells, dtype=np.int8), dt=dt)


def detect_jumps(traj: Trajectory, det: DetectorConfig) -> SegmentSet:
    """Detect alternating jumps and drop threshold chatter in one pass.

    The hysteresis state machine walks the threshold crossings in time
    order, and each segment is judged as it closes.  One shorter than
    n_min steps is chatter: between two real jumps both jumps go and the
    segment before it continues; an initial one loses its jump and takes
    the well the path settles into; a final one loses its left jump.
    Kept boundaries form a stack, so nothing is rescanned.
    """
    x = np.asarray(traj.x, dtype=float)
    require(len(x) >= 2, "trajectory must contain at least two samples")
    stream = JumpStream(det, len(x) - 1)
    stream.feed(x)
    return stream.segments(traj.dt)


def label_breakdown(segset: SegmentSet, t_f: float, det: DetectorConfig) -> SegmentSet:
    """Mark the first segment strictly longer than breakdown_factor * t_f."""
    too_long = np.flatnonzero(segset.segment_durations() > det.breakdown_factor * t_f)
    onset = int(too_long[0]) if len(too_long) else None
    return replace(segset, breakdown_onset=onset, breakdown=onset is not None)


def truncate_at_onset(segset: SegmentSet) -> SegmentSet:
    """Keep only segments (and their bounding jumps) before the breakdown onset."""
    if segset.breakdown_onset is None:
        return segset
    k = segset.breakdown_onset
    return replace(segset,
                   boundaries=segset.boundaries[:k + 1],
                   artificial=segset.artificial[:k + 1],
                   wells=segset.wells[:k],
                   breakdown_onset=None,
                   breakdown=segset.breakdown)


def write_events_csv(segset: SegmentSet, path) -> None:
    """CSV with header jump_index,jump_time,direction for the real jumps."""
    directions = segset.jump_directions()
    with open(path, "w") as fh:
        fh.write("jump_index,jump_time,direction\n")
        for idx, t, d in zip(segset.jump_indices, segset.jump_times, directions):
            fh.write(f"{int(idx)},{t:.17g},{d}\n")

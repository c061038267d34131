"""Hysteresis jump detection, segmentation, and breakdown labeling.

A two-threshold state machine converts a trajectory into an alternating
sequence of well-to-well jumps.  Grid endpoints are appended as
artificial segment boundaries, segments shorter than n_min steps are
treated as threshold chatter and merged away, and a run is labeled a
breakdown when some between-jump segment lasts strictly longer than
breakdown_factor times the forcing period.
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


def _raw_jumps(x: np.ndarray, det: DetectorConfig):
    """Alternating threshold crossings of the hysteresis state machine."""
    n_last = len(x) - 1
    state = UPPER if x[0] >= 0.0 else LOWER
    below = np.flatnonzero(x < det.x_low)
    above = np.flatnonzero(x > det.x_up)
    jumps = []
    pos = 0
    while True:
        arr = below if state == UPPER else above
        j = np.searchsorted(arr, pos + 1)
        if j >= len(arr) or arr[j] >= n_last:
            break
        pos = int(arr[j])
        jumps.append(pos)
        state = -state
    initial = UPPER if x[0] >= 0.0 else LOWER
    return jumps, initial


def _merge_chatter(boundaries, artificial, wells, n_min):
    """Remove sub-n_min segments, keeping well alternation intact.

    A micro-segment bounded by two real jumps loses both (its neighbors
    share a well and merge).  At an artificial endpoint only the single
    real bounding jump is removed and the merged segment adopts the
    label of the half away from the endpoint, i.e. initial chatter is
    attributed to the well the path settles into.
    """
    b = list(boundaries)
    art = list(artificial)
    w = list(wells)
    changed = True
    while changed:
        changed = False
        for k in range(len(b) - 1):
            if b[k + 1] - b[k] >= n_min:
                continue
            left_real = not art[k]
            right_real = not art[k + 1]
            if left_real and right_real:
                del b[k:k + 2]
                del art[k:k + 2]
                w[k - 1:k + 2] = [w[k - 1]]
            elif right_real:  # initial segment too short
                del b[k + 1]
                del art[k + 1]
                w[k:k + 2] = [w[k + 1]]
            elif left_real:  # final segment too short
                del b[k]
                del art[k]
                w[k - 1:k + 1] = [w[k - 1]]
            else:  # single segment spanning the grid: nothing to merge
                continue
            changed = True
            break
    return (np.asarray(b, dtype=np.int64), np.asarray(art, dtype=bool),
            np.asarray(w, dtype=np.int8))


def detect_jumps(traj: Trajectory, det: DetectorConfig) -> SegmentSet:
    """Detect alternating jumps and build the chatter-pruned segment set."""
    x = np.asarray(traj.x, dtype=float)
    require(len(x) >= 2, "trajectory must contain at least two samples")
    require(bool(np.isfinite(x).all()), "trajectory contains non-finite states")

    jumps, initial = _raw_jumps(x, det)
    n_last = len(x) - 1
    boundaries = np.array([0] + jumps + [n_last], dtype=np.int64)
    artificial = np.array([True] + [False] * len(jumps) + [True])
    wells = np.array([initial * (-1) ** k for k in range(len(jumps) + 1)], dtype=np.int8)
    boundaries, artificial, wells = _merge_chatter(boundaries, artificial, wells, det.n_min)
    return SegmentSet(boundaries=boundaries, artificial=artificial, wells=wells,
                      dt=traj.dt)


def label_breakdown(segset: SegmentSet, t_f: float, det: DetectorConfig) -> SegmentSet:
    """Mark the first segment strictly longer than breakdown_factor * t_f."""
    durations = segset.segment_durations()
    threshold = det.breakdown_factor * t_f
    onset = None
    for k, dur in enumerate(durations):
        if dur > threshold:
            onset = k
            break
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

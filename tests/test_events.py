import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleews import DetectorConfig, detect_jumps, label_breakdown, truncate_at_onset
from cycleews.events import LOWER, UPPER, JumpStream, write_events_csv
from cycleews.features import FeatureConfig, FeatureStream
from conftest import make_trajectory


def small_det(n_min=2, factor=0.75):
    return DetectorConfig(x_up=0.4, x_low=-0.4, n_min=n_min, breakdown_factor=factor)


def test_constant_path_no_jumps():
    traj = make_trajectory(np.ones(50))
    segset = detect_jumps(traj, small_det())
    assert segset.n_jumps == 0
    assert len(segset.boundaries) - 1 == 1
    assert list(segset.wells) == [UPPER]
    assert segset.boundaries.tolist() == [0, 49]


def test_two_crossings():
    x = np.ones(60)
    x[20:40] = -1.0  # first index below -0.4 is 20, back above 0.4 at 40
    traj = make_trajectory(x)
    segset = detect_jumps(traj, small_det(n_min=5))
    assert list(segset.jump_indices) == [20, 40]
    assert segset.jump_directions() == ["down", "up"]
    assert list(segset.wells) == [UPPER, LOWER, UPPER]
    assert segset.boundaries.tolist() == [0, 20, 40, 59]  # the path's ends bound the jumps


def test_chatter_dip_is_merged():
    # dip below threshold for n_min - 1 samples, then return: by hand the
    # raw state machine yields jumps at 10 and 13, the 3-step micro-segment
    # is discarded, and both bounding jumps vanish.
    n_min = 4
    x = np.ones(40)
    x[10:13] = -1.0
    traj = make_trajectory(x)
    raw = detect_jumps(traj, small_det(n_min=2))
    assert list(raw.jump_indices) == [10, 13]
    merged = detect_jumps(traj, small_det(n_min=n_min))
    assert merged.n_jumps == 0
    assert len(merged.boundaries) - 1 == 1
    assert list(merged.wells) == [UPPER]


def test_initial_chatter_adopts_settled_well():
    x = -np.ones(30)
    x[0] = 0.2  # nominally the upper well, but leaves it immediately
    traj = make_trajectory(x)
    segset = detect_jumps(traj, small_det(n_min=5))
    assert segset.n_jumps == 0
    assert list(segset.wells) == [LOWER]


def test_final_chatter_dropped():
    x = np.ones(30)
    x[28:] = -1.0  # 2-step tail below threshold
    traj = make_trajectory(x)
    segset = detect_jumps(traj, small_det(n_min=5))
    assert segset.n_jumps == 0
    assert list(segset.wells) == [UPPER]


def square_wave_trajectory(dwells, dt=1.0):
    """Alternating-well path with the given dwell lengths (in samples)."""
    parts = []
    level = 1.0
    for d in dwells:
        parts.append(np.full(d, level))
        level = -level
    return make_trajectory(np.concatenate(parts), dt=dt)


def test_breakdown_labeling_boundaries():
    t_f = 8.0  # threshold is 3 t_f / 4 = 6.0, strict
    det = small_det(n_min=2)
    ok = label_breakdown(detect_jumps(square_wave_trajectory([4, 4, 4, 4]), det),
                         t_f, det)
    assert ok is None

    # interior dwell of exactly 6 samples: duration 6.0 is not > 6.0
    exact = label_breakdown(detect_jumps(square_wave_trajectory([4, 6, 4, 4]), det),
                            t_f, det)
    assert exact is None

    long = label_breakdown(detect_jumps(square_wave_trajectory([4, 9, 4, 4]), det),
                           t_f, det)
    assert long == 1


def test_truncate_at_onset():
    t_f = 8.0
    det = small_det(n_min=2)
    segset = detect_jumps(square_wave_trajectory([4, 4, 4, 9, 4]), det)
    onset = label_breakdown(segset, t_f, det)
    assert onset == 3
    truncated = truncate_at_onset(segset, onset)
    assert len(truncated.boundaries) - 1 == 3
    assert list(truncated.wells) == list(segset.wells[:3])
    # the bounding jump of the last retained segment is kept, as the span's end
    assert truncated.boundaries.tolist() == [0, *segset.jump_indices[:onset]]
    assert list(truncated.jump_indices) == list(segset.jump_indices[:onset - 1])
    # what is left has no onset, so truncating it again keeps it
    again = label_breakdown(truncated, t_f, det)
    assert again is None and truncate_at_onset(truncated, again) is truncated

    no_label = detect_jumps(square_wave_trajectory([4, 4, 4, 4]), det)
    assert truncate_at_onset(no_label, label_breakdown(no_label, t_f, det)) is no_label


def test_detection_idempotent():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(-0.3, 0.3, size=400))
    traj = make_trajectory(x)
    a = detect_jumps(traj, small_det(n_min=3))
    b = detect_jumps(traj, small_det(n_min=3))
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.wells, b.wells)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-0.29, 0.29), min_size=20, max_size=300),
       st.floats(0.05, 0.25))
def test_widening_band_never_adds_jumps(increments, widen):
    # Bounded increments cannot hop the band in one step, so chatter
    # merging never fires and the raw hysteresis count is monotone in
    # the band width.
    x = np.cumsum(np.asarray(increments))
    traj = make_trajectory(x)
    narrow = detect_jumps(traj, small_det(n_min=2))
    wide = detect_jumps(traj, DetectorConfig(x_up=0.4 + widen, x_low=-0.4 - widen,
                                             n_min=2, breakdown_factor=0.75))
    assert wide.n_jumps <= narrow.n_jumps


def reference_detect_jumps(x, det):
    """Two-pass reference: all hysteresis crossings first, then chatter
    merging that rescans from the first segment after every merge.

    Returns (boundaries, artificial, wells): the boundaries and wells as
    detect_jumps builds them, and which boundaries are the path's ends.
    """
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

    b = [0] + jumps + [n_last]
    art = [True] + [False] * len(jumps) + [True]
    w = [initial * (-1) ** k for k in range(len(jumps) + 1)]
    changed = True
    while changed:
        changed = False
        for k in range(len(b) - 1):
            if b[k + 1] - b[k] >= det.n_min:
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


THRESHOLD_VALUES = [0.4, -0.4, 0.39, -0.39, 0.41, -0.41, 0.0, 1.0, -1.0]
dwells = st.tuples(st.one_of(st.sampled_from(THRESHOLD_VALUES), st.floats(-1.5, 1.5)),
                   st.integers(1, 60))


@settings(max_examples=400, deadline=None)
@given(st.lists(dwells, min_size=1, max_size=40), st.integers(2, 120))
def test_one_pass_detection_matches_two_pass_reference(path, n_min):
    # piecewise-constant paths: values on, just inside and just outside
    # the thresholds as well as arbitrary floats, held for 1-60 samples,
    # so chatter of every kind sits next to dwells longer than n_min
    x = np.repeat([v for v, _ in path], [n for _, n in path])
    assume(len(x) >= 2)
    det = small_det(n_min=n_min)
    segset = detect_jumps(make_trajectory(x), det)
    boundaries, artificial, wells = reference_detect_jumps(x, det)
    assert segset.boundaries.dtype == boundaries.dtype
    assert np.array_equal(segset.boundaries, boundaries)
    assert np.array_equal(segset.jump_indices, boundaries[~artificial])
    assert segset.wells.dtype == wells.dtype
    assert np.array_equal(segset.wells, wells)


@settings(max_examples=300, deadline=None)
@given(st.lists(dwells, min_size=1, max_size=40), st.integers(2, 120),
       st.lists(st.integers(1, 200), min_size=1, max_size=8))
def test_chunked_detection_matches_whole_path(path, n_min, sizes):
    # the stream fed in chunks of the given sizes (cycled) keeps the
    # boundaries a stream fed the whole path in one call finds, and none
    # below its top boundary ever moves
    x = np.repeat([v for v, _ in path], [n for _, n in path])
    assume(len(x) >= 2)
    det = small_det(n_min=n_min)
    one_call = JumpStream(det, len(x) - 1)
    one_call.feed(x)
    whole = one_call.segments(1.0)
    stream = JumpStream(det, len(x) - 1)
    pos, k = 0, 0
    while pos < len(x):
        stream.feed(x[pos:pos + sizes[k % len(sizes)]])
        pos += sizes[k % len(sizes)]
        k += 1
        final = stream.boundaries[:stream.n_final()]
        assert final == whole.boundaries[:len(final)].tolist()
    chunked = stream.segments(1.0)
    assert np.array_equal(chunked.boundaries, whole.boundaries)
    assert np.array_equal(chunked.wells, whole.wells)


def test_deterministic_relaxation_cadence(relaxation_run, detector):
    config, traj = relaxation_run
    segset = detect_jumps(traj, detector)
    t_f = config.forcing_period
    post = segset.jump_times[segset.jump_times > t_f]
    periods_covered = (config.t_total - t_f) / t_f
    assert len(post) == round(2 * periods_covered)
    diffs = np.diff(post)
    assert np.abs(diffs - t_f / 2.0).max() / (t_f / 2.0) < 0.02


def test_breakdown_from_deterministic_ramp(detector):
    from cycleews import LinearRampAmplitude, SimConfig, simulate
    config = SimConfig(dt=0.01, t_total=2500.0, forcing_period=225.0,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.0, x0=1.0)
    traj = simulate(config, 0)
    segset = detect_jumps(traj, detector)
    onset = label_breakdown(segset, 225.0, detector)
    assert onset is not None
    # jumping regime retained before the onset
    assert len(segset.jump_indices[:onset]) >= 10


def test_events_csv(tmp_path):
    x = np.ones(60)
    x[20:40] = -1.0
    segset = detect_jumps(make_trajectory(x, dt=0.5), small_det(n_min=5))
    path = tmp_path / "events.csv"
    write_events_csv(segset, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "jump_index,jump_time,direction"
    assert lines[1] == "20,10,down"
    assert lines[2] == "40,20,up"


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        detect_jumps(make_trajectory(np.ones(1)), small_det())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 5, -1])
def test_non_finite_states_rejected(bad, where):
    # a bad sample first, in the middle or last in a chunk whose finite samples
    # either never leave the upper well or cross both thresholds, fed as the
    # path's first chunk or after one that leaves the path in the upper well
    det = small_det(n_min=2)
    lead = np.ones(20)
    for body in (np.ones(11), np.repeat([1.0, -1.0, 1.0], [3, 4, 4])):
        chunk = body.copy()
        chunk[where] = bad
        x = np.concatenate([lead, chunk, np.ones(5)])
        with pytest.raises(ValueError, match="trajectory contains non-finite states"):
            detect_jumps(make_trajectory(x), det)
        for before in ([], [lead]):
            jumps = JumpStream(det, len(x) - 1)
            features = FeatureStream(det, FeatureConfig(), 100.0, 1.0, len(x) - 1)
            for piece in before:
                jumps.feed(piece)
                assert not features.feed(piece)
            with pytest.raises(ValueError, match="trajectory contains non-finite states"):
                jumps.feed(chunk)
            with pytest.raises(ValueError, match="trajectory contains non-finite states"):
                features.feed(chunk)

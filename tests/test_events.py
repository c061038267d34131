import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleews import DetectorConfig, detect_jumps, label_breakdown, truncate_at_onset
from cycleews.events import LOWER, UPPER, write_events_csv
from conftest import make_trajectory

OMEGA = 2.0 * math.pi / 225.0


def small_det(n_min=2, factor=0.75):
    return DetectorConfig(x_up=0.4, x_low=-0.4, n_min=n_min, breakdown_factor=factor)


def test_constant_path_no_jumps():
    traj = make_trajectory(np.ones(50))
    segset = detect_jumps(traj, small_det())
    assert segset.n_jumps == 0
    assert segset.n_segments == 1
    assert list(segset.wells) == [UPPER]
    assert segset.segment_bounds(0) == (0, 49)


def test_two_crossings():
    x = np.ones(60)
    x[20:40] = -1.0  # first index below -0.4 is 20, back above 0.4 at 40
    traj = make_trajectory(x)
    segset = detect_jumps(traj, small_det(n_min=5))
    assert list(segset.jump_indices) == [20, 40]
    assert segset.jump_directions() == ["down", "up"]
    assert list(segset.wells) == [UPPER, LOWER, UPPER]
    assert list(segset.artificial) == [True, False, False, True]


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
    assert merged.n_segments == 1
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
    assert not ok.breakdown and ok.breakdown_onset is None

    # interior dwell of exactly 6 samples: duration 6.0 is not > 6.0
    exact = label_breakdown(detect_jumps(square_wave_trajectory([4, 6, 4, 4]), det),
                            t_f, det)
    assert not exact.breakdown

    long = label_breakdown(detect_jumps(square_wave_trajectory([4, 9, 4, 4]), det),
                           t_f, det)
    assert long.breakdown and long.breakdown_onset == 1


def test_truncate_at_onset():
    t_f = 8.0
    det = small_det(n_min=2)
    segset = label_breakdown(
        detect_jumps(square_wave_trajectory([4, 4, 4, 9, 4]), det), t_f, det)
    assert segset.breakdown_onset == 3
    truncated = truncate_at_onset(segset)
    assert truncated.breakdown  # label survives truncation
    assert truncated.breakdown_onset is None
    assert truncated.n_segments == 3
    # bounding jump of the last retained segment is kept
    assert list(truncated.jump_indices) == list(segset.jump_indices[:3])
    again = truncate_at_onset(truncated)
    assert np.array_equal(again.boundaries, truncated.boundaries)
    assert again.breakdown == truncated.breakdown

    no_label = detect_jumps(square_wave_trajectory([4, 4, 4, 4]), det)
    assert truncate_at_onset(no_label) is no_label


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
    config = SimConfig(dt=0.01, t_total=2500.0, omega=OMEGA,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.0, x0=1.0)
    traj = simulate(config, 0)
    segset = label_breakdown(detect_jumps(traj, detector), 225.0, detector)
    assert segset.breakdown
    truncated = truncate_at_onset(segset)
    assert truncated.n_jumps >= 10  # jumping regime retained before the onset
    assert truncated.breakdown


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

import cmath
import itertools
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleews import (DetectorConfig, FeatureConfig, circular_std, detect_jumps,
                      extract_features, jump_phases, label_breakdown, ols_slope,
                      rolling_circ_std, truncate_at_onset, wrap_angle)
from cycleews.features import (FEATURE_NAMES, CycleStats, FeatureStream, _cycle,
                               assign_extremum, circular_mean, detrend_segment,
                               trend_features)
from cycleews.experiment import ExperimentConfig
from cycleews import sim
from cycleews.rng import RunStream, derive_seed, generator
from cycleews.sim import (DivergenceError, PathConsumer, PiecewiseConstantAmplitude,
                          _simulate_batch, iter_ensemble, run_seed_for)
from conftest import lag1_autocorrelation, make_trajectory, sample_variance

angles = st.floats(-50.0, 50.0, allow_nan=False)


# --------------------------------------------------------------------------
# wrap_angle
# --------------------------------------------------------------------------

def test_wrap_examples():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(5.0 * math.pi / 2.0) == pytest.approx(math.pi / 2.0)
    assert wrap_angle(0.0) == 0.0


@given(angles)
def test_wrap_range_and_equivalence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert cmath.exp(1j * w) == pytest.approx(cmath.exp(1j * theta), abs=1e-9)


@given(angles)
def test_wrap_idempotent_and_periodic(theta):
    w = wrap_angle(theta)
    assert wrap_angle(w) == pytest.approx(w, abs=1e-12)
    assert wrap_angle(theta + 2.0 * math.pi) == pytest.approx(w, abs=1e-9)


def test_assign_extremum():
    delta, eta = assign_extremum(math.pi / 4.0)
    assert float(delta) == pytest.approx(math.pi / 4.0)
    assert int(eta) == 1
    # jump an eighth period past the minimum: distance pi/4 to pi
    delta, eta = assign_extremum(math.pi + math.pi / 4.0)
    assert float(delta) == pytest.approx(math.pi / 4.0)
    assert int(eta) == -1
    # exact ties resolve toward the extremum behind the jump
    delta, eta = assign_extremum(math.pi / 2.0)
    assert float(delta) == math.pi / 2.0 and int(eta) == 1
    delta, eta = assign_extremum(3.0 * math.pi / 2.0)
    assert float(delta) == math.pi / 2.0 and int(eta) == -1


# --------------------------------------------------------------------------
# detrending
# --------------------------------------------------------------------------

def test_detrend_reproduces_cubic():
    # the default cubic, and a polynomial of every degree 0-5 under a
    # detrend of that degree, leave no residual
    idx = np.linspace(-1.0, 1.0, 400)
    samples = 0.3 - 0.7 * idx + 0.25 * idx ** 2 + 1.1 * idx ** 3
    assert np.abs(detrend_segment(samples, FeatureConfig(p_buf=0.0))).max() < 1e-9
    for degree in range(6):
        coef = [0.3, -0.7, 0.25, 1.1, -0.45, 0.8][:degree + 1]
        samples = np.polynomial.polynomial.polyval(idx, coef)
        resid = detrend_segment(samples, FeatureConfig(p_buf=0.0, detrend_degree=degree))
        assert np.abs(resid).max() < 1e-9, degree


def test_detrend_buffer_arithmetic():
    fcfg = FeatureConfig(p_buf=0.05)
    samples = np.zeros(100)
    samples[4] = 1e6   # inside the dropped buffer
    samples[95] = 1e6  # inside the dropped buffer
    resid = detrend_segment(samples, fcfg)
    assert len(resid) == 90  # indices 5..94 inclusive
    assert np.abs(resid).max() < 1e-6


def test_detrend_skips_short_segments():
    assert detrend_segment(np.arange(4.0), FeatureConfig(detrend_degree=3)) is None


def _noisy_segment(seed, n, p_buf):
    """A random-walk segment and its interior after the p_buf buffer."""
    y = np.cumsum(generator(seed).standard_normal(n)) * 0.05
    b = int(p_buf * n)
    return y, (y[b:n - b] if b > 0 else y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 17_000), st.integers(0, 5),
       st.sampled_from([0.0, 0.05, 0.2]))
def test_detrend_matches_polynomial_fit_bits(seed, n, degree, p_buf):
    # Polynomial.fit (lstsq on a scaled Vandermonde) is the oracle, to
    # rounding: the projection sums in another order
    y, interior = _noisy_segment(seed, n, p_buf)
    resid = detrend_segment(y, FeatureConfig(p_buf=p_buf, detrend_degree=degree))
    if len(interior) < degree + 2:
        assert resid is None
        return
    idx = np.arange(len(interior), dtype=float)
    expected = interior - np.polynomial.Polynomial.fit(idx, interior, degree)(idx)
    assert np.abs(resid - expected).max() <= 1e-12 * np.abs(interior).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 17_000), st.integers(0, 5),
       st.sampled_from([0.0, 0.05, 0.2]))
def test_detrend_residual_orthogonal_to_monomials(seed, n, degree, p_buf):
    # the least-squares residual is orthogonal to every fitted basis function
    y, interior = _noisy_segment(seed, n, p_buf)
    resid = detrend_segment(y, FeatureConfig(p_buf=p_buf, detrend_degree=degree))
    assume(resid is not None)
    m = len(interior)
    u = -1.0 + (2.0 / (m - 1)) * np.arange(m, dtype=float)
    for j in range(degree + 1):
        basis = u ** j
        assert abs((resid * basis).sum()) <= (
            1e-12 * np.linalg.norm(interior) * np.linalg.norm(basis))


def test_detrend_noise_variance():
    rng = generator(derive_seed(1, "detrend"))
    idx = np.linspace(0.0, 1.0, 2000)
    samples = 2.0 * idx ** 3 - idx + rng.standard_normal(2000)
    resid = detrend_segment(samples, FeatureConfig(p_buf=0.0))
    assert np.var(resid) == pytest.approx(1.0, rel=0.05)


# --------------------------------------------------------------------------
# variance / AC1 estimators
# --------------------------------------------------------------------------

def test_ac1_alternating_series():
    y = np.tile([1.0, -1.0], 500)
    assert lag1_autocorrelation(y) < -0.99


def test_ac1_iid_noise():
    rng = generator(derive_seed(1, "iid"))
    y = rng.standard_normal(10_000)
    assert abs(lag1_autocorrelation(y)) < 0.03


def test_ac1_ou_oracle():
    # AR(1) recursion with the package noise stream: the sampled process
    # has lag-1 autocorrelation exp(-kappa dt) and variance sigma^2/(2 kappa).
    kappa, sigma, dt, n = 1.0, 0.3, 0.01, 100_000
    stream = RunStream(derive_seed(1, "ou"))
    xi = stream.normals(n + 5000)
    y = np.empty(n + 5000)
    y[0] = 0.0
    coeff = 1.0 - kappa * dt
    scale = sigma * math.sqrt(dt)
    for i in range(1, len(y)):
        y[i] = coeff * y[i - 1] + scale * xi[i]
    y = y[5000:]
    assert lag1_autocorrelation(y) == pytest.approx(math.exp(-kappa * dt), abs=0.02)
    assert sample_variance(y) == pytest.approx(sigma ** 2 / (2.0 * kappa), rel=0.10)


@given(st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=60),
       st.floats(0.1, 7.0), st.floats(-5.0, 5.0))
def test_ac1_affine_invariance(values, a, b):
    y = np.asarray(values)
    if sample_variance(y) < 1e-6:
        return
    base = lag1_autocorrelation(y)
    assert lag1_autocorrelation(a * y + b) == pytest.approx(base, abs=1e-8)
    assert sample_variance(a * y + b) == pytest.approx(a * a * sample_variance(y),
                                                       rel=1e-9)
    assert -1.0 <= base <= 1.0


# a cycle's residuals: spread out, or a constant plus a few tiny steps
# (all equal or not), where the variance is near or exactly zero
_residuals = st.one_of(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=80),
    st.builds(lambda level, steps, scale: [level + scale * k for k in steps],
              st.floats(-1e3, 1e3), st.lists(st.integers(-2, 2), min_size=2, max_size=80),
              st.sampled_from([0.0, 1e-300, 1e-160, 1e-12, 1.0])))


@given(_residuals, st.integers(1, 79))
def test_cycle_stats_equal_the_estimators_bit_for_bit(values, cut):
    # _cycle shares one deviation and sum of squares between var and ac1
    y = np.asarray(values)
    cut = min(cut, len(y) - 1)
    cycle = _cycle(3, y[:cut], y[cut:])
    var = sample_variance(y)
    if var == 0.0:
        assert cycle is None
        return
    assert (cycle.cycle_index, cycle.sample_count) == (3, len(y))
    assert cycle.var.hex() == var.hex()
    assert cycle.ac1.hex() == lag1_autocorrelation(y).hex()


# --------------------------------------------------------------------------
# OLS slope
# --------------------------------------------------------------------------

def test_ols_slope_examples():
    assert ols_slope([0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert ols_slope([5.0, 5.0, 5.0]) == 0.0
    assert ols_slope([0.0, 2.0, 1.0, 3.0]) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        ols_slope([1.0])


@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40),
       st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
def test_ols_slope_equivariance(values, a, b):
    y = np.asarray(values)
    assert ols_slope(a * y + b) == pytest.approx(a * ols_slope(y), abs=1e-7)


# --------------------------------------------------------------------------
# circular statistics
# --------------------------------------------------------------------------

def test_circular_std_examples():
    assert circular_std([0.7, 0.7, 0.7]) == pytest.approx(0.0, abs=1e-7)
    assert circular_std([0.0, math.pi]) == pytest.approx(7.4338443777, abs=1e-6)
    assert circular_std([0.0, math.pi / 2.0]) == pytest.approx(0.8325546, abs=1e-6)


def test_circular_std_of_one_delta_is_plus_zero():
    # |e^{i delta}| rounds to 1 - eps or 1 + eps, which gave 1.49e-8, 2.1e-8 or -0.0
    for delta in np.linspace(-math.pi, math.pi, 2001):
        for deltas in ([delta], [delta, delta]):
            std = circular_std(deltas)
            assert std >= 0.0 and math.copysign(1.0, std) == 1.0
        assert circular_std([delta]) == 0.0


def test_circular_std_of_equal_deltas_is_plus_zero():
    # R rounded below 1 gave sqrt(2.2e-16) = 1.49e-8 for 11 of these pairs and for 16 x 0.3
    for delta in np.linspace(-3.0, 3.0, 61):
        for n in (2, 3, 16):
            std = circular_std([delta] * n)
            assert std == 0.0 and math.copysign(1.0, std) == 1.0, (delta, n)
    assert circular_std([0.3] * 16) == 0.0
    assert circular_std([0.0, -0.0]) == 0.0
    assert circular_std([0.3, 0.3 + 1e-6]) > 0.0


def resultant_direct(deltas):
    return abs(sum(cmath.exp(1j * d) for d in deltas) / len(deltas))


def circ_std_direct(deltas):
    r = min(max(resultant_direct(deltas), 1e-12), 1.0)
    return math.sqrt(-2.0 * math.log(r))


@given(st.lists(angles, min_size=1, max_size=30), st.floats(-10.0, 10.0))
def test_circular_std_invariances(deltas, rotation):
    base = circular_std(deltas)
    assert base >= 0.0
    assert 0.0 <= resultant_direct(deltas) <= 1.0 + 1e-12
    rotated = circular_std([d + rotation for d in deltas])
    assert rotated == pytest.approx(base, abs=1e-6)
    assert circular_std(list(reversed(deltas))) == pytest.approx(base, abs=1e-12)
    # compare -2 log R, which stays well conditioned at R -> 1
    assert base ** 2 == pytest.approx(circ_std_direct(deltas) ** 2,
                                      abs=5e-16, rel=1e-9)


def test_rolling_circ_std():
    values = rolling_circ_std(np.full(10, 0.3), 4)
    assert len(values) == 7
    assert np.allclose(values, 0.0, atol=1e-7)
    assert len(rolling_circ_std(np.arange(6, dtype=float) * 0.01, 6)) == 1
    assert len(rolling_circ_std(np.zeros(3), 16)) == 0


def test_rolling_circ_std_recovers_dispersion():
    rng = generator(derive_seed(1, "roll"))
    deltas = wrap_angle(rng.standard_normal(200) * 0.2)
    values = rolling_circ_std(deltas, 16)
    assert len(values) == 200 - 16 + 1
    assert abs(values.mean() - 0.2) < 0.05


# --------------------------------------------------------------------------
# cycle stats and per-run features
# --------------------------------------------------------------------------

def cycle_stats(segset, x, fcfg):
    """Whole-path oracle of FeatureStream's cycles: pairs of consecutive segments.

    Pairing starts at the first segment of segset, and a trailing
    unpaired segment is dropped.  A cycle with a skipped segment, or
    whose residual variance is not positive (exactly zero, or NaN), is
    omitted.  Its variance and AC1 come from the plain estimators.
    """
    bounds = segset.boundaries
    residuals = [detrend_segment(x[i0:i1], fcfg) for i0, i1 in zip(bounds, bounds[1:])]
    cycles = []
    for ci in range(len(residuals) // 2):
        a, b = residuals[2 * ci], residuals[2 * ci + 1]
        if a is None or b is None:
            continue
        y = np.concatenate([a, b])
        var = sample_variance(y)
        if var > 0.0:
            cycles.append(CycleStats(ci, var, lag1_autocorrelation(y), len(y)))
    return cycles


def whole_path_features(traj, det, fcfg, t_f):
    """Whole-path oracle of FeatureStream.result and extract_features.

    Cycles pair the segments before the breakdown onset, and the jumps
    are those before it: the onset segment's left boundary is the last.
    """
    segset = detect_jumps(traj, det)
    onset = label_breakdown(segset, t_f, det)
    return trend_features(tuple(cycle_stats(truncate_at_onset(segset, onset), traj.x, fcfg)),
                          jump_phases(segset.jump_indices[:onset], segset.dt,
                                      2.0 * math.pi / t_f),
                          onset is not None, fcfg)


def square_wave(dwells, level0=1.0):
    parts, level = [], level0
    for d in dwells:
        parts.append(np.full(d, level))
        level = -level
    return np.concatenate(parts)


def test_cycle_pairing_and_skips():
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=4, breakdown_factor=0.75)
    fcfg = FeatureConfig(p_buf=0.0, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=1)
    rng = generator(derive_seed(1, "pair"))
    x = square_wave([40, 40, 40, 40, 40]) + 0.05 * rng.standard_normal(200)
    traj = make_trajectory(x)
    segset = detect_jumps(traj, det)
    assert len(segset.boundaries) - 1 == 5
    # a 100-step period puts the breakdown limit at 75 steps, past every dwell
    fv = extract_features(traj, det, fcfg, 100.0)
    assert not fv.label
    assert list(fv.cycles) == cycle_stats(segset, x, fcfg)
    assert [c.cycle_index for c in fv.cycles] == [0, 1]  # trailing segment dropped
    assert all(c.var > 0.0 for c in fv.cycles)
    assert all(-1.0 <= c.ac1 <= 1.0 for c in fv.cycles)


def test_cycle_skips_zero_variance():
    # constant segments detrend to exactly zero residuals, where the
    # lag-1 autocorrelation is undefined and the cycle is dropped
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=4, breakdown_factor=0.75)
    fcfg = FeatureConfig(p_buf=0.0, detrend_degree=0, window_w=2)
    traj = make_trajectory(square_wave([40, 41]))
    segset = detect_jumps(traj, det)
    assert segset.boundaries.tolist() == [0, 40, 80]
    assert cycle_stats(segset, traj.x, fcfg) == []
    fv = extract_features(traj, det, fcfg, 100.0)
    assert (fv.cycles, len(fv.phases.delta)) == ((), 1)
    assert math.isnan(lag1_autocorrelation(np.zeros(50)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cycle_skips_underflowed_high_degree_detrend():
    # at degree 600 the squared norms of the detrend's Forsythe recursion
    # underflow (below the smallest normal float from degree 495 on 700
    # samples, to 0 at 519), so every segment is skipped before a division
    # by one of them: no warning, and no cycle carries a non-finite
    # statistic into a valid run.  Degree 400 stays finite on the same
    # path and keeps all three cycles.
    x = np.repeat([(-1.0) ** k for k in range(6)], 700)
    x = x + 0.05 * generator(derive_seed(6, "degree")).standard_normal(len(x))
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=4, breakdown_factor=0.75)
    for degree, n_cycles in ((400, 3), (600, 0)):
        fcfg = FeatureConfig(p_buf=0.0, detrend_degree=degree, window_w=2, min_cycles=2,
                             min_jumps=1)
        stream = FeatureStream(det, fcfg, 1000.0, 1.0, len(x) - 1)
        assert stream.feed(x)
        cycles = stream.result().cycles
        assert all(math.isfinite(c.var) and math.isfinite(c.ac1) for c in cycles)
        assert len(cycles) == n_cycles


def test_jump_phases_excludes_endpoints(relaxation_run, detector):
    config, traj = relaxation_run
    segset = detect_jumps(traj, detector)
    phases = jump_phases(segset.jump_indices, segset.dt, config.omega)
    eta = assign_extremum(phases.phi)[1]
    assert len(phases.delta) == segset.n_jumps
    assert len(phases.delta) == len(phases.phi) == len(eta)
    assert np.all((phases.phi >= 0.0) & (phases.phi < 2.0 * math.pi))
    assert np.all((phases.delta > -math.pi) & (phases.delta <= math.pi))
    # down jumps associate with forcing minima, up jumps with maxima
    directions = segset.jump_directions()
    for direction, sign in zip(directions, eta):
        assert sign == (-1 if direction == "down" else 1)


def test_deterministic_jump_phase_slope_is_flat(relaxation_run, detector):
    config, traj = relaxation_run
    segset = detect_jumps(traj, detector)
    phases = jump_phases(segset.jump_indices, segset.dt, config.omega)
    post = phases.delta[phases.jump_index * config.dt > 2.0 * config.forcing_period]
    assert abs(ols_slope(post)) < 1e-3


def test_extract_features_requires_minimum_history(detector):
    from cycleews import ConstantAmplitude, SimConfig, simulate
    config = SimConfig(dt=0.01, t_total=225.0 * 2, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(1.2), sigma=0.0, x0=1.0)
    traj = simulate(config, 0)
    fv = extract_features(traj, detector, FeatureConfig(), 225.0)
    _same_features(fv, whole_path_features(traj, detector, FeatureConfig(), 225.0))
    assert not fv.valid
    assert fv.exclusion_reason == "too_few_cycles"
    assert math.isnan(fv.slope_var)


def test_extract_features_valid_run(relaxation_run, detector):
    config, traj = relaxation_run
    fv = extract_features(traj, detector, FeatureConfig(), config.forcing_period)
    _same_features(fv, whole_path_features(traj, detector, FeatureConfig(),
                                           config.forcing_period))
    assert fv.valid and not fv.label
    assert np.isfinite([fv.slope_var, fv.slope_ac1, fv.slope_jump_phase,
                        fv.slope_phase_std]).all()


def test_decomposition_consistent_with_jump_phases(detector):
    from cycleews import LinearRampAmplitude, SimConfig, simulate
    from cycleews.geometry import jump_phase_decomposition
    config = SimConfig(dt=0.01, t_total=2500.0, forcing_period=225.0,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.3, x0=1.0, master_seed=8)
    traj = simulate(config, 42)
    segset = detect_jumps(traj, detector)
    phases = jump_phases(segset.jump_indices, segset.dt, config.omega)
    for t_j, delta in zip(segset.jump_times, phases.delta):
        d_a = 1.2 - (1.2 - 0.25) * t_j / 2500.0
        if d_a <= 2.0 / 3.0:
            continue
        dec = jump_phase_decomposition(t_j, d_a, config.omega)
        assert dec.psi == pytest.approx(float(delta), abs=1e-12)
        assert abs(dec.psi - (dec.theta + dec.phi_delay)) < 1e-12


def test_circular_mean_range():
    assert circular_mean([0.1, -0.1]) == pytest.approx(0.0, abs=1e-12)
    assert abs(circular_mean([math.pi - 0.05, -math.pi + 0.05])) == pytest.approx(
        math.pi, abs=1e-9)


# --------------------------------------------------------------------------
# streamed per-run features
# --------------------------------------------------------------------------

def _same_features(a, b):
    slopes = [[getattr(fv, name) for name in FEATURE_NAMES] for fv in (a, b)]
    assert np.array_equal(*slopes, equal_nan=True)
    assert (a.label, a.valid, a.exclusion_reason) == (b.label, b.valid, b.exclusion_reason)
    assert a.cycles == b.cycles
    assert a.phases.jump_index.tobytes() == b.phases.jump_index.tobytes()
    assert a.phases.delta.tobytes() == b.phases.delta.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1.0, 1.0, 0.39, 0.0]), st.integers(1, 150)),
                min_size=1, max_size=30),
       st.integers(2, 60), st.integers(20, 300),
       st.lists(st.integers(1, 500), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_feature_stream_matches_whole_path(dwells, n_min, limit, chunks, seed):
    # noisy square waves of alternating sign, some dwells inside the
    # thresholds, whose segments straddle the breakdown limit of `limit`
    # samples, fed in chunks of the drawn sizes in turn: the stream stops
    # at the onset, and it and extract_features (the stream fed once) give
    # the whole-path oracle's features bit for bit
    x = np.repeat([v * (-1) ** k for k, (v, _) in enumerate(dwells)],
                  [n for _, n in dwells])
    assume(len(x) >= 2)
    x = x + 0.05 * generator(seed).standard_normal(len(x))
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=n_min, breakdown_factor=0.5)
    fcfg = FeatureConfig(p_buf=0.05, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=2)
    t_f = 2.0 * limit
    traj = make_trajectory(x)
    whole = detect_jumps(traj, det)
    onset = label_breakdown(whole, t_f, det)
    segset = truncate_at_onset(whole, onset)
    expected = whole_path_features(traj, det, fcfg, t_f)

    stream = FeatureStream(det, fcfg, t_f, 1.0, len(x) - 1)
    pos = 0
    for chunk in itertools.cycle(chunks):
        if stream.feed(x[pos:pos + chunk]):
            break
        pos += chunk
    fv = stream.result()
    assert stream.onset == onset
    _same_features(fv, expected)
    _same_features(extract_features(traj, det, fcfg, t_f), expected)
    # a run that stops early has its onset segment already too long
    if stream.jumps.seen < len(x):
        assert expected.label and segset.boundaries[-1] + limit < stream.jumps.seen
    # the truncated boundaries are the path's start, the jumps and, without
    # an onset, the path's end: the label and jump indices checked above fix them
    ends = [] if fv.label else [len(x) - 1]
    assert segset.boundaries.tolist() == [0, *fv.phases.jump_index.tolist(), *ends]


def test_feature_stream_holds_within_its_bound():
    # 300 dwells of 40 samples, no breakdown at a 100-sample limit, fed in
    # 64-sample chunks: between feeds a stream keeps at most one segment and
    # n_min steps of its path and one residual, far less than the whole path
    x = np.repeat([(-1.0) ** k for k in range(300)], 40)
    x = x + 0.05 * generator(derive_seed(4, "held")).standard_normal(len(x))
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=10, breakdown_factor=0.5)
    fcfg = FeatureConfig(p_buf=0.05, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=2)
    t_f, chunk, n_steps = 200.0, 64, len(x) - 1
    longest = 101  # samples of a segment at the 100-step breakdown limit
    stream = FeatureStream(det, fcfg, t_f, 1.0, n_steps)
    bound = FeatureStream.held_samples(det, t_f, 1.0, n_steps, chunk, 1)
    held = []
    for pos in range(0, len(x), chunk):
        stream.feed(x[pos:pos + chunk])
        if not stream.done:
            residual = 0 if stream._even is None else len(stream._even)
            held.append(sum(map(len, stream._pieces)) + residual)
    assert stream.done and stream.onset is None and len(stream.result().cycles) == 150
    assert max(held) <= 2 * longest + det.n_min <= bound < n_steps // 10


@pytest.mark.parametrize("chunk", [7, 64, 1000])
def test_feature_stream_holds_no_sample_before_its_first_segment_not_detrended(chunk):
    # a final segment is detrended as soon as the stream sees it is final,
    # so between feeds the first piece held starts at the segment after the
    # last final one, every piece owns its memory, and the one residual held
    # is that of an even segment waiting for its odd partner; the features
    # match the whole-path oracle's
    x = np.repeat([(-1.0) ** k for k in range(60)], 40)
    x = x + 0.05 * generator(derive_seed(4, "trim")).standard_normal(len(x))
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=10, breakdown_factor=0.5)
    fcfg = FeatureConfig(p_buf=0.05, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=2)
    t_f = 200.0
    stream = FeatureStream(det, fcfg, t_f, 1.0, len(x) - 1)
    waiting = 0
    for pos in range(0, len(x), chunk):
        stream.feed(x[pos:pos + chunk])
        if not stream.done:
            b = stream.jumps.boundaries
            first = stream.jumps.n_final() - 1  # the first segment not yet final
            assert stream._base == b[first]
            assert sum(map(len, stream._pieces)) == stream.jumps.seen - b[first]
            assert all(piece.base is None for piece in stream._pieces)
            if first % 2:
                even = detrend_segment(x[b[first - 1]:b[first]], fcfg)
                assert stream._even.tobytes() == even.tobytes()
                waiting += 1
            else:
                assert stream._even is None
    assert stream.done and waiting > 0
    _same_features(stream.result(), whole_path_features(make_trajectory(x), det, fcfg, t_f))


def test_feature_stream_takes_empty_chunks():
    # an empty chunk, first (it raised IndexError) or between two others,
    # leaves the stream as it was: the features are the whole-path oracle's
    x = np.repeat([(-1.0) ** k for k in range(60)], 40)
    x = x + 0.05 * generator(derive_seed(4, "empty")).standard_normal(len(x))
    det = DetectorConfig(x_up=0.4, x_low=-0.4, n_min=10, breakdown_factor=0.5)
    fcfg = FeatureConfig(p_buf=0.05, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=2)
    t_f, empty = 200.0, np.empty(0)
    stream = FeatureStream(det, fcfg, t_f, 1.0, len(x) - 1)
    assert not stream.feed(empty)
    for pos in range(0, len(x), 64):
        stream.feed(x[pos:pos + 64])
        assert stream.feed(empty) == stream.done
    assert stream.done
    _same_features(stream.result(), whole_path_features(make_trajectory(x), det, fcfg, t_f))


def test_one_cycle_run_is_excluded_not_fatal():
    # three jumps and then a dwell past the breakdown limit leave one cycle;
    # a slope needs two, so min_cycles = 1 is rejected (it let such a run
    # reach ols_slope, which raised) and the run is excluded instead
    with pytest.raises(ValueError, match="min_cycles"):
        FeatureConfig(min_cycles=1, min_jumps=1, window_w=2)
    det = DetectorConfig(n_min=4, breakdown_factor=0.75)
    fcfg = FeatureConfig(p_buf=0.0, detrend_degree=1, window_w=2, min_cycles=2,
                         min_jumps=1)
    x = square_wave([40, 40, 40, 400]) + 0.01 * generator(0).standard_normal(520)
    stream = FeatureStream(det, fcfg, 100.0, 1.0, len(x) - 1)
    assert stream.feed(x)
    fv = stream.result()
    assert (len(fv.cycles), len(fv.phases.delta), fv.label) == (1, 3, True)
    assert (fv.valid, fv.exclusion_reason) == (False, "too_few_cycles")


def _stream_factory(config, sim_cfg, made):
    def consumer():
        made.append(FeatureStream(config.detector(), config.feature_config(),
                                  sim_cfg.forcing_period, sim_cfg.dt, sim_cfg.n_steps))
        return made[-1]
    return consumer


def test_streamed_ensemble_matches_whole_paths():
    config = ExperimentConfig(n_runs=6, master_seed=5)
    det, fcfg, t_f = config.detector(), config.feature_config(), config.forcing_period
    sim_cfg = config.sim_config()

    made = []
    streamed = list(iter_ensemble(sim_cfg, 6, config.d_min_sampler(), batch_size=4,
                                  consumer=_stream_factory(config, sim_cfg, made)))
    paths = iter_ensemble(sim_cfg, 6, config.d_min_sampler(), batch_size=4,
                          consumer=partial(PathConsumer, sim_cfg.n_steps))
    labels = []
    for a, path, stream in zip(streamed, paths, made):
        traj = make_trajectory(path.value, sim_cfg.dt)
        b = whole_path_features(traj, det, fcfg, t_f)
        _same_features(a.value, b)
        assert stream.onset == label_breakdown(detect_jumps(traj, det), t_f, det)
        # a run leaves its batch once its onset is certain
        assert (stream.jumps.seen < sim_cfg.n_steps + 1) == b.label
        labels.append(b.label)
    assert 0 < sum(labels) < 6


def test_ensemble_bits_do_not_depend_on_the_chunk(monkeypatch):
    # 8 ramped sigma = 0.3 runs in one batch: their paths and features are
    # the same bytes in 1,000-, 4,096- and 8,192-step chunks
    config = ExperimentConfig(n_runs=8, master_seed=11)
    sim_cfg = config.sim_config()

    def ensemble(consumer):
        return [res.value for res in iter_ensemble(sim_cfg, 8, config.d_min_sampler(),
                                                   consumer=consumer)]

    outputs = []
    for chunk in (1_000, 4_096, 8_192):
        monkeypatch.setattr(sim, "CHUNK_STEPS", chunk)
        outputs.append((ensemble(_stream_factory(config, sim_cfg, [])),
                        ensemble(partial(PathConsumer, sim_cfg.n_steps))))
    (features, paths), *others = outputs
    for other_features, other_paths in others:
        for a, b in zip(other_features, features):
            _same_features(a, b)
        assert [p.tobytes() for p in other_paths] == [p.tobytes() for p in paths]
    assert 0 < sum(fv.label for fv in features) < 8


def test_divergence_after_the_onset_keeps_the_run():
    # two periods jumping, two without a jump (the onset), then a 1e9 level
    config = ExperimentConfig(n_runs=2, master_seed=9)
    levels = PiecewiseConstantAmplitude((1.2, 0.3, 1e9), 2 * config.forcing_period)
    sim_cfg = replace(config.sim_config(levels), t_total=6 * config.forcing_period)
    seeds = [run_seed_for(9, i) for i in range(2)]
    paths = _simulate_batch(sim_cfg, [0, 1], seeds,
                            consumer=partial(PathConsumer, sim_cfg.n_steps))
    assert all(isinstance(res.error, DivergenceError) for res in paths)
    streamed = _simulate_batch(sim_cfg, [0, 1], seeds,
                               consumer=_stream_factory(config, sim_cfg, []))
    assert all(res.error is None and res.value.label for res in streamed)

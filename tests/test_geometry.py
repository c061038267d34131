import math
from dataclasses import replace

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, DetectorConfig, SimConfig, Trajectory, detect_jumps,
                      floquet_multiplier, fold_info, fold_sweep_rate, hazard_window_width,
                      jump_phase_decomposition, predicted_delay_phase, simulate)
from cycleews import geometry, sim
from cycleews.base import ConvergenceError
from cycleews.experiment import measured_delay_phase
from cycleews.features import FeatureConfig, FeatureStream
from cycleews.geometry import FOLD_FORCING_VALUE
from cycleews.rng import generator
from cycleews.sim import DivergenceError, LONE_CHUNK_STEPS, iter_ensemble

OMEGA = 2.0 * math.pi / 225.0


def cubic_roots_by_bisection(c, lo=-4.0, hi=4.0, n_scan=20001):
    """Independent root oracle: sign scan plus bisection on x - x^3/3 + c."""
    f = lambda x: x - x ** 3 / 3.0 + c
    xs = np.linspace(lo, hi, n_scan)
    vals = f(xs)
    roots = []
    for i in range(n_scan - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(80):
                mid = 0.5 * (a + b)
                if f(a) * f(mid) <= 0.0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
    return roots


@pytest.mark.parametrize("d_a", [0.3, 0.6, 2.0 / 3.0 - 0.01, 2.0 / 3.0 + 0.01, 0.7, 1.2],
                         ids=lambda d_a: f"{d_a:.4g}")
def test_root_count_characterizes_fold(d_a):
    # The fold exists exactly when, at some phase s, the critical manifold
    # x - x^3/3 + d_a cos(s) = 0 loses two of its three branches.
    counts = {len(cubic_roots_by_bisection(d_a * math.cos(s), n_scan=2001))
              for s in np.linspace(0.0, 2.0 * math.pi, 181)}
    assert counts <= {1, 3}
    assert fold_info(d_a).exists == (1 in counts)


def test_fold_info():
    assert not fold_info(0.5).exists
    assert fold_info(0.5).static_phase_offset is None
    at_fold = fold_info(2.0 / 3.0)
    assert at_fold.exists
    assert at_fold.static_phase_offset == pytest.approx(0.0, abs=1e-7)
    assert fold_info(1.0).static_phase_offset == pytest.approx(-0.84107, abs=1e-5)
    assert fold_info(1e9).static_phase_offset == pytest.approx(-math.pi / 2.0, abs=1e-4)


def test_fold_offset_monotone_toward_zero():
    grid = np.linspace(0.67, 8.0, 200)
    offsets = [fold_info(d).static_phase_offset for d in grid]
    assert all(a > b for a, b in zip(offsets, offsets[1:]))  # decreasing in d_a
    assert all(-math.pi / 2.0 < o <= 0.0 for o in offsets)


def test_fold_sweep_rate():
    assert fold_sweep_rate(2.0 / 3.0, OMEGA) == 0.0
    assert fold_sweep_rate(1.0, OMEGA) == pytest.approx(0.020814, abs=1e-6)
    assert fold_sweep_rate(1.2, OMEGA) > fold_sweep_rate(0.8, OMEGA)
    with pytest.raises(ValueError):
        fold_sweep_rate(0.6, OMEGA)


def test_predicted_delay_phase():
    base = predicted_delay_phase(1.0, OMEGA)
    assert predicted_delay_phase(1.0, OMEGA / 2.0) == pytest.approx(
        base * 2.0 ** (-2.0 / 3.0))
    near_fold = predicted_delay_phase(FOLD_FORCING_VALUE + 1e-9, OMEGA)
    assert near_fold > 10.0 * base > 10.0 * predicted_delay_phase(1.2, OMEGA) / 2.0
    assert near_fold > predicted_delay_phase(0.7, OMEGA) > base
    with pytest.raises(ValueError):
        predicted_delay_phase(0.5, OMEGA)


def test_hazard_window_width():
    assert hazard_window_width(0.0, 0.02) == 0.0
    assert hazard_window_width(0.6, 0.02) == pytest.approx(
        2.0 ** (4.0 / 3.0) * hazard_window_width(0.3, 0.02))
    with pytest.raises(ValueError):
        hazard_window_width(0.3, 0.0)


def _floquet_config(period, d_a=1.2):
    return SimConfig(dt=0.01, t_total=period, forcing_period=period,
                     amplitude_schedule=ConstantAmplitude(d_a), sigma=0.0, x0=1.0)


def test_floquet_multiplier_contraction():
    est = floquet_multiplier(_floquet_config(225.0))
    assert len(est.orbit) == 22_501
    assert abs(est.orbit[-1] - est.orbit[0]) < 1e-9  # the search's periodicity tol
    assert est.multiplier > 0.0
    assert est.log_multiplier < -20.0
    assert est.multiplier < 1e-8


@pytest.mark.parametrize("period", [25.0, 100.0, 400.0, 800.0])
def test_floquet_orbit_spans_the_configured_period(period):
    # 2 pi / (2 pi / T) is not T at these periods, so T is held, not rebuilt from omega
    config = _floquet_config(period)
    assert len(floquet_multiplier(config).orbit) == round(period / 0.01) + 1
    stream = FeatureStream(DetectorConfig(), FeatureConfig(), period, 0.01, config.n_steps)
    assert config.omega.hex() == stream.omega.hex() == (2.0 * math.pi / period).hex()


def test_floquet_monotone_in_period():
    small = floquet_multiplier(_floquet_config(25.0))
    large = floquet_multiplier(_floquet_config(50.0))
    assert large.log_multiplier < small.log_multiplier < 0.0


def floquet_every_period(config):
    """Oracle: the search integrating every period, (multiplier, log_multiplier, orbit)."""
    one_period = replace(config, t_total=config.forcing_period)
    x, prev = config.x0, None
    for period in range(1, geometry._FLOQUET_MAX_PERIODS + 1):
        cur = simulate(replace(one_period, x0=x), run_seed=0).x
        if period > geometry._FLOQUET_TRANSIENT_PERIODS and prev is not None:
            if float(np.max(np.abs(cur - prev))) < geometry._FLOQUET_TOL:
                integrand = 1.0 - cur * cur
                log_mu = config.dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
                return math.exp(log_mu), float(log_mu), cur
        prev = cur
        x = float(cur[-1])
    raise AssertionError("oracle found no periodic orbit")


# searches that end by tolerance after the transient, not at a period that repeats:
# {(d_a, period): periods integrated}
TOLERANCE_ENDED = {(0.68, 2.0): 8, (1.2, 1.0): 13, (1.2, 10.0): 24}


@pytest.mark.parametrize("d_a", [0.68, 0.75, 1.2, 1.5])
def test_floquet_matches_the_every_period_search_bit_for_bit(monkeypatch, d_a):
    calls = []

    def counting_iter_ensemble(*args, **kwargs):
        calls.append(1)
        return iter_ensemble(*args, **kwargs)

    # the float map reaches a fixed point after one period at periods 25-400
    cases = dict.fromkeys((25.0, 50.0, 100.0, 225.0, 400.0), 2)
    cases.update({period: n for (a, period), n in TOLERANCE_ENDED.items() if a == d_a})
    for period, periods in cases.items():
        config = _floquet_config(period, d_a)
        multiplier, log_multiplier, orbit = floquet_every_period(config)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "iter_ensemble", counting_iter_ensemble)
            est = floquet_multiplier(config)
        assert (est.multiplier, est.log_multiplier) == (multiplier, log_multiplier), period
        assert est.orbit.tobytes() == orbit.tobytes(), period
        assert len(calls) == est.periods_integrated == periods, period


@pytest.mark.parametrize("d_a", [0.75, 1.2, 1.5])
def test_floquet_steps_integrated_stop_where_the_second_period_rejoins(lone_run_steps, d_a):
    for period in (100.0, 225.0, 400.0):
        lone_run_steps.clear()
        est = floquet_multiplier(_floquet_config(period, d_a))
        steps = round(period / 0.01)
        # the second period rejoins the first within its first chunk
        assert est.steps_integrated == steps + min(LONE_CHUNK_STEPS, steps), period
        assert est.steps_integrated == sum(lone_run_steps), period
        assert est.periods_integrated == 2, period


def test_floquet_steps_integrated_of_one_chunk_periods():
    # at d_a 0.9, period 25 the second period does not rejoin the first, so it
    # steps all 2,500 steps; the third rejoins the second at step 1,090, inside
    # the first lone-run chunk
    est = floquet_multiplier(_floquet_config(25.0, 0.9))
    assert (est.periods_integrated, est.steps_integrated) == (3, 2 * 2_500 + LONE_CHUNK_STEPS)


def test_floquet_search_builds_no_random_stream(monkeypatch):
    def no_stream(seed):
        raise AssertionError("a noise-free run built a random stream")

    monkeypatch.setattr(sim, "RunStream", no_stream)
    est = floquet_multiplier(_floquet_config(50.0, 1.2))
    assert est.log_multiplier < 0.0


def test_floquet_divergence_is_a_convergence_error():
    # the first step from x0 = 1e6 lands beyond the divergence bound
    config = replace(_floquet_config(225.0, 1.2), x0=1.0e6)
    with pytest.raises(ConvergenceError, match="while seeking the periodic orbit") as info:
        floquet_multiplier(config)
    assert isinstance(info.value.__cause__, DivergenceError)


def test_floquet_preconditions():
    with pytest.raises(ValueError):
        floquet_multiplier(SimConfig(dt=0.01, t_total=25.0, forcing_period=25,
                                     amplitude_schedule=ConstantAmplitude(1.2),
                                     sigma=0.1, x0=1.0))
    with pytest.raises(ValueError):
        floquet_multiplier(_floquet_config(25.0, d_a=0.5))


def test_floquet_period_step_messages():
    # a one-step period is whole; it is too short
    with pytest.raises(ValueError, match="period must span at least 2 steps of dt"):
        floquet_multiplier(_floquet_config(0.01))
    with pytest.raises(ValueError, match="whole number of steps"):
        floquet_multiplier(SimConfig(dt=0.01, t_total=1.0, forcing_period=0.015,
                                     amplitude_schedule=ConstantAmplitude(1.2),
                                     sigma=0.0, x0=1.0))


def test_jump_decomposition_identity_random():
    rng = generator(77)
    for _ in range(200):
        omega = float(rng.uniform(0.005, 0.3))
        t_j = float(rng.uniform(0.0, 5000.0))
        d_a = float(rng.uniform(0.67, 2.0))
        dec = jump_phase_decomposition(t_j, d_a, omega)
        assert abs(dec.psi - (dec.theta + dec.phi_delay)) < 1e-12
        assert -math.pi < dec.psi <= math.pi
        assert dec.t_star - math.pi / omega < dec.t_fold < dec.t_star
        assert dec.eta in (-1, 1)
        # t_star really is the nearest extremum time
        assert abs(t_j - dec.t_star) <= math.pi / omega / 2.0 + 1e-9


def delay_phase_by_resimulation(config):
    """Oracle: integrate 5 periods of config from its x0 and average the jumps of the last 2."""
    t_f, d_a = config.forcing_period, config.amplitude_schedule.value
    segset = detect_jumps(simulate(replace(config, t_total=5 * t_f), run_seed=0),
                          DetectorConfig())
    delays = [jump_phase_decomposition(t_j, d_a, config.omega).phi_delay
              for t_j in segset.jump_times if t_j >= 3 * t_f]
    return float(np.mean(delays)) if delays else None


@pytest.mark.parametrize("d_a", [0.68, 0.75, 1.0, 1.5])
def test_delay_phase_from_orbit_matches_resimulation(d_a):
    for period in (25.0, 50.0, 100.0):
        config = _floquet_config(period, d_a)
        mine = measured_delay_phase(config, floquet_multiplier(config), DetectorConfig())
        oracle = delay_phase_by_resimulation(config)
        assert (mine is None) == (oracle is None), period
        if oracle is not None:
            assert mine == pytest.approx(oracle, rel=1e-12, abs=0.0), period


def delay_phase_from_window(config, floquet, det):
    """Oracle: detect_jumps on a copied two-period window of the orbit."""
    window = np.concatenate((floquet.orbit[:-1], floquet.orbit))
    d_a = config.amplitude_schedule.value
    delays = [jump_phase_decomposition(t_j, d_a, config.omega).phi_delay
              for t_j in detect_jumps(Trajectory(window, config.dt, 0), det).jump_times]
    return float(np.mean(delays)) if delays else None


@pytest.mark.parametrize("d_a", [0.68, 0.9, 1.2, 1.5])
def test_delay_phase_streamed_equals_the_copied_window(d_a):
    # at d_a 1.2 the period-10 search ends by tolerance (TOLERANCE_ENDED)
    for period in (10.0, 25.0, 100.0, 400.0):
        config = _floquet_config(period, d_a)
        floquet = floquet_multiplier(config)
        if (d_a, period) in TOLERANCE_ENDED:
            assert floquet.periods_integrated == TOLERANCE_ENDED[d_a, period]
        det = DetectorConfig()
        assert (measured_delay_phase(config, floquet, det)
                == delay_phase_from_window(config, floquet, det)), period


def test_delay_law_constant_matches_the_orbit():
    # measured / predicted tends to 1 as the period grows: within 3 % at period 800
    for d_a in (0.9, 1.0, 1.2, 1.5):
        errors = []
        for period in (200.0, 400.0, 800.0):
            config = _floquet_config(period, d_a)
            measured = measured_delay_phase(config, floquet_multiplier(config),
                                            DetectorConfig())
            errors.append(abs(1.0 - measured / predicted_delay_phase(d_a, config.omega)))
        assert errors[0] > errors[1] > errors[2], d_a
        assert errors[2] < 0.03, d_a

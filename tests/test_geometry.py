import math

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, DetectorConfig, SimConfig,
                      critical_manifold_roots, detect_jumps, floquet_multiplier,
                      fold_info, fold_sweep_rate, hazard_window_width,
                      jump_phase_decomposition, predicted_delay_phase, simulate)
from cycleews import geometry
from cycleews.base import ConvergenceError
from cycleews.experiment import measured_delay_phase
from cycleews.geometry import FOLD_FORCING_VALUE
from cycleews.rng import generator

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


def test_roots_at_quarter_phase():
    for d_a in (0.0, 0.5, 1.2, 3.0):
        roots = critical_manifold_roots(math.pi / 2.0, d_a)
        assert len(roots) == 3
        assert roots[0] == pytest.approx(-math.sqrt(3.0), abs=1e-9)
        assert roots[1] == pytest.approx(0.0, abs=1e-9)
        assert roots[2] == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_root_residual_check_survives_optimization(monkeypatch):
    # a raised error, not an assert, so python -O keeps the check
    monkeypatch.setattr(geometry, "_ROOT_RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceError):
        critical_manifold_roots(0.3, 1.2)


def test_roots_at_fold_tangency():
    roots = critical_manifold_roots(0.0, 2.0 / 3.0)
    assert any(abs(r + 1.0) < 1e-6 for r in roots)  # double root at -1
    assert any(abs(r - 2.0) < 1e-9 for r in roots)


def test_roots_single_regime_with_bisection_oracle():
    roots = critical_manifold_roots(0.0, 1.2)
    assert len(roots) == 1
    oracle = cubic_roots_by_bisection(1.2)
    assert len(oracle) == 1
    assert roots[0] == pytest.approx(oracle[0], abs=1e-7)


def test_roots_match_bisection_on_random_instances():
    rng = generator(31)
    for _ in range(100):
        d_a = float(rng.uniform(0.0, 2.5))
        s = float(rng.uniform(0.0, 2.0 * math.pi))
        mine = critical_manifold_roots(s, d_a)
        oracle = cubic_roots_by_bisection(d_a * math.cos(s))
        # compare away from tangencies, where both methods are stable
        if min((abs(abs(d_a * math.cos(s)) - 2.0 / 3.0), 1.0)) < 1e-3:
            continue
        assert len(mine) == len(oracle)
        for a, b in zip(mine, sorted(oracle)):
            assert a == pytest.approx(b, abs=1e-7)


def test_root_count_characterizes_fold():
    # Below the fold amplitude the manifold keeps three branches at every
    # phase; above it, an open phase interval collapses to a single branch.
    s_grid = np.linspace(0.0, 2.0 * math.pi, 721)
    for d_a, has_single_interval in ((0.3, False), (0.6, False),
                                     (0.7, True), (1.2, True)):
        counts = np.array([len(critical_manifold_roots(s, d_a)) for s in s_grid])
        assert (counts == 1).sum() > 1 if has_single_interval else (counts == 3).all()


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
    with pytest.raises(ValueError):
        predicted_delay_phase(1.0, OMEGA, c=0.0)


def test_hazard_window_width():
    assert hazard_window_width(0.0, 0.02) == 0.0
    assert hazard_window_width(0.6, 0.02) == pytest.approx(
        2.0 ** (4.0 / 3.0) * hazard_window_width(0.3, 0.02))
    with pytest.raises(ValueError):
        hazard_window_width(0.3, 0.0)


def _floquet_config(period, d_a=1.2):
    return SimConfig(dt=0.01, t_total=period, omega=2.0 * math.pi / period,
                     amplitude_schedule=ConstantAmplitude(d_a), sigma=0.0, x0=1.0)


def test_floquet_multiplier_contraction():
    est = floquet_multiplier(_floquet_config(225.0))
    assert len(est.orbit) == 22_501
    assert abs(est.orbit[-1] - est.orbit[0]) < 1e-9  # the search's periodicity tol
    assert est.multiplier > 0.0
    assert est.log_multiplier < -20.0
    assert est.multiplier < 1e-8


def test_floquet_monotone_in_period():
    small = floquet_multiplier(_floquet_config(25.0))
    large = floquet_multiplier(_floquet_config(50.0))
    assert large.log_multiplier < small.log_multiplier < 0.0


def test_floquet_preconditions():
    with pytest.raises(ValueError):
        floquet_multiplier(SimConfig(dt=0.01, t_total=25.0, omega=2 * math.pi / 25,
                                     amplitude_schedule=ConstantAmplitude(1.2),
                                     sigma=0.1, x0=1.0))
    with pytest.raises(ValueError):
        floquet_multiplier(_floquet_config(25.0, d_a=0.5))


def test_floquet_period_step_messages():
    # a one-step period is whole; it is too short
    with pytest.raises(ValueError, match="period must span at least 2 steps of dt"):
        floquet_multiplier(_floquet_config(0.01))
    with pytest.raises(ValueError, match="whole number of steps"):
        floquet_multiplier(SimConfig(dt=0.01, t_total=1.0, omega=2.0 * math.pi / 0.015,
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


def delay_phase_by_resimulation(d_a, omega, dt=0.01, x0=1.0):
    """Oracle: integrate 5 periods from x0 and average the jumps of the last 2."""
    t_f = 2.0 * math.pi / omega
    steps_period = round(t_f / dt)
    config = SimConfig(dt=dt, t_total=5 * steps_period * dt, omega=omega,
                       amplitude_schedule=ConstantAmplitude(d_a), sigma=0.0, x0=x0)
    segset = detect_jumps(simulate(config, run_seed=0), DetectorConfig())
    delays = [jump_phase_decomposition(t_j, d_a, omega).phi_delay
              for t_j in segset.jump_times if t_j >= 3 * t_f]
    return float(np.mean(delays)) if delays else None


@pytest.mark.parametrize("d_a", [0.68, 0.75, 1.0, 1.5])
def test_delay_phase_from_orbit_matches_resimulation(d_a):
    for period in (25.0, 50.0, 100.0):
        config = _floquet_config(period, d_a)
        mine = measured_delay_phase(config, floquet_multiplier(config), DetectorConfig())
        oracle = delay_phase_by_resimulation(d_a, config.omega)
        assert (mine is None) == (oracle is None), period
        if oracle is not None:
            assert mine == pytest.approx(oracle, rel=1e-12, abs=0.0), period

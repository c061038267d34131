import math
import pickle
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, DivergenceError, LinearRampAmplitude,
                      PiecewiseConstantAmplitude, SimConfig, UniformSampler,
                      amplitude_at, drift, simulate)
from cycleews.rng import RunStream, derive_seed
from cycleews.sim import (PathConsumer, _integrate, _simulate_batch, draw_d_min,
                          iter_ensemble, run_seed_for, write_trajectory_csv)

OMEGA = 2.0 * math.pi / 225.0


def test_drift_values():
    assert drift(0.0, 0.0, 1.2, OMEGA) == pytest.approx(1.2)
    assert drift(math.sqrt(3.0), 3.7, 0.0, OMEGA) == pytest.approx(0.0, abs=1e-15)
    assert drift(1.0, 0.0, 1.2, OMEGA) == pytest.approx(28.0 / 15.0)


def test_amplitude_schedules():
    ramp = LinearRampAmplitude(1.2, 0.25)
    assert amplitude_at(ramp, 0.0, 2500.0) == pytest.approx(1.2)
    assert amplitude_at(ramp, 2500.0, 2500.0) == pytest.approx(0.25)
    ramp2 = LinearRampAmplitude(1.2, 0.4)
    assert amplitude_at(ramp2, 1250.0, 2500.0) == pytest.approx(0.8)
    assert amplitude_at(ConstantAmplitude(0.7), 42.0, 100.0) == 0.7
    piece = PiecewiseConstantAmplitude((1.0, 0.5), 10.0)
    assert amplitude_at(piece, 9.999, 20.0) == 1.0
    assert amplitude_at(piece, 10.0, 20.0) == 0.5  # right-open intervals
    assert amplitude_at(piece, 20.0, 20.0) == 0.5  # final grid point uses last level
    with pytest.raises(ValueError):
        amplitude_at(ramp, -0.1, 2500.0)
    with pytest.raises(ValueError):
        amplitude_at(ramp, 2500.1, 2500.0)


def test_schedule_invariants():
    with pytest.raises(ValueError):
        LinearRampAmplitude(0.25, 1.2)  # d_max < d_min
    with pytest.raises(ValueError):
        LinearRampAmplitude(1.2, 0.0)  # d_min must be positive
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_total=2500.0, omega=OMEGA,
                  amplitude_schedule=ConstantAmplitude(1.0), sigma=-0.1, x0=1.0)
    with pytest.raises(ValueError):
        # 0.013 does not divide 1.0 into whole steps
        SimConfig(dt=0.013, t_total=1.0, omega=OMEGA,
                  amplitude_schedule=ConstantAmplitude(1.0), sigma=0.0, x0=1.0)


def test_grid_length():
    config = SimConfig(dt=0.01, t_total=25.0, omega=OMEGA,
                       amplitude_schedule=ConstantAmplitude(0.5), sigma=0.0, x0=1.0)
    traj = simulate(config, 1)
    assert len(traj.t) == round(25.0 / 0.01) + 1
    assert traj.t[0] == 0.0
    assert traj.t[1] == pytest.approx(0.01)


def test_zero_forcing_fixed_point():
    config = SimConfig(dt=0.01, t_total=20.0, omega=OMEGA,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0, x0=1.0)
    traj = simulate(config, 0)
    assert abs(traj.x[-1] - math.sqrt(3.0)) < 1e-6


def test_bit_identical_repetition():
    config = SimConfig(dt=0.01, t_total=30.0, omega=OMEGA,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.5),
                       sigma=0.3, x0=1.0, master_seed=5)
    a = simulate(config, 123)
    b = simulate(config, 123)
    assert np.array_equal(a.x, b.x)
    c = simulate(config, 124)
    assert not np.array_equal(a.x, c.x)


def test_euler_self_consistency_oracle():
    """Step-doubling (Richardson) oracle over one jumping period.

    The per-step defect of a full step against two half steps stays
    below 1e-3, and the whole-trajectory deviation between dt and dt/2
    runs halves again when dt is halved (first-order convergence).
    """
    base = dict(t_total=225.0, omega=OMEGA,
                amplitude_schedule=ConstantAmplitude(1.2), sigma=0.0, x0=1.0)
    full = simulate(SimConfig(dt=0.01, **base), 0)
    x, t = full.x[:-1], full.t[:-1]
    one_step = x + 0.01 * drift(x, t, 1.2, OMEGA)
    half = x + 0.005 * drift(x, t, 1.2, OMEGA)
    two_steps = half + 0.005 * drift(half, t + 0.005, 1.2, OMEGA)
    assert np.abs(one_step - two_steps).max() < 1e-3

    halved = simulate(SimConfig(dt=0.005, **base), 0)
    quartered = simulate(SimConfig(dt=0.0025, **base), 0)
    dev1 = np.abs(full.x - halved.x[::2]).max()
    dev2 = np.abs(halved.x - quartered.x[::2]).max()
    assert 0.4 < dev2 / dev1 < 0.6


def test_periodic_orbit_after_transient(relaxation_run):
    config, traj = relaxation_run
    spp = round(225.0 / config.dt)
    shift = np.abs(traj.x[5 * spp:6 * spp + 1] - traj.x[6 * spp:7 * spp + 1]).max()
    assert shift < 1e-4


def test_noise_increment_scaling():
    # x with drift forced to 0 steps by sigma sqrt(dt) xi: the exact noise
    # stream the integrator consumes (after its 2-raw auxiliary block).
    sigma, dt, n = 0.3, 0.01, 100_000
    stream = RunStream(derive_seed(0, "noise-check"))
    stream.uniforms(2)
    increments = sigma * math.sqrt(dt) * stream.normals(n)
    assert np.var(increments) == pytest.approx(sigma ** 2 * dt, rel=0.05)


def test_divergence_guard():
    config = SimConfig(dt=0.01, t_total=1.0, omega=OMEGA,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0, x0=1e7)
    with pytest.raises(DivergenceError) as err:
        simulate(config, 0)
    assert err.value.step_index == 1


def test_divergence_step_alone_matches_batch_past_first_chunk():
    # the 1e9 level starts at step 9,000, past the first 8,192-step chunk
    config = SimConfig(dt=0.01, t_total=100.0, omega=OMEGA,
                       amplitude_schedule=PiecewiseConstantAmplitude((1.0, 1e9), 90.0),
                       sigma=0.3, x0=1.0, master_seed=2)
    seed = run_seed_for(2, 0)
    with pytest.raises(DivergenceError) as err:
        simulate(config, seed)
    batch = _simulate_batch(config, [0, 1], [seed, seed],
                            consumer=partial(PathConsumer, config.n_steps))
    assert 9_000 < err.value.step_index < 9_100
    assert [r.error.step_index for r in batch] == [err.value.step_index] * 2


def test_diverged_run_leaves_the_batch_at_its_step():
    # a 1e9 level over steps 9,000-9,999 only; a batch of two once zeroed
    # a diverged run just to the end of its 8,192-step chunk and restarted
    # it from 0 in the next one
    levels = (1.0,) * 9 + (1e9,) + (1.0,) * 10
    config = SimConfig(dt=0.01, t_total=200.0, omega=OMEGA,
                       amplitude_schedule=PiecewiseConstantAmplitude(levels, 10.0),
                       sigma=0.3, x0=1.0, master_seed=2)
    streams = [RunStream(run_seed_for(2, i)) for i in range(2)]
    for stream in streams:
        stream.uniforms(2)
    paths = [PathConsumer(config.n_steps) for _ in streams]
    assert _integrate(config, None, streams, paths) == {0: 9_001, 1: 9_001}
    for path in paths:
        assert np.all(np.abs(path.x[:9_001]) < 3.0)
        assert not path.x[9_001:].any()


def _ramp_config(t_total=20.0, seed=7):
    return SimConfig(dt=0.01, t_total=t_total, omega=OMEGA,
                     amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                     sigma=0.3, x0=1.0, master_seed=seed)


def _paths(config, n_runs, d_min_sampler=None, **kwargs):
    """(path, d_min used) of every run, in run order."""
    return [(res.value, res.d_min)
            for res in iter_ensemble(config, n_runs, d_min_sampler,
                                     consumer=partial(PathConsumer, config.n_steps),
                                     **kwargs)]


def test_ensemble_deterministic_and_order_independent():
    config = _ramp_config()
    sampler = UniformSampler(0.25, 0.9)
    runs1 = _paths(config, 5, sampler, batch_size=2)
    runs2 = _paths(config, 5, sampler, batch_size=5)
    runs3 = _paths(config, 5, sampler, batch_size=3, threads=2)
    runs4 = _paths(config, 5, sampler, batch_size=1, threads=2)  # each run alone
    for (a, da), (b, db), (c, dc), (d, dd) in zip(runs1, runs2, runs3, runs4):
        assert da == db == dc == dd
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert a.tobytes() == d.tobytes()


def test_ensemble_matches_standalone_simulate():
    config = _ramp_config()
    runs = _paths(config, 3, UniformSampler(0.7, 0.7))
    solo_schedule = LinearRampAmplitude(1.2, 0.7)
    for i, (path, d_min) in enumerate(runs):
        assert d_min == 0.7
        solo = simulate(
            SimConfig(dt=0.01, t_total=20.0, omega=OMEGA,
                      amplitude_schedule=solo_schedule, sigma=0.3, x0=1.0),
            run_seed_for(config.master_seed, i))
        assert np.array_equal(path, solo.x)


def test_point_mass_keeps_amplitude_floor():
    config = _ramp_config()
    for i, (path, d_min) in enumerate(_paths(config, 4, UniformSampler(0.9, 0.9))):
        assert d_min == 0.9
        # the run's path is that of its drawn ramp, whose floor is d_min
        solo = simulate(replace(config, amplitude_schedule=LinearRampAmplitude(1.2, d_min)),
                        run_seed_for(config.master_seed, i))
        assert solo.x.tobytes() == path.tobytes()
        assert solo.d_a.min() >= 0.9 - 1e-12


def test_d_min_law_of_large_numbers():
    sampler = UniformSampler(0.25, 0.9)
    draws = [draw_d_min(run_seed_for(2025, i), sampler) for i in range(1000)]
    assert abs(np.mean(draws) - 0.575) < 0.02


def test_ensemble_divergence_flag_mode():
    config = SimConfig(dt=0.01, t_total=1.0, omega=OMEGA,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0,
                       x0=1e7, master_seed=3)
    results = list(iter_ensemble(config, 2, consumer=partial(PathConsumer, config.n_steps)))
    assert all(r.value is None and r.error.run_index == r.run_index for r in results)
    assert all(isinstance(r.error, DivergenceError) for r in results)


def test_divergence_error_pickles():
    for err in (DivergenceError(12, run_index=3), DivergenceError(5)):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert (back.step_index, back.run_index) == (err.step_index, err.run_index)
        assert str(back) == str(err)


def _diverging_config():
    return SimConfig(dt=0.01, t_total=1.0, omega=OMEGA,
                     amplitude_schedule=ConstantAmplitude(0.0), sigma=0.3,
                     x0=2000.0, master_seed=3)


def test_ensemble_divergence_flags_independent_of_workers():
    errors = []
    for threads in (1, 2):
        config = _diverging_config()
        results = iter_ensemble(config, 4, batch_size=2, threads=threads,
                                consumer=partial(PathConsumer, config.n_steps))
        errors.append([(str(r.error), r.error.step_index, r.error.run_index)
                       for r in results])
    assert errors[0] == errors[1]
    assert [e[2] for e in errors[0]] == [0, 1, 2, 3]


def test_ensemble_worker_count_bounded_by_batches(pool_sizes):
    config = _ramp_config()
    sampler = UniformSampler(0.25, 0.9)
    serial = _paths(config, 4, sampler, batch_size=2)
    assert pool_sizes == []
    wide = _paths(config, 4, sampler, batch_size=2, threads=64)
    assert pool_sizes == [2]
    for (a, da), (b, db) in zip(serial, wide):
        assert da == db  # a run's d_a is its ramp down to d_min
        assert a.tobytes() == b.tobytes()


def _scalar_euler(config, seed, schedule):
    """One path by a plain Python Euler-Maruyama loop: the integrator's oracle.

    Same grid, forcing and operation order as the batch kernel, with the
    stream's 2-raw auxiliary block discarded before the step normals.
    """
    n, dt, omega = config.n_steps, config.dt, config.omega
    t = np.arange(n + 1) * dt
    cos_wt = np.cos(omega * t)
    stream = RunStream(seed)
    stream.uniforms(2)
    xi = stream.normals(n).tolist() if config.sigma > 0.0 else None
    sig_sqdt = config.sigma * math.sqrt(dt)
    x = config.x0
    xs = [x]
    for k in range(n):
        c, tk = float(cos_wt[k]), float(t[k])
        f = x - x * x * x / 3.0
        if isinstance(schedule, LinearRampAmplitude):
            rate = (schedule.d_max - schedule.d_min) / config.t_total
            f = f - rate * (tk * c)
            f = f + schedule.d_max * c
        elif isinstance(schedule, ConstantAmplitude):
            f = f + schedule.value * c
        else:
            level = min(math.floor(tk / schedule.level_duration), len(schedule.levels) - 1)
            f = f + schedule.levels[level] * c
        x = x + f * dt
        if xi is not None:
            x = x + xi[k] * sig_sqdt
        xs.append(x)
    return np.array(xs)


_SCHEDULES = pytest.mark.parametrize("schedule,sigma", [
    (LinearRampAmplitude(1.2, 0.25), 0.3),
    (ConstantAmplitude(0.8), 0.0),
    (PiecewiseConstantAmplitude((1.0, 0.7, 0.9), 40.0), 0.3),
], ids=["noisy_ramp", "constant", "piecewise"])


def _long_config(schedule, sigma):
    # 10,000 steps cross the integrator's 8,192-step noise chunk
    return SimConfig(dt=0.01, t_total=100.0, omega=OMEGA, amplitude_schedule=schedule,
                     sigma=sigma, x0=1.0, master_seed=4)


@_SCHEDULES
def test_simulate_matches_scalar_euler(schedule, sigma):
    config = _long_config(schedule, sigma)
    seed = run_seed_for(4, 0)
    expected = _scalar_euler(config, seed, schedule)
    assert simulate(config, seed).x.tobytes() == expected.tobytes()


@_SCHEDULES
def test_simulate_alone_matches_batch_loop(schedule, sigma):
    # a batch of one steps on Python floats, a batch of two on ufunc rows
    config = _long_config(schedule, sigma)
    seed = run_seed_for(4, 0)
    pair = _simulate_batch(config, [0, 1], [seed, seed],
                           consumer=partial(PathConsumer, config.n_steps))
    alone = simulate(config, seed).x.tobytes()
    assert pair[0].value.tobytes() == alone == pair[1].value.tobytes()


def test_ensemble_matches_scalar_euler_at_drawn_d_min():
    config = SimConfig(dt=0.01, t_total=100.0, omega=OMEGA,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.3, x0=1.0, master_seed=6)
    sampler = UniformSampler(0.25, 0.9)
    for res in iter_ensemble(config, 5, sampler, batch_size=3,
                             consumer=partial(PathConsumer, config.n_steps)):
        d_min = sampler.from_uniform(RunStream(res.seed).uniforms(2)[0])
        assert res.d_min == d_min
        expected = _scalar_euler(config, res.seed, LinearRampAmplitude(1.2, d_min))
        assert res.value.tobytes() == expected.tobytes()


def test_trajectory_csv_roundtrip(tmp_path):
    config = _ramp_config(t_total=2.0)
    traj = simulate(config, 11)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,d_a"
    t, x, d_a = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(t, traj.t)
    assert np.array_equal(x, traj.x)
    assert np.array_equal(d_a, traj.d_a)

import math
import pickle
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from cycleews import (ConstantAmplitude, DivergenceError, LinearRampAmplitude,
                      PiecewiseConstantAmplitude, SimConfig, Trajectory, UniformSampler,
                      simulate)
from cycleews import geometry, sim
from cycleews.rng import RunStream, derive_seed
from cycleews.sim import (CHUNK_STEPS, LONE_CHUNK_STEPS, PathConsumer, _increments, _integrate,
                          _simulate_batch, batch_plan, iter_ensemble, run_seed_for,
                          write_trajectory_csv)

OMEGA = 2.0 * math.pi / 225.0


def drift(x, t, d_a, omega):
    """Deterministic drift x - x^3/3 + d_a cos(omega t); accepts scalars or arrays."""
    return x - (x * x * x) / 3.0 + d_a * np.cos(omega * t)


def amplitude_at(schedule, t: float, t_total: float) -> float:
    """Amplitude of the forcing at time t."""
    return float(schedule.array(np.array([t]), t_total)[0])


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


def test_schedule_invariants():
    with pytest.raises(ValueError):
        LinearRampAmplitude(0.25, 1.2)  # d_max < d_min
    with pytest.raises(ValueError):
        LinearRampAmplitude(1.2, 0.0)  # d_min must be positive
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_total=2500.0, forcing_period=225.0,
                  amplitude_schedule=ConstantAmplitude(1.0), sigma=-0.1, x0=1.0)
    with pytest.raises(ValueError):
        # 0.013 does not divide 1.0 into whole steps
        SimConfig(dt=0.013, t_total=1.0, forcing_period=225.0,
                  amplitude_schedule=ConstantAmplitude(1.0), sigma=0.0, x0=1.0)


@pytest.mark.parametrize("period", [0.0, -225.0, math.inf, math.nan])
def test_forcing_period_must_be_finite_and_positive(period):
    with pytest.raises(ValueError, match="forcing_period must be finite and > 0"):
        SimConfig(dt=0.01, t_total=1.0, forcing_period=period,
                  amplitude_schedule=ConstantAmplitude(1.0), sigma=0.0, x0=1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(1.0), sigma=math.inf, x0=1.0),
     "sigma must be finite"),
    (lambda: LinearRampAmplitude(math.inf, 0.25), "finite d_max"),
    (lambda: UniformSampler(0.25, math.inf), "finite 0 < low <= high"),
    (lambda: PiecewiseConstantAmplitude((1.0, 0.5), math.inf), "level_duration must be finite"),
], ids=["sigma", "ramp_d_max", "sampler_high", "level_duration"])
def test_library_inputs_must_be_finite(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_x0_must_lie_within_the_divergence_bound():
    def config(x0):
        return SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                         amplitude_schedule=ConstantAmplitude(1.0), sigma=0.0, x0=x0)

    for x0 in (sim.STATE_GUARD, -sim.STATE_GUARD):
        assert config(x0).x0 == x0
    for x0 in (1.000001e6, -1e7, 1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="divergence bound"):
            config(x0)


def test_simulate_rejects_seed_out_of_range():
    # simulate checks the seed itself, since a sigma = 0 run builds no
    # RunStream, whose own check would reject it
    for sigma in (0.0, 0.3):
        config = SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                           amplitude_schedule=ConstantAmplitude(1.0), sigma=sigma, x0=1.0)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"run_seed must lie in \[0, 2\*\*64\)"):
                simulate(config, seed)
        assert simulate(config, 2 ** 64 - 1).seed == 2 ** 64 - 1


def test_grid_length():
    config = SimConfig(dt=0.01, t_total=25.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(0.5), sigma=0.0, x0=1.0)
    traj = simulate(config, 1)
    assert len(traj.x) == config.n_steps + 1 == round(25.0 / 0.01) + 1
    assert traj.dt == config.dt == 0.01


def test_zero_forcing_fixed_point():
    config = SimConfig(dt=0.01, t_total=20.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0, x0=1.0)
    traj = simulate(config, 0)
    assert abs(traj.x[-1] - math.sqrt(3.0)) < 1e-6


def test_bit_identical_repetition():
    config = SimConfig(dt=0.01, t_total=30.0, forcing_period=225.0,
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
    base = dict(t_total=225.0, forcing_period=225.0,
                amplitude_schedule=ConstantAmplitude(1.2), sigma=0.0, x0=1.0)
    full = simulate(SimConfig(dt=0.01, **base), 0)
    x, t = full.x[:-1], np.arange(len(full.x) - 1) * 0.01
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


def _increments_by_column(config, c0, n, rates, streams):
    """The state-independent terms one run at a time: _increments' oracle."""
    dt, sched = config.dt, config.amplitude_schedule
    t = np.arange(c0, c0 + n) * dt
    cos_wt = np.cos(config.omega * t)
    cols = []
    for j, stream in enumerate(streams):
        if rates is None:
            col = (sched.array(t, config.t_total) * cos_wt) * dt
        else:
            col = (sched.d_max * cos_wt - (t * cos_wt) * rates[j]) * dt
        if config.sigma > 0.0:
            col = col + stream.normals(n) * (config.sigma * math.sqrt(dt))
        cols.append(col)
    return np.array(cols)


@pytest.mark.parametrize("width", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("schedule", [
    LinearRampAmplitude(1.2, 0.25), ConstantAmplitude(0.8),
    PiecewiseConstantAmplitude((1.0, 0.7, 0.9), 40.0),
], ids=["ramp", "constant", "piecewise"])
def test_increments_match_per_column_oracle(width, sigma, schedule):
    # widths from a lone row to 33 rows of one whole-batch pass;
    # steps 3,900-4,199 cross the piecewise schedule's level change at 4,000
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0, amplitude_schedule=schedule,
                       sigma=sigma, x0=1.0)
    c0, n = 3_900, 300
    rates = None
    if isinstance(schedule, LinearRampAmplitude):
        rates = np.linspace(0.8, 1.2, width) * schedule.rate(config.t_total)

    def fresh_streams():
        return [RunStream(derive_seed(8, "increments", j)) for j in range(width)]

    buf = np.full((width + 3, n + 1), np.nan)  # a batch buffer with more rows than runs
    _increments(buf[:width, 1:], config, c0, rates, fresh_streams())
    expected = _increments_by_column(config, c0, n, rates, fresh_streams())
    assert buf[:width, 1:].tobytes() == expected.tobytes()
    assert np.isnan(buf[:, 0]).all() and np.isnan(buf[width:]).all()


def test_divergence_guard():
    config = SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0, x0=2000.0)
    with pytest.raises(DivergenceError) as err:
        simulate(config, 0)
    assert err.value.step_index == 1


def test_divergence_step_alone_matches_batch_past_first_chunk():
    # the 1e9 level starts at step 9,000, past the first two 4,096-step chunks
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
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
    # a diverged run just to the end of its chunk and restarted it from 0
    # in the next one
    levels = (1.0,) * 9 + (1e9,) + (1.0,) * 10
    config = SimConfig(dt=0.01, t_total=200.0, forcing_period=225.0,
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


class _DoneAtOnce:
    def feed(self, samples) -> bool:
        return True


def test_divergence_after_batch_shrinks_to_one_run():
    # run 1 diverges on the 1e9 level from step 9,000, past the first two
    # 4,096-step chunks; in the first batch run 0 leaves after its first
    # chunk, so run 1 steps alone on Python floats from then on
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
                       amplitude_schedule=PiecewiseConstantAmplitude((1.0, 1e9), 90.0),
                       sigma=0.3, x0=1.0, master_seed=2)

    def run(first):
        streams = [RunStream(run_seed_for(2, i)) for i in range(2)]
        for stream in streams:
            stream.uniforms(2)
        path = PathConsumer(config.n_steps)
        return _integrate(config, None, streams, [first, path]), path.x

    shrunk, alone = run(_DoneAtOnce())
    full, in_rows = run(PathConsumer(config.n_steps))
    step = full[1]
    assert 9_000 < step < 9_100
    assert shrunk == {1: step}
    assert alone[:step].tobytes() == in_rows[:step].tobytes()
    assert not alone[step:].any()


def test_divergence_in_second_group_only():
    # in a batch of 20 ramped runs only run 17, whose rate of -40 drives the
    # amplitude up, diverges, past the first two 4,096-step chunks; the one
    # check over the batch's rows finds it and no other run
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.3, x0=1.0, master_seed=2)
    rates = np.full(20, config.amplitude_schedule.rate(config.t_total))
    rates[17] = -40.0

    def run(runs):
        streams = [RunStream(run_seed_for(2, i)) for i in runs]
        for stream in streams:
            stream.uniforms(2)
        paths = [PathConsumer(config.n_steps) for _ in runs]
        return _integrate(config, rates[runs], streams, paths), [p.x for p in paths]

    diverged, paths = run(list(range(20)))
    assert list(diverged) == [17]
    step = diverged[17]
    assert 8_192 < step < 10_000
    for i, path in enumerate(paths):
        alone, (alone_path,) = run([i])  # a batch of one steps on Python floats
        assert alone == ({0: step} if i == 17 else {})
        assert path.tobytes() == alone_path.tobytes()
    assert np.all(np.isfinite(paths[17][:step])) and not paths[17][step:].any()


class _KeepsNothing:
    def feed(self, samples) -> bool:
        return False


def _kernel_peak(config, rates, streams) -> int:
    """Peak bytes traced while _integrate runs the batch into consumers that keep nothing."""
    consumers = [_KeepsNothing() for _ in streams]
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        assert _integrate(config, rates, streams, consumers) == {}
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_batch_kernel_holds_its_path_buffer_and_little_more():
    # 32 noise-free runs over two 4,096-step chunks and a shorter one:
    # beside the 32 x 4,097 path buffer the kernel holds only chunk-length
    # vectors (the time grid, the forcing) and the check's per-run reductions
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(0.8), sigma=0.0, x0=1.0)
    assert config.n_steps > CHUNK_STEPS
    assert _kernel_peak(config, None, [None] * 32) <= 8 * 32 * (CHUNK_STEPS + 1) + 512 * 1024


def test_batch_kernel_memory_with_noise_and_a_ramp():
    # the same bound with sigma = 0.3 on a ramp: the ramp's forcing is one
    # outer product written into the path buffer itself, and a stream's
    # normals and their temporaries are chunk-length vectors
    schedule = LinearRampAmplitude(1.2, 0.25)
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
                       amplitude_schedule=schedule, sigma=0.3, x0=1.0, master_seed=2)
    rates = np.linspace(0.8, 1.2, 32) * schedule.rate(config.t_total)
    streams = [RunStream(run_seed_for(2, i)) for i in range(32)]
    assert config.n_steps > CHUNK_STEPS
    assert _kernel_peak(config, rates, streams) <= 8 * 32 * (CHUNK_STEPS + 1) + 512 * 1024


def _ramp_config(t_total=20.0, seed=7):
    return SimConfig(dt=0.01, t_total=t_total, forcing_period=225.0,
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
            SimConfig(dt=0.01, t_total=20.0, forcing_period=225.0,
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
        grid = np.arange(config.n_steps + 1) * config.dt
        assert LinearRampAmplitude(1.2, d_min).array(grid, config.t_total).min() >= 0.9 - 1e-12


def test_simulate_draws_the_d_min_of_ensemble_run_i():
    # a drawn floor, not a point mass: a lone run with the sampler is the
    # ensemble's run of its seed, in path bytes and in d_min
    config = _ramp_config(t_total=450.0)
    sampler = UniformSampler(0.25, 0.9)
    runs = _paths(config, 6, sampler, batch_size=3)
    assert len({d_min for _, d_min in runs}) == 6
    for i in (0, 3, 5):
        path, d_min = runs[i]
        solo = simulate(config, run_seed_for(config.master_seed, i), sampler)
        assert solo.d_min == d_min and 0.25 <= d_min <= 0.9
        assert solo.x.tobytes() == path.tobytes()
    assert simulate(config, run_seed_for(config.master_seed, 0)).d_min is None


def test_d_min_sampler_requires_a_linear_ramp():
    config = SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(1.0), sigma=0.3, x0=1.0)
    sampler = UniformSampler(0.25, 0.9)
    with pytest.raises(ValueError, match="a d_min sampler requires a linear ramp schedule"):
        simulate(config, 0, sampler)
    with pytest.raises(ValueError, match="a d_min sampler requires a linear ramp schedule"):
        list(iter_ensemble(config, 2, sampler, consumer=partial(PathConsumer, config.n_steps)))


def test_d_min_law_of_large_numbers():
    config = replace(_ramp_config(seed=2025), t_total=0.01)  # one step a run
    draws = [res.d_min for res in iter_ensemble(
        config, 1000, UniformSampler(0.25, 0.9), consumer=partial(PathConsumer, 1))]
    assert abs(np.mean(draws) - 0.575) < 0.02


def test_ensemble_divergence_flag_mode():
    config = SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
                       amplitude_schedule=ConstantAmplitude(0.0), sigma=0.0,
                       x0=2000.0, master_seed=3)
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
    return SimConfig(dt=0.01, t_total=1.0, forcing_period=225.0,
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


@pytest.mark.parametrize("batch_size", [0, -1])
def test_ensemble_rejects_nonpositive_batch_size(batch_size):
    # -1 made no batches, so the ensemble yielded no runs and returned silently
    config = _diverging_config()
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        list(iter_ensemble(config, 4, batch_size=batch_size,
                           consumer=partial(PathConsumer, config.n_steps)))


def test_ensemble_worker_count_bounded_by_batches(pool_sizes):
    # 4 runs at 64 threads make 4 one-run batches, so 4 workers; 5 runs in
    # batches of 2 at 2 threads make 3 batches for 2 workers
    config = _ramp_config()
    sampler = UniformSampler(0.25, 0.9)
    serial = _paths(config, 5, sampler, batch_size=2)
    assert pool_sizes == []
    wide = _paths(config, 4, sampler, batch_size=2, threads=64)
    assert pool_sizes == [4]
    queued = _paths(config, 5, sampler, batch_size=2, threads=2)
    assert pool_sizes == [4, 2]
    for runs in (wide, queued):
        for (a, da), (b, db) in zip(serial, runs):
            assert da == db  # a run's d_a is its ramp down to d_min
            assert a.tobytes() == b.tobytes()


def test_ensemble_gives_every_worker_a_batch(pool_sizes):
    # 6 runs fit one default batch; at 2 threads they are cut into two
    # batches of 3, one per worker
    config = _ramp_config()
    sampler = UniformSampler(0.25, 0.9)
    serial = _paths(config, 6, sampler, batch_size=128)
    assert pool_sizes == []
    spread = _paths(config, 6, sampler, batch_size=128, threads=2)
    assert pool_sizes == [2]
    for (a, da), (b, db) in zip(serial, spread):
        assert da == db
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_runs, batch_size, threads, plan", [
    (1000, 128, 1, (128, 1)), (1000, 128, 2, (128, 2)), (256, 128, 2, (128, 2)),
    (100, 128, 2, (50, 2)), (64, 128, 2, (32, 2)), (4, 2, 64, (1, 4)), (1, 128, 2, (1, 1)),
])
def test_batch_plan(n_runs, batch_size, threads, plan):
    assert batch_plan(n_runs, batch_size, threads) == plan


def _scalar_euler(config, seed, schedule):
    """One path by a plain Python Euler-Maruyama loop: the integrator's oracle.

    Same grid, forcing and operation order as the batch kernel: the
    state-independent term g = forcing * dt + xi * sigma sqrt(dt) first,
    then the step g + ((x * x) * c2 + c1) * x with c1 = 1 + dt and
    c2 = -dt/3.  The stream's 2-raw auxiliary block is discarded before
    the step normals.
    """
    n, dt, omega = config.n_steps, config.dt, config.omega
    t = np.arange(n + 1) * dt
    cos_wt = np.cos(omega * t)
    stream = RunStream(seed)
    stream.uniforms(2)
    xi = stream.normals(n).tolist() if config.sigma > 0.0 else None
    sig_sqdt = config.sigma * math.sqrt(dt)
    c1, c2 = 1.0 + dt, -dt / 3.0
    x = config.x0
    xs = [x]
    for k in range(n):
        c, tk = float(cos_wt[k]), float(t[k])
        if isinstance(schedule, LinearRampAmplitude):
            rate = (schedule.d_max - schedule.d_min) / config.t_total
            f = schedule.d_max * c - rate * (tk * c)
        elif isinstance(schedule, ConstantAmplitude):
            f = schedule.value * c
        else:
            level = min(math.floor(tk / schedule.level_duration), len(schedule.levels) - 1)
            f = schedule.levels[level] * c
        g = f * dt
        if xi is not None:
            g = g + xi[k] * sig_sqdt
        x = g + ((x * x) * c2 + c1) * x
        xs.append(x)
    return np.array(xs)


def _textbook_euler(config, seed, schedule):
    """x + (x - x^3/3 - rate t cos(wt) + d_max cos(wt)) dt + sigma sqrt(dt) xi.

    The scheme as written, term by term; only a linear ramp or a
    constant amplitude (rate 0).
    """
    n, dt = config.n_steps, config.dt
    t = np.arange(n + 1) * dt
    cos_wt = np.cos(config.omega * t)
    if isinstance(schedule, LinearRampAmplitude):
        d_max, rate = schedule.d_max, schedule.rate(config.t_total)
    else:
        d_max, rate = schedule.value, 0.0
    stream = RunStream(seed)
    stream.uniforms(2)
    z = (stream.normals(n) * (config.sigma * math.sqrt(dt))).tolist() \
        if config.sigma > 0.0 else [0.0] * n
    x = config.x0
    xs = [x]
    for c, tk, z_k in zip(cos_wt.tolist(), t.tolist(), z):
        x = x + (x - ((x * x) * x) / 3.0 - rate * (tk * c) + d_max * c) * dt + z_k
        xs.append(x)
    return np.array(xs)


@pytest.mark.parametrize("schedule,sigma,t_total", [
    (LinearRampAmplitude(1.2, 0.25), 0.3, 2500.0),  # 250,000 steps
    (ConstantAmplitude(0.8), 0.0, 100.0),
], ids=["noisy_ramp", "constant"])
def test_simulate_matches_textbook_euler_maruyama(schedule, sigma, t_total):
    # the kernel's regrouped step g + ((x x) c2 + c1) x is the same scheme:
    # it moves a path by rounding only
    config = SimConfig(dt=0.01, t_total=t_total, forcing_period=225.0, amplitude_schedule=schedule,
                       sigma=sigma, x0=1.0, master_seed=4)
    seed = run_seed_for(4, 0)
    expected = _textbook_euler(config, seed, schedule)
    assert np.abs(simulate(config, seed).x - expected).max() <= 1e-12


_SCHEDULES = pytest.mark.parametrize("schedule,sigma", [
    (LinearRampAmplitude(1.2, 0.25), 0.3),
    (ConstantAmplitude(0.8), 0.0),
    (PiecewiseConstantAmplitude((1.0, 0.7, 0.9), 40.0), 0.3),
], ids=["noisy_ramp", "constant", "piecewise"])


def _long_config(schedule, sigma):
    # 10,000 steps cross the ends of a lone run's 2,048-step chunks and of a
    # batch's 4,096-step ones
    return SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0, amplitude_schedule=schedule,
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
    config = SimConfig(dt=0.01, t_total=100.0, forcing_period=225.0,
                       amplitude_schedule=LinearRampAmplitude(1.2, 0.25),
                       sigma=0.3, x0=1.0, master_seed=6)
    sampler = UniformSampler(0.25, 0.9)
    for res in iter_ensemble(config, 5, sampler, batch_size=3,
                             consumer=partial(PathConsumer, config.n_steps)):
        d_min = sampler.from_uniform(RunStream(res.seed).uniforms(2)[0])
        assert res.d_min == d_min
        expected = _scalar_euler(config, res.seed, LinearRampAmplitude(1.2, d_min))
        assert res.value.tobytes() == expected.tobytes()


def _fed_pieces(path, ends):
    """path cut as the kernel feeds a lone run: samples 0 .. ends[0], then on to each end."""
    starts = [0] + [end + 1 for end in ends[:-1]]
    return [path[lo:end + 1] for lo, end in zip(starts, ends)]


def test_path_consumer_keeps_the_whole_path_and_counts_the_samples_fed():
    path = np.linspace(-1.0, 1.0, 13)
    consumer = PathConsumer(13)
    assert [consumer.feed(piece) for piece in _fed_pieces(path, [4, 9, 12])] == [False] * 3
    assert consumer.n_fed == 13
    assert consumer.result().tobytes() == np.append(path, 0.0).tobytes()


def test_path_consumer_stops_at_first_chunk_ending_on_rejoin():
    rejoin = np.linspace(-1.0, 1.0, 13)
    path = rejoin + 0.5
    path[3] = rejoin[3]  # shared inside the first chunk only
    path[7:10] = rejoin[7:10]  # shared from step 7 into the second chunk's end
    consumer = geometry._PeriodPath(12, rejoin)
    fed = [consumer.feed(piece) for piece in _fed_pieces(path, [4, 9])]
    assert fed == [False, True]
    x, steps = consumer.result()
    assert x[:10].tobytes() == path[:10].tobytes()
    assert x[10:].tobytes() == rejoin[10:].tobytes()
    assert steps == 9


def test_path_consumer_rejoin_tells_minus_zero_from_zero():
    rejoin = np.array([1.0, 2.0, -0.0, 3.0])
    assert geometry._PeriodPath(3, rejoin).feed(np.array([1.0, 2.0, 0.0])) is False
    consumer = geometry._PeriodPath(3, rejoin)
    assert consumer.feed(np.array([5.0, 2.0, -0.0])) is True
    x, steps = consumer.result()
    assert x.tobytes() == np.array([5.0, 2.0, -0.0, 3.0]).tobytes()
    assert steps == 2


@pytest.mark.parametrize("d_a,period", [(1.2, 100.0), (1.5, 400.0), (0.9, 25.0)])
def test_period_path_gives_the_bytes_of_a_whole_period(lone_run_steps, d_a, period):
    # each later period of the Floquet search from the end of the one before; at
    # d_a 0.9, period 25 the second period does not rejoin the first
    config = SimConfig(dt=0.01, t_total=period, forcing_period=period,
                       amplitude_schedule=ConstantAmplitude(d_a), sigma=0.0, x0=1.0)
    prev = simulate(config, 0).x
    # a period that rejoins steps to the end of that lone-run chunk, one that does not
    # steps its whole length; every rejoin here falls in the first chunk
    first = config.n_steps if (d_a, period) == (0.9, 25.0) else LONE_CHUNK_STEPS
    for steps in (first, LONE_CHUNK_STEPS):
        later = replace(config, x0=float(prev[-1]))
        lone_run_steps.clear()
        (res,) = iter_ensemble(later, 1,
                               consumer=partial(geometry._PeriodPath, config.n_steps, prev))
        cur, stepped = res.value
        assert sum(lone_run_steps) == stepped == steps
        assert cur.tobytes() == simulate(later, 0).x.tobytes()
        prev = cur


def test_trajectory_csv_roundtrip(tmp_path):
    config = _ramp_config(t_total=2.0)
    traj = simulate(config, 11)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, config, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,d_a"
    t, x, d_a = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    grid = np.arange(config.n_steps + 1) * config.dt
    assert np.array_equal(t, grid)
    assert np.array_equal(x, traj.x)
    assert np.array_equal(d_a, config.amplitude_schedule.array(grid, config.t_total))
    # a path that is not one of config's whole paths is rejected before writing
    short = Trajectory(traj.x[:-1], traj.dt, traj.seed)
    with pytest.raises(ValueError, match="not one of config's"):
        write_trajectory_csv(short, config, tmp_path / "short.csv")
    assert not (tmp_path / "short.csv").exists()

"""Euler-Maruyama simulation of a slowly forced bistable oscillator.

State obeys dx = (x - x^3/3 + D(t) cos(omega t)) dt + sigma dW with the
forcing amplitude D(t) given by a schedule (constant, linear ramp, or
piecewise constant).  Integration is explicit Euler on a uniform grid,
with the amplitude evaluated at the left endpoint of each step.

Reproducibility contract: a trajectory is a pure function of
(config, run_seed).  Noise comes from per-run Philox streams (see
rng.py), so ensembles are order-independent.  simulate and iter_ensemble
both go through one batch kernel, which integrates in CHUNK_STEPS-step
chunks and hands each run's new samples to a per-run consumer: simulate
(and the Floquet search through it) keeps the whole path in a
PathConsumer, and every ensemble run streams into a consumer that
reduces it as it goes and may end it early (a features.FeatureStream in
the feature pipeline and the figure level protocol).  A batch of two or
more runs steps with ufuncs on rows, elementwise per run; a batch of one
steps on Python floats in the same operation order, since numpy's
per-call cost dominates on one-element rows.  That a run yields the
same bits alone, inside a batch, or in a worker process is pinned by the
parity tests in tests/test_sim.py, not by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Union

import numpy as np

from .base import fork_map, require
from .rng import RunStream, derive_seed

STATE_GUARD = 1.0e6
CHUNK_STEPS = 8192
CHUNK_BUFFERS = 3  # _integrate's (chunk + 1) x batch path, noise and ramp-term buffers


class DivergenceError(RuntimeError):
    """State left the admissible region (non-finite or |x| > STATE_GUARD)."""

    def __init__(self, step_index: int, run_index: Optional[int] = None):
        self.step_index = step_index
        self.run_index = run_index
        where = f"run {run_index}, " if run_index is not None else ""
        super().__init__(f"state diverged at {where}step {step_index}")

    def __reduce__(self):
        # args holds the message, so rebuild from the fields when unpickled
        return type(self), (self.step_index, self.run_index)


# --------------------------------------------------------------------------
# amplitude schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantAmplitude:
    value: float

    def __post_init__(self):
        require(math.isfinite(self.value) and self.value >= 0.0,
                "constant amplitude must be finite and >= 0")

    def array(self, t: np.ndarray, t_total: float) -> np.ndarray:
        return np.full(len(t), self.value)


@dataclass(frozen=True)
class LinearRampAmplitude:
    """Linear ramp from d_max at t=0 down to d_min at t=t_total."""

    d_max: float
    d_min: float

    def __post_init__(self):
        require(self.d_max >= self.d_min > 0.0,
                "linear ramp requires d_max >= d_min > 0")

    def rate(self, t_total: float) -> float:
        return (self.d_max - self.d_min) / t_total

    def array(self, t: np.ndarray, t_total: float) -> np.ndarray:
        return self.d_max - (self.d_max - self.d_min) * t / t_total


@dataclass(frozen=True)
class PiecewiseConstantAmplitude:
    """Right-open equal-duration levels; the final grid point uses the last level."""

    levels: tuple
    level_duration: float

    def __post_init__(self):
        require(len(self.levels) >= 1, "piecewise schedule needs at least one level")
        require(all(math.isfinite(v) and v >= 0.0 for v in self.levels),
                "piecewise levels must be finite and >= 0")
        require(self.level_duration > 0.0, "level_duration must be > 0")

    def level_index(self, t):
        """Index of the level in force at time(s) t."""
        idx = np.floor(np.asarray(t, dtype=float) / self.level_duration).astype(int)
        return np.clip(idx, 0, len(self.levels) - 1)

    def array(self, t: np.ndarray, t_total: float) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)[self.level_index(t)]


AmplitudeSchedule = Union[ConstantAmplitude, LinearRampAmplitude, PiecewiseConstantAmplitude]


def amplitude_at(schedule: AmplitudeSchedule, t: float, t_total: float) -> float:
    """Amplitude of the forcing at time t; t must lie in [0, t_total]."""
    require(0.0 <= t <= t_total, f"t={t} outside [0, {t_total}]")
    return float(schedule.array(np.array([t]), t_total)[0])


# --------------------------------------------------------------------------
# d_min samplers for ensembles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformSampler:
    low: float
    high: float

    def __post_init__(self):
        require(0.0 < self.low <= self.high, "uniform sampler needs 0 < low <= high")

    def from_uniform(self, u: float) -> float:
        return self.low + (self.high - self.low) * u


# --------------------------------------------------------------------------
# configuration and trajectory containers
# --------------------------------------------------------------------------

def _whole_steps(t_total: float, dt: float) -> int:
    ratio = t_total / dt
    require(math.isfinite(ratio), f"t_total/dt = {ratio} is not a whole number of steps")
    n = int(round(ratio))
    tol = 8.0 * np.spacing(max(abs(ratio), 1.0))
    require(n >= 1 and abs(ratio - n) <= tol,
            f"t_total/dt = {ratio} is not a whole number of steps")
    return n


@dataclass(frozen=True)
class SimConfig:
    """All physical and numerical parameters of one experiment run."""

    dt: float
    t_total: float
    omega: float
    amplitude_schedule: AmplitudeSchedule
    sigma: float
    x0: float
    master_seed: int = 0

    def __post_init__(self):
        require(self.dt > 0.0, "dt must be > 0")
        require(self.t_total > 0.0, "t_total must be > 0")
        require(self.omega > 0.0, "omega must be > 0")
        require(self.sigma >= 0.0, "sigma must be >= 0")
        require(math.isfinite(self.x0), "x0 must be finite")
        require(0 <= int(self.master_seed) < 2 ** 64, "master_seed must be a 64-bit integer")
        _whole_steps(self.t_total, self.dt)

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_total, self.dt)

    @property
    def forcing_period(self) -> float:
        return 2.0 * math.pi / self.omega

    def time_grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state path with its amplitude schedule values."""

    t: np.ndarray
    x: np.ndarray
    d_a: np.ndarray
    seed: int

    def __post_init__(self):
        require(len(self.t) == len(self.x) == len(self.d_a) >= 2,
                "t, x, d_a must have equal length >= 2")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1


def drift(x, t, d_a, omega):
    """Deterministic drift x - x^3/3 + d_a cos(omega t); accepts scalars or arrays."""
    return x - (x * x * x) / 3.0 + d_a * np.cos(omega * t)


# --------------------------------------------------------------------------
# integration engine
# --------------------------------------------------------------------------

def _forcing(config: SimConfig, c0: int, c1: int):
    """Forcing tables of steps c0 .. c1 - 1: (amp_cos, time_cos).

    A linear ramp enters a run as d_max cos(wt) - rate * t cos(wt), so
    amp_cos is d_max cos(wt) and time_cos is t cos(wt); any other
    schedule gives amp_cos = D(t) cos(wt) and time_cos None.
    """
    t = np.arange(c0, c1) * config.dt
    cos_wt = np.cos(config.omega * t)
    sched = config.amplitude_schedule
    if isinstance(sched, LinearRampAmplitude):
        return sched.d_max * cos_wt, t * cos_wt
    return sched.array(t, config.t_total) * cos_wt, None


class PathConsumer:
    """Run consumer that keeps the whole path; samples never fed stay 0."""

    def __init__(self, n_steps: int):
        self.x = np.zeros(n_steps + 1)
        self._n = 0

    def feed(self, samples) -> bool:
        self.x[self._n:self._n + len(samples)] = samples
        self._n += len(samples)
        return False

    def result(self) -> np.ndarray:
        return self.x


def _integrate(config: SimConfig, rates, streams, consumers) -> dict:
    """Explicit Euler-Maruyama over a batch of runs, streamed chunk by chunk.

    Steps go in CHUNK_STEPS blocks through one reused (chunk + 1) x
    batch buffer.  After each block, every run hands its new samples
    (the first block starts with x0) to its consumer: consumer.feed
    returns True once the run needs no more, and the run leaves the
    batch.  rates holds each ramped run's rate (None for other
    schedules) and streams each run's RunStream, positioned at its step
    normals.  A run whose state leaves the admissible region
    (non-finite or |x| > STATE_GUARD) leaves the batch at that step:
    its consumer gets only the samples before it.  Returns
    {batch index: first bad step} of those runs whose consumer was not
    done by then.  The step arithmetic is elementwise per run, so a
    run's bits do not depend on its batch.  A batch of one steps on
    Python floats, in the operation order of the ufunc loop, so both
    give the same bits (see the parity tests).
    """
    n_steps, dt, sigma = config.n_steps, config.dt, config.sigma
    batch = len(consumers)
    rows = min(CHUNK_STEPS, n_steps)
    buf = np.empty((rows + 1, batch))
    buf[0] = config.x0
    noise = np.empty((rows, batch)) if sigma > 0.0 else None
    ramp = np.empty((rows, batch)) if rates is not None else None
    s1 = np.empty(batch)
    sig_sqdt = sigma * math.sqrt(dt)
    active = list(range(batch))
    diverged = {}

    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n_steps, CHUNK_STEPS):
            c1 = min(c0 + CHUNK_STEPS, n_steps)
            n, width = c1 - c0, len(active)
            xs = buf[:n + 1, :width]
            amp_cos, time_cos = _forcing(config, c0, c1)
            rt = nz = None
            if sigma > 0.0:
                nz = noise[:n, :width]
                for j, r in enumerate(active):
                    nz[:, j] = streams[r].normals(n)
                nz *= sig_sqdt
            if rates is not None:
                rt = ramp[:n, :width]
                np.multiply.outer(time_cos, rates[active], out=rt)
            if width == 1:
                done = _step_floats(xs, amp_cos, rt, nz, dt)
                bad = {} if done == n else {0: c0 + 1 + done}
            else:
                _step_rows(xs, amp_cos, rt, nz, dt, s1[:width])
                bad = _first_bad_steps(xs[1:], c0)
            start = 0 if c0 == 0 else 1  # row 0 is x0 or the previous chunk's end
            keep = []
            for j, r in enumerate(active):
                stop = bad.get(j, c1 + 1) - c0  # rows before the first bad step
                finished = stop > start and consumers[r].feed(xs[start:stop, j])
                if finished:
                    continue
                if j in bad:
                    diverged[r] = bad[j]
                else:
                    keep.append(j)
            if not keep:
                break
            xs[0, :len(keep)] = xs[n, keep]
            active = [active[j] for j in keep]
    return diverged


def _step_rows(xs, amp_cos, rt, nz, dt, s1) -> None:
    """Fill rows 1.. of xs from row 0 with ufuncs on rows (batch of two or more)."""
    rows = list(xs)
    rts = rt if rt is not None else repeat(None)
    nzs = nz if nz is not None else repeat(None)
    for row, nxt, ac, r_n, z_n in zip(rows, rows[1:], amp_cos.tolist(), rts, nzs):
        np.multiply(row, row, out=s1)
        np.multiply(s1, row, out=s1)
        np.divide(s1, 3.0, out=s1)
        np.subtract(row, s1, out=s1)
        if r_n is not None:
            np.subtract(s1, r_n, out=s1)
        s1 += ac
        np.multiply(s1, dt, out=s1)
        np.add(row, s1, out=nxt)
        if z_n is not None:
            nxt += z_n


def _step_floats(xs, amp_cos, rt, nz, dt) -> int:
    """Fill column 0 of xs on Python floats, in _step_rows' operation order.

    Returns how many steps stayed admissible; stepping stops at the first
    step that does not.
    """
    x, path = float(xs[0, 0]), []
    rts = rt[:, 0].tolist() if rt is not None else repeat(None)
    zs = nz[:, 0].tolist() if nz is not None else repeat(None)
    for ac, r_n, z in zip(amp_cos.tolist(), rts, zs):
        s = x - ((x * x) * x) / 3.0
        if r_n is not None:
            s = s - r_n
        x = x + (s + ac) * dt
        if z is not None:
            x = x + z
        if not -STATE_GUARD <= x <= STATE_GUARD:
            break
        path.append(x)
    xs[1:1 + len(path), 0] = path
    return len(path)


def _first_bad_steps(block, c0: int) -> dict:
    """{column: first step whose state is non-finite or beyond STATE_GUARD}.

    block holds steps c0 + 1 .. of each column; NaN fails both bounds.
    """
    ok = (block.max(axis=0) <= STATE_GUARD) & (block.min(axis=0) >= -STATE_GUARD)
    bad = {}
    for j in np.flatnonzero(~ok):
        col = block[:, j]
        out = ~np.isfinite(col) | (np.abs(col) > STATE_GUARD)
        bad[int(j)] = c0 + 1 + int(out.argmax())
    return bad


@dataclass
class RunResult:
    """One ensemble entry, assembled in run-index order."""

    run_index: int
    seed: int
    d_min: Optional[float]
    value: object
    error: Optional[DivergenceError] = None


def run_seed_for(master_seed: int, run_index: int) -> int:
    return derive_seed(master_seed, "run", run_index)


def draw_d_min(run_seed: int, sampler) -> float:
    """The d_min a given run would use (first auxiliary uniform of its stream)."""
    u = RunStream(run_seed).uniforms(2)[0]
    return float(sampler.from_uniform(u))


def _simulate_batch(config: SimConfig, indices, seeds, d_min_sampler=None, *,
                    consumer: Callable[[], object]) -> List[RunResult]:
    """Integrate the runs with the given seeds together; one RunResult each.

    The one integration path of the package: simulate is its one-run
    case and iter_ensemble hands it one batch at a time.  Every stream
    first draws its 2-uniform auxiliary block; with a d_min sampler the
    first uniform sets the run's ramp floor.  Each run streams into
    consumer() (see _integrate) and its value is that consumer's
    result().  A diverged run comes back with value None and its
    DivergenceError set.
    """
    sched = config.amplitude_schedule
    streams = [RunStream(seed) for seed in seeds]
    aux = [s.uniforms(2) for s in streams]  # auxiliary block, see rng.RunStream
    d_mins = [None if d_min_sampler is None else float(d_min_sampler.from_uniform(u[0]))
              for u in aux]
    schedules = [sched if dm is None else LinearRampAmplitude(sched.d_max, dm)
                 for dm in d_mins]
    rates = None
    if isinstance(sched, LinearRampAmplitude):
        rates = np.array([s.rate(config.t_total) for s in schedules])
    consumers = [consumer() for _ in seeds]
    diverged = _integrate(config, rates, streams, consumers)
    out = []
    for r, (i, seed) in enumerate(zip(indices, seeds)):
        if r in diverged:
            out.append(RunResult(i, seed, d_mins[r], None,
                                 DivergenceError(diverged[r], run_index=i)))
        else:
            out.append(RunResult(i, seed, d_mins[r], consumers[r].result()))
        consumers[r] = None  # a run's state goes as soon as it is reduced
    return out


def simulate(config: SimConfig, run_seed: int) -> Trajectory:
    """Simulate one path, bit-identical for identical (config, run_seed), or raise."""
    res = _simulate_batch(config, [None], [run_seed],
                          consumer=partial(PathConsumer, config.n_steps))[0]
    if res.error is not None:
        raise res.error
    t = config.time_grid()
    return Trajectory(t=t, x=res.value, d_a=config.amplitude_schedule.array(t, config.t_total),
                      seed=int(run_seed))


def iter_ensemble(config: SimConfig, n_runs: int, d_min_sampler=None, *,
                  consumer: Callable[[], object], batch_size: int = 128,
                  threads: int = 1) -> Iterator[RunResult]:
    """Stream an ensemble run by run, in index order.

    Each run i uses the seed derived from (master_seed, i).  When a
    d_min sampler is given the schedule must be a linear ramp whose
    d_min is replaced per run by a draw from the run's own stream.
    Batches of batch_size runs are spread over up to `threads` forked
    worker processes (see base.fork_map), and a worker integrates its
    batch in chunks (see _integrate).  Every run streams into
    consumer(), and its value is the consumer's result(): a worker holds
    the chunk buffers and each run's consumer state, and a run leaves
    the batch as soon as its consumer is done.  The reduction happens
    inside the worker, so only per-run records come back to this
    process; a PathConsumer makes each value the run's whole path.  A
    diverged run comes back with value None and its DivergenceError set.
    """
    require(n_runs >= 1, "n_runs must be >= 1")
    if d_min_sampler is not None:
        require(isinstance(config.amplitude_schedule, LinearRampAmplitude),
                "a d_min sampler requires a linear ramp schedule")
    seeds = [run_seed_for(config.master_seed, i) for i in range(n_runs)]
    bounds = [(lo, min(lo + batch_size, n_runs)) for lo in range(0, n_runs, batch_size)]

    def do_batch(b: int) -> List[RunResult]:
        lo, hi = bounds[b]
        return _simulate_batch(config, range(lo, hi), seeds[lo:hi], d_min_sampler,
                               consumer=consumer)

    for batch_out in fork_map(do_batch, len(bounds), threads):
        yield from batch_out


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x,d_a at full double precision (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write("t,x,d_a\n")
        for t, x, d in zip(traj.t, traj.x, traj.d_a):
            fh.write(f"{t:.17g},{x:.17g},{d:.17g}\n")


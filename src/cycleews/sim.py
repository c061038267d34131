"""Euler-Maruyama simulation of a slowly forced bistable oscillator.

State obeys dx = (x - x^3/3 + D(t) cos(omega t)) dt + sigma dW with the
forcing amplitude D(t) given by a schedule (constant, linear ramp, or
piecewise constant).  Integration is explicit Euler on a uniform grid,
with the amplitude evaluated at the left endpoint of each step.

Reproducibility contract: a trajectory is a pure function of
(config, run_seed).  Noise comes from per-run Philox streams (see
rng.py), so ensembles are order-independent, and the same seed yields
bit-identical paths whether a run is simulated alone, inside a batch,
or in a worker process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .base import fork_map, require
from .rng import RunStream, derive_seed

STATE_GUARD = 1.0e6
_CHUNK_STEPS = 8192


class DivergenceError(RuntimeError):
    """State left the admissible region (non-finite or |x| > guard)."""

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

    def value_at(self, t: float, t_total: float) -> float:
        return self.value

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

    def value_at(self, t: float, t_total: float) -> float:
        return self.d_max - (self.d_max - self.d_min) * t / t_total

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

    def _index(self, t):
        idx = np.floor(np.asarray(t, dtype=float) / self.level_duration).astype(int)
        return np.clip(idx, 0, len(self.levels) - 1)

    def value_at(self, t: float, t_total: float) -> float:
        return float(np.asarray(self.levels)[self._index(t)])

    def array(self, t: np.ndarray, t_total: float) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)[self._index(t)]


AmplitudeSchedule = Union[ConstantAmplitude, LinearRampAmplitude, PiecewiseConstantAmplitude]


def amplitude_at(schedule: AmplitudeSchedule, t: float, t_total: float) -> float:
    """Amplitude of the forcing at time t; t must lie in [0, t_total]."""
    require(0.0 <= t <= t_total, f"t={t} outside [0, {t_total}]")
    return float(schedule.value_at(t, t_total))


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


@dataclass(frozen=True)
class PointSampler:
    value: float

    def __post_init__(self):
        require(self.value > 0.0, "point sampler value must be > 0")

    def from_uniform(self, u: float) -> float:
        return self.value


# --------------------------------------------------------------------------
# configuration and trajectory containers
# --------------------------------------------------------------------------

def _whole_steps(t_total: float, dt: float) -> int:
    ratio = t_total / dt
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

def _forcing_tables(schedule, t, t_total, cos_wt):
    """Precompute per-step forcing terms, amplitude at the left endpoint.

    Linear ramps are represented as amp_cos[n] - rate * time_cos[n] so the
    single-run and per-run-ramp ensemble paths share the exact same float
    arithmetic; other schedules collapse to one scalar table.
    """
    if isinstance(schedule, LinearRampAmplitude):
        return schedule.d_max * cos_wt, t * cos_wt, schedule.rate(t_total)
    return schedule.array(t, t_total) * cos_wt, None, None


def _integrate(x0, n_steps, dt, sigma, amp_cos, time_cos=None, rates=None,
               streams=None, guard=STATE_GUARD):
    """Explicit Euler-Maruyama over a batch; returns (xs, diverged).

    xs has shape (n_steps + 1, batch) and diverged maps a batch-local run
    index to the first step where its state left the admissible region
    (those rows are zeroed from that step on).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    batch = len(x0)
    xs = np.empty((n_steps + 1, batch))
    xs[0] = x0
    s1 = np.empty(batch)
    s2 = np.empty(batch)
    sig_sqdt = sigma * math.sqrt(dt)
    diverged = {}

    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n_steps, _CHUNK_STEPS):
            c1 = min(c0 + _CHUNK_STEPS, n_steps)
            if sigma > 0.0:
                xi = np.empty((c1 - c0, batch))
                for r, stream in enumerate(streams):
                    xi[:, r] = stream.normals(c1 - c0)
            for n in range(c0, c1):
                row = xs[n]
                nxt = xs[n + 1]
                np.multiply(row, row, out=s1)
                np.multiply(s1, row, out=s1)
                np.divide(s1, 3.0, out=s1)
                np.subtract(row, s1, out=s1)
                if rates is not None:
                    np.multiply(rates, time_cos[n], out=s2)
                    np.subtract(s1, s2, out=s1)
                s1 += amp_cos[n]
                np.multiply(s1, dt, out=s1)
                np.add(row, s1, out=nxt)
                if sigma > 0.0:
                    np.multiply(xi[n - c0], sig_sqdt, out=s2)
                    nxt += s2
            block = xs[c0 + 1:c1 + 1]
            bad = ~np.isfinite(block) | (np.abs(block) > guard)
            if bad.any():
                for r in np.flatnonzero(bad.any(axis=0)):
                    step = c0 + 1 + int(bad[:, r].argmax())
                    if r not in diverged:
                        diverged[int(r)] = step
                    xs[diverged[int(r)]:c1 + 1, r] = 0.0
    return xs, diverged


def simulate(config: SimConfig, run_seed: int) -> Trajectory:
    """Simulate one path; bit-identical for identical (config, run_seed)."""
    n = config.n_steps
    t = config.time_grid()
    cos_wt = np.cos(config.omega * t)
    amp_cos, time_cos, rate = _forcing_tables(
        config.amplitude_schedule, t, config.t_total, cos_wt)
    stream = RunStream(run_seed)
    stream.uniforms(2)  # auxiliary block, see rng.RunStream
    rates = None if rate is None else np.array([rate])
    xs, diverged = _integrate(
        np.array([config.x0]), n, config.dt, config.sigma,
        amp_cos, time_cos, rates, [stream])
    if diverged:
        raise DivergenceError(diverged[0])
    d_a = config.amplitude_schedule.array(t, config.t_total)
    return Trajectory(t=t, x=np.ascontiguousarray(xs[:, 0]), d_a=d_a, seed=int(run_seed))


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


def iter_ensemble(config: SimConfig, n_runs: int, d_min_sampler=None, *,
                  batch_size: int = 128, threads: int = 1,
                  on_divergence: str = "raise",
                  per_run: Optional[Callable] = None) -> Iterator[RunResult]:
    """Stream an ensemble run by run, in index order.

    Each run i uses the seed derived from (master_seed, i).  When a
    d_min sampler is given the schedule must be a linear ramp whose
    d_min is replaced per run by a draw from the run's own stream.
    Batches of batch_size runs are spread over up to `threads` forked
    worker processes (see base.fork_map); each worker holds one batch
    path of 8 * (n_steps + 1) * batch_size bytes at a time.  per_run,
    when given, is applied to each trajectory inside the worker and its
    result replaces the trajectory, so only those per-run records, not
    full paths, come back to this process.
    """
    require(n_runs >= 1, "n_runs must be >= 1")
    require(on_divergence in ("raise", "flag"), "on_divergence must be 'raise' or 'flag'")
    if d_min_sampler is not None:
        require(isinstance(config.amplitude_schedule, LinearRampAmplitude),
                "a d_min sampler requires a linear ramp schedule")

    n = config.n_steps
    t = config.time_grid()
    cos_wt = np.cos(config.omega * t)
    amp_cos, time_cos, rate = _forcing_tables(
        config.amplitude_schedule, t, config.t_total, cos_wt)
    if isinstance(config.amplitude_schedule, LinearRampAmplitude) and d_min_sampler is not None:
        d_max = config.amplitude_schedule.d_max
    else:
        d_max = None
    seeds = [run_seed_for(config.master_seed, i) for i in range(n_runs)]

    def do_batch(lo: int, hi: int):
        streams = [RunStream(seeds[i]) for i in range(lo, hi)]
        aux = [s.uniforms(2) for s in streams]
        if d_min_sampler is not None:
            d_mins = [float(d_min_sampler.from_uniform(a[0])) for a in aux]
            rates = np.array([(d_max - dm) / config.t_total for dm in d_mins])
        else:
            d_mins = [None] * (hi - lo)
            rates = None if rate is None else np.full(hi - lo, rate)
        xs, diverged = _integrate(
            np.full(hi - lo, config.x0), n, config.dt, config.sigma,
            amp_cos, time_cos, rates, streams)
        out = []
        for r in range(hi - lo):
            i = lo + r
            if r in diverged:
                err = DivergenceError(diverged[r], run_index=i)
                if on_divergence == "raise":
                    raise err
                out.append(RunResult(i, seeds[i], d_mins[r], None, err))
                continue
            if d_mins[r] is not None:
                sched = LinearRampAmplitude(d_max, d_mins[r])
            else:
                sched = config.amplitude_schedule
            traj = Trajectory(t=t, x=np.ascontiguousarray(xs[:, r]),
                              d_a=sched.array(t, config.t_total), seed=seeds[i])
            value = per_run(traj) if per_run is not None else traj
            out.append(RunResult(i, seeds[i], d_mins[r], value))
        return out

    bounds = [(lo, min(lo + batch_size, n_runs)) for lo in range(0, n_runs, batch_size)]
    for batch_out in fork_map(lambda b: do_batch(*bounds[b]), len(bounds), threads):
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


def read_trajectory_csv(path, seed: int = 0) -> Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(t=data[:, 0], x=data[:, 1], d_a=data[:, 2], seed=seed)

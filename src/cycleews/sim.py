"""Euler-Maruyama simulation of a slowly forced bistable oscillator.

State obeys dx = (x - x^3/3 + D(t) cos(omega t)) dt + sigma dW with the
forcing amplitude D(t) given by a schedule (constant, linear ramp, or
piecewise constant).  Integration is explicit Euler on a uniform grid,
with the amplitude evaluated at the left endpoint of each step.

Reproducibility contract: a trajectory is a pure function of
(config, run_seed).  Noise comes from per-run Philox streams (see
rng.py), so ensembles are order-independent.  simulate and iter_ensemble
both go through one batch kernel.  A batch of two or more runs steps
with ufuncs on rows, elementwise per run; a batch of one steps on
Python floats in the same operation order, since numpy's per-call cost
dominates on one-element rows.  That a run yields the same bits alone,
inside a batch, or in a worker process is pinned by the parity tests in
tests/test_sim.py, not by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Union

import numpy as np

from .base import fork_map, require
from .rng import RunStream, derive_seed

STATE_GUARD = 1.0e6
_CHUNK_STEPS = 8192


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

def _integrate(x0, n_steps, dt, sigma, amp_cos, time_cos, rates, streams):
    """Explicit Euler-Maruyama over a batch; returns (xs, diverged).

    xs has shape (n_steps + 1, batch) and diverged maps a batch-local run
    index to the first step where its state left the admissible region
    (those rows are zeroed from that step on).  A batch of one steps on
    Python floats, one chunk at a time, in the operation order of the
    ufunc loop, so both give the same bits (see the parity tests).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    batch = len(x0)
    xs = np.empty((n_steps + 1, batch))
    xs[0] = x0
    s1 = np.empty(batch)
    s2 = np.empty(batch)
    sig_sqdt = sigma * math.sqrt(dt)
    rate = float(rates[0]) if rates is not None else None
    diverged = {}

    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n_steps, _CHUNK_STEPS):
            c1 = min(c0 + _CHUNK_STEPS, n_steps)
            if sigma > 0.0:
                xi = np.empty((c1 - c0, batch))
                for r, stream in enumerate(streams):
                    xi[:, r] = stream.normals(c1 - c0)
            if batch == 1:
                # Python floats in the operation order of the ufunc loop below
                x, path = float(xs[c0, 0]), []
                tcs = time_cos[c0:c1].tolist() if rates is not None else repeat(None)
                zs = xi[:, 0].tolist() if sigma > 0.0 else repeat(None)
                for ac, tc, z in zip(amp_cos[c0:c1].tolist(), tcs, zs):
                    s = x - ((x * x) * x) / 3.0
                    if tc is not None:
                        s = s - rate * tc
                    x = x + (s + ac) * dt
                    if z is not None:
                        x = x + z * sig_sqdt
                    if not -STATE_GUARD <= x <= STATE_GUARD:
                        diverged[0] = c0 + 1 + len(path)
                        break
                    path.append(x)
                xs[c0 + 1:c0 + 1 + len(path), 0] = path
                if diverged:
                    xs[diverged[0]:, 0] = 0.0
                    break
                continue
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
            bad = ~np.isfinite(block) | (np.abs(block) > STATE_GUARD)
            if bad.any():
                for r in np.flatnonzero(bad.any(axis=0)):
                    step = c0 + 1 + int(bad[:, r].argmax())
                    if r not in diverged:
                        diverged[int(r)] = step
                    xs[diverged[int(r)]:c1 + 1, r] = 0.0
    return xs, diverged


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


def _simulate_batch(config: SimConfig, indices, seeds, d_min_sampler=None,
                    per_run: Optional[Callable] = None) -> List[RunResult]:
    """Integrate the runs with the given seeds together; one RunResult each.

    The one integration path of the package: simulate is its one-run
    case and iter_ensemble hands it one batch at a time.  A one-run batch
    steps on Python floats (see _integrate) and gives the bits that run
    gets inside any larger batch.  Every stream first draws its 2-uniform
    auxiliary block; with a d_min sampler the first uniform sets the
    run's ramp floor.  A diverged run comes back with value None and its
    DivergenceError set.  per_run, when given, replaces each trajectory
    by its result as soon as the trajectory is built.
    """
    t = config.time_grid()
    cos_wt = np.cos(config.omega * t)
    sched = config.amplitude_schedule
    streams = [RunStream(seed) for seed in seeds]
    aux = [s.uniforms(2) for s in streams]  # auxiliary block, see rng.RunStream
    d_mins = [None if d_min_sampler is None else float(d_min_sampler.from_uniform(u[0]))
              for u in aux]
    schedules = [sched if dm is None else LinearRampAmplitude(sched.d_max, dm)
                 for dm in d_mins]
    if isinstance(sched, LinearRampAmplitude):
        # each run's ramp enters as d_max cos(wt) - rate * t cos(wt)
        amp_cos, time_cos = sched.d_max * cos_wt, t * cos_wt
        rates = np.array([s.rate(config.t_total) for s in schedules])
    else:
        amp_cos, time_cos, rates = sched.array(t, config.t_total) * cos_wt, None, None
    xs, diverged = _integrate(
        np.full(len(seeds), config.x0), config.n_steps, config.dt, config.sigma,
        amp_cos, time_cos, rates, streams)
    out = []
    for r, (i, seed) in enumerate(zip(indices, seeds)):
        if r in diverged:
            out.append(RunResult(i, seed, d_mins[r], None,
                                 DivergenceError(diverged[r], run_index=i)))
            continue
        traj = Trajectory(t=t, x=np.ascontiguousarray(xs[:, r]),
                          d_a=schedules[r].array(t, config.t_total), seed=int(seed))
        out.append(RunResult(i, seed, d_mins[r],
                             per_run(traj) if per_run is not None else traj))
    return out


def simulate(config: SimConfig, run_seed: int) -> Trajectory:
    """Simulate one path, bit-identical for identical (config, run_seed), or raise."""
    res = _simulate_batch(config, [None], [run_seed])[0]
    if res.error is not None:
        raise res.error
    return res.value


def iter_ensemble(config: SimConfig, n_runs: int, d_min_sampler=None, *,
                  batch_size: int = 128, threads: int = 1,
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
    full paths, come back to this process.  A diverged run comes back
    with value None and its DivergenceError set.
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
                               per_run)

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


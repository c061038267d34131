"""Euler-Maruyama simulation of a slowly forced bistable oscillator.

State obeys dx = (x - x^3/3 + D(t) cos(omega t)) dt + sigma dW with the
forcing amplitude D(t) given by a schedule (constant, linear ramp, or
piecewise constant).  Integration is explicit Euler on a uniform grid,
with the amplitude evaluated at the left endpoint of each step.  The
step x + (x - x^3/3 + D(t) cos(omega t)) dt + sigma sqrt(dt) xi is
evaluated regrouped as x_{k+1} = g_k + ((x_k x_k) c2 + c1) x_k with
c1 = 1 + dt and c2 = -dt/3: the state-independent term g_k =
D(t_k) cos(omega t_k) dt + sigma sqrt(dt) xi_k is built for a whole
chunk of steps at once, vectorised, and the state-dependent part
((x_k x_k) c2 + c1) x_k is added to it in place.  The regrouping is
the same scheme and moves a path by rounding only (tests/test_sim.py
compares it with the textbook form).  The kernel holds one run-major
path buffer, a row per run, and g is written straight into the runs'
rows GROUP_RUNS runs at a time, while they are in cache: a ramp's
forcing for the group is one outer product of its rates with t_k
cos(omega t_k), and each run's row adds the normals its stream returns,
scaled in place.

Reproducibility contract: a trajectory is a pure function of
(config, run_seed).  Noise comes from per-run Philox streams (see
rng.py), so ensembles are order-independent; a run with sigma = 0 and
no d_min sampler draws nothing, so it builds no stream at all.
simulate and iter_ensemble both go through one batch kernel, which
integrates in chunks, LONE_CHUNK_STEPS steps for a batch of one and
CHUNK_STEPS for a wider batch, and hands each run's new samples to a
per-run consumer as a contiguous slice of the run's row; a consumer
copies what it keeps.  simulate returns the whole path a PathConsumer
kept.  Every ensemble run streams into a consumer that reduces it as it
goes and may end it early (a features.FeatureStream in the feature
pipeline and the figure level protocol).  A batch of two or more runs
steps with five ufunc calls per step on strided columns of the buffer,
elementwise per run; a batch of one steps its row on Python floats in
the same operation order (g + s and s + g are the same IEEE sum), since
numpy's per-call cost dominates on one-element columns, and so a short
chunk costs it almost nothing.  Either fills a whole chunk blind to
divergence, which one check finds at any width, run by run on the
samples about to be fed while they are in cache.  That a run yields the
same bits alone, inside a batch, or in a worker process is pinned by the
parity tests in tests/test_sim.py, and that its path and features do not
depend on CHUNK_STEPS by tests/test_features.py, not by construction.
A wider batch's chunk is 4,096 steps: the path buffer and the fed chunk
a consumer may still hold both scale with it, and a shorter chunk costs
more calls per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Union

import numpy as np

from .base import CSV_BLOCK_ROWS, fork_map, require, write_csv
from .rng import RunStream, derive_seed

STATE_GUARD = 1.0e6
CHUNK_STEPS = 4096  # steps per chunk of a batch of two or more runs
LONE_CHUNK_STEPS = 2048  # steps per chunk of a batch of one
GROUP_RUNS = 16  # runs per group of the batch kernel: one group's rows of a chunk fit L2


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
        require(math.inf > self.d_max >= self.d_min > 0.0,
                "linear ramp requires finite d_max >= d_min > 0")

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
        require(math.isfinite(self.level_duration) and self.level_duration > 0.0,
                "level_duration must be finite and > 0")

    def level_index(self, t):
        """Index of the level in force at time(s) t."""
        idx = np.floor(np.asarray(t, dtype=float) / self.level_duration).astype(int)
        return np.clip(idx, 0, len(self.levels) - 1)

    def array(self, t: np.ndarray, t_total: float) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)[self.level_index(t)]


AmplitudeSchedule = Union[ConstantAmplitude, LinearRampAmplitude, PiecewiseConstantAmplitude]


# --------------------------------------------------------------------------
# d_min samplers for ensembles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformSampler:
    low: float
    high: float

    def __post_init__(self):
        require(0.0 < self.low <= self.high < math.inf,
                "uniform sampler needs finite 0 < low <= high")

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
    forcing_period: float
    amplitude_schedule: AmplitudeSchedule
    sigma: float
    x0: float
    master_seed: int = 0

    def __post_init__(self):
        require(self.dt > 0.0, "dt must be > 0")
        require(math.isfinite(self.forcing_period) and self.forcing_period > 0.0,
                "forcing_period must be finite and > 0")
        require(self.t_total > 0.0, "t_total must be > 0")
        require(math.isfinite(self.sigma) and self.sigma >= 0.0,
                "sigma must be finite and >= 0")
        require(abs(self.x0) <= STATE_GUARD,
                f"x0 must be finite and within the divergence bound {STATE_GUARD:g}")
        require(0 <= int(self.master_seed) < 2 ** 64, "master_seed must be a 64-bit integer")
        _whole_steps(self.t_total, self.dt)

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_total, self.dt)

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.forcing_period


@dataclass(frozen=True)
class Trajectory:
    """A run's states x[i] at t = i dt and the seed of its noise stream.

    Its time grid and amplitude are functions of the run's SimConfig
    (see write_trajectory_csv), so it holds only its samples.
    """

    x: np.ndarray
    dt: float
    seed: int


# --------------------------------------------------------------------------
# integration engine
# --------------------------------------------------------------------------

def _increments(g, config: SimConfig, c0: int, rates, streams) -> None:
    """Write the state-independent term of steps c0 .. c0 + g.shape[1] - 1 into g.

    Row j gets g_k = (d_max cos(wt_k) - rate_j * t_k cos(wt_k)) * dt
    + sigma sqrt(dt) xi_k for a linear ramp (rates holds each row's
    rate), D(t_k) cos(wt_k) * dt + sigma sqrt(dt) xi_k for any other
    schedule (rates None); streams[j] supplies row j's normals, which
    are scaled in place and added to its row as the stream returns them.
    The rows are built GROUP_RUNS at a time, so a group's forcing is
    still in cache when its noise is added.
    """
    width, n = g.shape
    dt = config.dt
    t = np.arange(c0, c0 + n) * dt
    cos_wt = np.cos(config.omega * t)
    sched = config.amplitude_schedule
    if rates is None:
        forcing = sched.array(t, config.t_total) * cos_wt
        forcing *= dt
    else:
        t_cos, dmax_cos = t * cos_wt, sched.d_max * cos_wt
    sig_sqdt = config.sigma * math.sqrt(dt)
    for lo in range(0, width, GROUP_RUNS):
        terms = g[lo:lo + GROUP_RUNS]
        if rates is None:
            terms[:] = forcing
        else:
            np.multiply.outer(rates[lo:lo + len(terms)], t_cos, out=terms)
            np.subtract(dmax_cos, terms, terms)
            np.multiply(terms, dt, terms)
        if config.sigma > 0.0:
            for row, stream in zip(terms, streams[lo:]):
                z = stream.normals(n)
                z *= sig_sqdt
                row += z


def chunk_steps(batch: int) -> int:
    """Steps per chunk of the kernel for a batch of `batch` runs (see _integrate)."""
    return LONE_CHUNK_STEPS if batch == 1 else CHUNK_STEPS


def kernel_samples(batch: int, n_steps: int) -> int:
    """At most how many float64 values the kernel holds for a batch of `batch` runs.

    The batch x (chunk + 1) path buffer of _integrate.
    """
    return (min(chunk_steps(batch), n_steps) + 1) * batch


class PathConsumer:
    """Run consumer keeping the whole path; n_fed counts the samples fed, the rest stay 0."""

    def __init__(self, n_steps: int):
        self.x = np.zeros(n_steps + 1)
        self.n_fed = 0

    def feed(self, samples) -> bool:
        end = self.n_fed + len(samples)
        self.x[self.n_fed:end] = samples
        self.n_fed = end
        return False

    def result(self) -> np.ndarray:
        return self.x


def _integrate(config: SimConfig, rates, streams, consumers) -> dict:
    """Explicit Euler-Maruyama over a batch of runs, streamed chunk by chunk.

    Steps go in chunks of chunk_steps(batch) steps, LONE_CHUNK_STEPS for
    a lone run and CHUNK_STEPS for a wider batch, through one reused
    batch x (chunk + 1) path buffer with a row per run.  Each chunk
    first gets every step's state-independent term g_k (forcing and
    noise, see _increments) in columns 1.. of the runs' rows; stepping
    then overwrites every column k + 1 in place with x_{k+1} = g_k +
    ((x_k x_k) c2 + c1) x_k, where c1 = 1 + dt and c2 = -dt/3
    (_step_floats for a batch of one, _step_rows otherwise; neither
    looks for divergence).  The samples then go over GROUP_RUNS runs at
    a time: on those rows, while they are in cache, the one divergence
    check, _first_bad_steps, finds each run's first step whose state is
    non-finite or beyond STATE_GUARD.  Every run hands its new samples
    before that step (the first chunk starts with x0), a contiguous
    slice of its row, to its consumer: consumer.feed returns True once
    the run needs no more, and the run leaves the batch, as does a run
    at its first bad step.  A consumer must copy what it keeps, since
    the buffer is reused.
    rates holds each ramped run's rate (None for other schedules) and
    streams each run's RunStream, positioned at its step normals (it may
    be None when sigma = 0, since no normal is drawn).
    Returns {batch index: first bad step} of those runs whose consumer
    was not done by then.  The arithmetic is elementwise per run, so a
    run's bits do not depend on its batch, and _step_floats keeps
    _step_rows' operation order, so both give the same bits (see the
    parity tests).
    """
    n_steps, dt = config.n_steps, config.dt
    batch = len(consumers)
    chunk = chunk_steps(batch)
    buf = np.empty((batch, min(chunk, n_steps) + 1))
    buf[:, 0] = config.x0
    c1, c2 = 1.0 + dt, -dt / 3.0
    active = list(range(batch))
    diverged = {}

    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n_steps, chunk):
            c_end = min(c0 + chunk, n_steps)
            n, width = c_end - c0, len(active)
            xs = buf[:width, :n + 1]
            _increments(xs[:, 1:], config, c0, None if rates is None else rates[active],
                        [streams[r] for r in active])
            (_step_floats if width == 1 else _step_rows)(xs, c1, c2)
            start = 0 if c0 == 0 else 1  # column 0 is x0 or the previous chunk's end
            keep = []
            for lo in range(0, width, GROUP_RUNS):
                runs = xs[lo:lo + GROUP_RUNS, start:]
                bad = _first_bad_steps(runs[:, 1 - start:], c0)  # steps c0 + 1 ..
                for i, samples in enumerate(runs):
                    j = lo + i
                    r = active[j]
                    stop = bad.get(i, c_end + 1) - c0  # columns before the first bad step
                    finished = stop > start and consumers[r].feed(samples[:stop - start])
                    if finished:
                        continue
                    if i in bad:
                        diverged[r] = bad[i]
                    else:
                        keep.append(j)
            if not keep:
                break
            buf[:len(keep), 0] = xs[keep, n]
            active = [active[j] for j in keep]
    return diverged


def _step_rows(xs, c1: float, c2: float) -> None:
    """Step columns 1.. of xs in place from column 0 with ufuncs (batch of two or more).

    Column k + 1 holds g_k on entry and x_{k+1} = g_k + ((x_k x_k) c2 + c1) x_k
    on return: five ufunc calls per step, on strided column views.  c1
    and c2 go in as column-length arrays and out as a positional
    argument, because numpy's per-call cost, not the arithmetic, sets the
    time of a step on a short column.
    """
    cols, width = iter(xs.T), xs.shape[0]
    c1, c2, s = np.full(width, c1), np.full(width, c2), np.empty(width)
    multiply, add = np.multiply, np.add
    col = next(cols)
    for nxt in cols:
        multiply(col, col, s)
        multiply(s, c2, s)
        add(s, c1, s)
        multiply(s, col, s)
        add(nxt, s, nxt)
        col = nxt


def _step_floats(xs, c1: float, c2: float) -> None:
    """Step row 0 of xs on Python floats, in _step_rows' operation order.

    The same contract as _step_rows: column k + 1 holds g_k on entry and
    x_{k+1} on return, for every column (g + s and s + g are the same
    IEEE sum).  Float * and + overflow to inf and NaN without raising, as
    the ufuncs do, so a diverged state just propagates to the chunk's end.
    """
    x, path = float(xs[0, 0]), []
    for g in xs[0, 1:].tolist():
        x = g + ((x * x) * c2 + c1) * x
        path.append(x)
    xs[0, 1:] = path


def _first_bad_steps(runs, c0: int) -> dict:
    """{row: first step whose state is non-finite or beyond STATE_GUARD}.

    Row i of runs holds steps c0 + 1 .. of one run; NaN fails both bounds.
    """
    ok = (runs.max(axis=1) <= STATE_GUARD) & (runs.min(axis=1) >= -STATE_GUARD)
    bad = {}
    for i in np.flatnonzero(~ok):
        row = runs[i]
        out = ~np.isfinite(row) | (np.abs(row) > STATE_GUARD)
        bad[int(i)] = c0 + 1 + int(out.argmax())
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
    case and iter_ensemble hands it one batch at a time.  A run gets its
    RunStream only when it draws from it: when sigma > 0 or a d_min
    sampler is given.  Every stream first draws its 2-uniform auxiliary
    block; with a d_min sampler the first uniform sets the run's ramp
    floor.  Without either, each stream is None and nothing is drawn, so
    a noise-free run does not load numpy.random.  Each run streams into
    consumer() (see _integrate) and its value is that consumer's
    result().  A diverged run comes back with value None and its
    DivergenceError set.
    """
    sched = config.amplitude_schedule
    streams, d_mins = [None] * len(seeds), [None] * len(seeds)
    if config.sigma > 0.0 or d_min_sampler is not None:
        streams = [RunStream(seed) for seed in seeds]
        aux = [s.uniforms(2) for s in streams]  # auxiliary block, see rng.RunStream
        if d_min_sampler is not None:
            d_mins = [float(d_min_sampler.from_uniform(u[0])) for u in aux]
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
    require(0 <= run_seed < 2 ** 64, f"run_seed must lie in [0, 2**64), got {run_seed}")
    res = _simulate_batch(config, [None], [run_seed],
                          consumer=partial(PathConsumer, config.n_steps))[0]
    if res.error is not None:
        raise res.error
    return Trajectory(res.value, config.dt, int(run_seed))


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
    the chunk path buffer and each run's consumer state, and a run leaves
    the batch as soon as its consumer is done.  The reduction happens
    inside the worker, so only per-run records come back to this
    process; a PathConsumer makes each value the run's whole path.  A
    diverged run comes back with value None and its DivergenceError set.
    """
    require(n_runs >= 1, "n_runs must be >= 1")
    require(batch_size >= 1, "batch_size must be >= 1")
    if d_min_sampler is not None:
        require(isinstance(config.amplitude_schedule, LinearRampAmplitude),
                "a d_min sampler requires a linear ramp schedule")
    if config.sigma > 0.0 or d_min_sampler is not None:
        import numpy.random  # loaded once here, not in each forked worker
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

def write_trajectory_csv(traj: Trajectory, config: SimConfig, path) -> None:
    """A CSV of a whole path of config: its grid, states and amplitude, a block at a time."""
    n = len(traj.x)
    require(n == config.n_steps + 1,
            f"a path of {n} samples is not one of config's {config.n_steps + 1}")

    def rows():
        for lo in range(0, n, CSV_BLOCK_ROWS):
            t = np.arange(lo, min(lo + CSV_BLOCK_ROWS, n)) * config.dt
            d_a = config.amplitude_schedule.array(t, config.t_total)
            yield from np.column_stack((t, traj.x[lo:lo + len(t)], d_a)).tolist()

    write_csv(path, (("t", "%.17g"), ("x", "%.17g"), ("d_a", "%.17g")), rows())

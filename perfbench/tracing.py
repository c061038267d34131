"""Span tracing of one cycleews command, installed from outside the package.

Spans are recorded around calls into each module's public functions.  A
wrapper replaces the name where the caller looks it up: ``experiment.py``
imports its callees by name, so ``experiment.floquet_multiplier`` is wrapped
rather than ``geometry.floquet_multiplier``.  Methods are wrapped on their
class.  Nothing private is called or wrapped, so time spent in private
helpers counts toward the public span that calls them.

A span records its name, layer, start, end, parent span, run id and thread
id.  Spans are kept in memory and written out after the command.  The
ensemble runs its per-run callbacks in worker threads while the main thread
waits inside ``iter_ensemble``; a span opened by a thread that has no open
span of its own therefore takes the innermost open span of the main thread
as its parent.  A span's self time is its duration minus the durations of
its children, so at ``--threads 2`` ``sim.self_s`` is the ``iter_ensemble``
wall time minus the thread time of the callbacks it ran.  Summed over all
spans the self times add up to the root span's duration exactly when every
span hangs off that root, which is what ``check_fidelity`` verifies.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

LAYERS = ("sim", "events", "features", "classify", "geometry", "experiment")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    thread: int
    run: Optional[int]
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "thread": self.thread, "run": self.run,
                "start": self.start, "end": self.end,
                "info": {k: v for k, v in self.info.items() if k != "fit"}}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_ids = {}  # run seed -> ensemble run index
        self._stacks = {}  # thread ident -> open spans, innermost last
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident

    def open(self, name: str, layer: str, run: Optional[int] = None) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        elif tid != self._main:
            top = self._stacks.get(self._main, [])[-1:]
            parent = top[0] if top else None
        else:
            parent = None
        if run is None and parent is not None and parent.thread == tid:
            run = parent.run
        span = Span(next(self._ids), parent.id if parent else None, name, layer,
                    tid, run, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, layer: str, run_of=None, on_result=None) -> None:
        """Replace owner.attr by a function that records one span per call."""
        fn = getattr(owner, attr)
        qualified = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        name = f"{layer}.{qualified}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer, run_of(args) if run_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result, args)
            return result

        setattr(owner, attr, traced)

    def wrap_ensemble(self, owner, run_seed_for) -> None:
        """Wrap the iter_ensemble generator: one span from first item to exhaustion."""
        fn = owner.iter_ensemble

        @functools.wraps(fn)
        def traced(config, n_runs, *args, **kwargs):
            self.run_ids.update(
                (run_seed_for(config.master_seed, i), i) for i in range(n_runs))
            span = self.open("sim.iter_ensemble", "sim")
            span.info.update(run_steps=n_runs * config.n_steps, diverged=0)
            try:
                for res in fn(config, n_runs, *args, **kwargs):
                    if res.error is not None:
                        span.info["diverged"] += 1
                    yield res
            finally:
                self.close(span)

        owner.iter_ensemble = traced

    def run_of_trajectory(self, args):
        return self.run_ids.get(args[0].seed)


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers on the imported cycleews modules."""
    from cycleews import classify, experiment, features, sim

    def steps(span, result, args):
        span.info["run_steps"] = args[0].n_steps

    def jumps(span, result, args):
        span.info["jumps"] = result.n_jumps

    def valid(span, result, args):
        span.info["valid"] = bool(result.valid)

    def floquet(span, result, args):
        config = args[0]
        span.info["periods"] = result.periods_integrated
        span.info["steps"] = result.periods_integrated * round(config.forcing_period / config.dt)

    def svm_fit(span, result, args):
        span.info["iterations"] = result.n_iter_run_
        span.info["fit"] = (args[1], args[2], result)

    tracer.wrap_ensemble(experiment, sim.run_seed_for)
    tracer.wrap(experiment, "simulate", "sim", on_result=steps)
    tracer.wrap(experiment, "detect_jumps", "events", tracer.run_of_trajectory, jumps)
    for name in ("label_breakdown", "truncate_at_onset"):
        tracer.wrap(experiment, name, "events")
    tracer.wrap(experiment, "extract_features", "features", tracer.run_of_trajectory, valid)
    tracer.wrap(features, "detrend_segment", "features")
    for name in ("stratified_kfold", "cross_validate", "drop_column_importance",
                 "permutation_importance", "pca_2d"):
        tracer.wrap(experiment, name, "classify")
    tracer.wrap(classify.LinearHingeSVM, "fit", "classify", on_result=svm_fit)
    for name in ("fit", "transform"):
        tracer.wrap(classify.FeatureScaler, name, "classify")
    tracer.wrap(experiment, "floquet_multiplier", "geometry", on_result=floquet)
    for name in ("measured_delay_phase", "diagnostics_record", "jump_phase_decomposition"):
        tracer.wrap(experiment, name, "geometry")
    for name in ("write_features_csv", "write_report", "read_features_csv"):
        tracer.wrap(experiment, name, "experiment")
    tracer.wrap(experiment, "pca_block", "experiment")


def layer_self_times(spans) -> dict:
    """Self time (duration minus children's durations) summed per layer."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - children[s.id]
    return out


def check_fidelity(spans, root: Span) -> list:
    """Errors if a span is orphaned or the layer self times miss the traced wall."""
    ids = {s.id for s in spans}
    errors = [f"span {s.name} has no parent" for s in spans
              if s is not root and s.parent not in ids]
    own = layer_self_times(spans)
    total = sum(own[layer] for layer in LAYERS)
    if abs(total - root.duration) > 1e-6:
        errors.append(f"layer self times sum to {total:.9f} s, traced wall is "
                      f"{root.duration:.9f} s")
    return errors


def hinge_objective(X, y, model) -> float:
    """Regularized hinge objective of a fitted LinearHingeSVM at (coef_, intercept_).

    mean_i a_i max(0, 1 - y_i (x_i.w + b)) + lambda |w|^2, with lambda = 1/(2m)
    unless set, and balanced weights a_i = m / (2 m_class(i)) unless disabled.
    """
    import numpy as np

    ys = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
    m = len(ys)
    lam = model.lambda_reg if model.lambda_reg is not None else 1.0 / (2.0 * m)
    if model.class_weight is None:
        weights = np.ones(m)
    else:
        pos = ys > 0
        weights = np.where(pos, m / (2.0 * pos.sum()), m / (2.0 * (~pos).sum()))
    margins = ys * (np.asarray(X) @ model.coef_ + model.intercept_)
    w = model.coef_
    return float((weights * np.maximum(0.0, 1.0 - margins)).mean() + lam * (w @ w))


def ns_per_normal(seed: int, chunk: int = 8192, repeats: int = 64) -> float:
    """Median cost of RunStream(seed).normals(chunk), the integrator's chunk size."""
    from cycleews.rng import RunStream

    stream = RunStream(seed)
    stream.normals(chunk)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        stream.normals(chunk)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / chunk * 1e9


def layer_metrics(spans, root: Span, bytes_written: int, seed: int) -> dict:
    """Per-layer (value, unit) of one traced command; zero for layers it never calls."""
    layer_self = layer_self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ensemble, simulate = named("sim.iter_ensemble"), named("sim.simulate")
    run_steps = sum(s.info["run_steps"] for s in ensemble + simulate)
    detect = named("events.detect_jumps")
    extract = named("features.extract_features")
    detrend = named("features.detrend_segment")
    fits = named("classify.LinearHingeSVM.fit")
    pca_ids = {s.id for s in named("experiment.pca_block")}
    decision = [s for s in fits if s.parent in pca_ids]
    floquet = named("geometry.floquet_multiplier")
    floquet_steps = sum(s.info["steps"] for s in floquet)
    io = sum(total(f"experiment.{n}") for n in
             ("write_features_csv", "write_report", "read_features_csv"))
    return {
        "rng.ns_per_normal": (ns_per_normal(seed), "ns"),
        "sim.self_s": (layer_self["sim"], "s"),
        "sim.ns_per_run_step": (ratio(layer_self["sim"], run_steps, 1e9), "ns"),
        "sim.run_steps": (run_steps, "count"),
        "sim.diverged_runs": (sum(s.info["diverged"] for s in ensemble), "count"),
        "events.self_s": (layer_self["events"], "s"),
        "events.us_per_run": (ratio(layer_self["events"], len(detect), 1e6), "us"),
        "events.jumps": (sum(s.info["jumps"] for s in detect), "count"),
        "features.self_s": (layer_self["features"], "s"),
        "features.ms_per_run": (ratio(layer_self["features"], len(extract), 1e3), "ms"),
        "features.detrend_us_per_segment": (
            ratio(total("features.detrend_segment"), len(detrend), 1e6), "us"),
        "features.segments": (len(detrend), "count"),
        "features.valid_frac": (
            ratio(sum(s.info["valid"] for s in extract), len(extract)), "ratio"),
        "classify.self_s": (layer_self["classify"], "s"),
        "classify.cv_s": (total("classify.cross_validate"), "s"),
        "classify.drop_column_s": (total("classify.drop_column_importance"), "s"),
        "classify.permutation_s": (total("classify.permutation_importance"), "s"),
        "classify.pca_s": (total("experiment.pca_block"), "s"),
        "classify.svm_fits": (len(fits), "count"),
        "classify.svm_iterations": (sum(s.info["iterations"] for s in fits), "count"),
        "classify.ms_per_fit": (ratio(sum(s.duration for s in fits), len(fits), 1e3), "ms"),
        "classify.svm_objective": (
            hinge_objective(*decision[-1].info["fit"]) if decision else 0.0, "1"),
        "geometry.floquet_s": (total("geometry.floquet_multiplier"), "s"),
        "geometry.floquet_periods": (sum(s.info["periods"] for s in floquet), "count"),
        "geometry.ns_per_step": (
            ratio(total("geometry.floquet_multiplier"), floquet_steps, 1e9), "ns"),
        "geometry.delay_s": (total("geometry.measured_delay_phase"), "s"),
        "experiment.io_s": (io, "s"),
        "experiment.bytes_written": (bytes_written, "B"),
        "experiment.self_s": (layer_self["experiment"], "s"),
    }

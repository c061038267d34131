"""Input validation, the convergence error and the process-pool map."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative method stopped before meeting its convergence check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def as_float_2d(x, name: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    require(arr.ndim == 2, f"{name} must be 2-dimensional")
    return arr


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    require(bool(np.isfinite(arr).all()), f"{name} contains non-finite values")
    return arr


_worker_task = None  # the task function, set in each forked worker by _install_task


def _install_task(fn: Callable[[int], object]) -> None:
    global _worker_task
    _worker_task = fn


def _run_task(index: int):
    return _worker_task(index)


def fork_map(fn: Callable[[int], object], n_tasks: int, workers: int = 1) -> Iterator:
    """Yield fn(0), ..., fn(n_tasks - 1) in order, computed by up to `workers` processes.

    Workers are forked, so each inherits fn (which may close over arrays,
    callbacks or other unpicklable state) and receives only a task index;
    only results and raised exceptions are pickled back.  At most
    min(workers, n_tasks) processes are started, and with one of them the
    calls run in-line.  Every worker is reaped before the generator
    finishes; an exception from fn is re-raised here and stops the pool.
    Forking copies only the calling thread, so call this from a process
    that runs no other Python threads at the time.
    """
    workers = min(workers, n_tasks)
    if workers <= 1:
        for index in range(n_tasks):
            yield fn(index)
        return
    import multiprocessing  # imported here so serial commands never pay for it

    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_install_task, initargs=(fn,)) as pool:
        yield from pool.imap(_run_task, range(n_tasks))
        pool.close()
        pool.join()

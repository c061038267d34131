"""Input validation, the convergence error, the process-pool map and write_csv,
the writer of every output table (doubles as %.17g, which reads back bit for bit)."""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence, Tuple

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
    that runs no other Python threads at the time.  Workers inherit the
    parent's BLAS setting: the command line pins BLAS to one thread before
    numpy loads (cli.py), so there each worker computes on one core.
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


CSV_BLOCK_ROWS = 512  # rows formatted by one % in write_csv


def write_csv(path, columns: Sequence[Tuple[str, str]], rows: Iterable[Sequence]) -> None:
    """A CSV of rows under the header of columns, (name, printf format) pairs.

    Rows are formatted CSV_BLOCK_ROWS at a time, so rows may be a
    generator over a long path, of which one block is held at a time.
    """
    line = ",".join(fmt for _, fmt in columns) + "\n"
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            fh.write(line * len(block) % tuple(chain.from_iterable(block)))

import os

import pytest

from cycleews.base import fork_map


def test_fork_map_single_worker_runs_in_line(pool_sizes):
    pids = list(fork_map(lambda i: (i, os.getpid()), 3, workers=1))
    assert pids == [(i, os.getpid()) for i in range(3)]
    assert list(fork_map(lambda i: i, 1, workers=4)) == [0]
    assert pool_sizes == []


def test_fork_map_workers_keep_order(pool_sizes):
    squares = {i: i * i for i in range(7)}
    # a lambda cannot be pickled: the workers inherit it through fork
    out = list(fork_map(lambda i: (squares[i], os.getpid()), 7, workers=2))
    assert [v for v, _ in out] == [i * i for i in range(7)]
    assert all(pid != os.getpid() for _, pid in out)
    assert pool_sizes == [2]


def test_fork_map_starts_at_most_one_worker_per_task(pool_sizes):
    assert list(fork_map(lambda i: -i, 2, workers=64)) == [0, -1]
    assert pool_sizes == [2]


def test_fork_map_reraises_worker_error():
    def task(i):
        if i == 2:
            raise KeyError(f"task {i}")
        return i

    with pytest.raises(KeyError, match="task 2"):
        list(fork_map(task, 4, workers=2))

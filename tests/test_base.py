import math
import os
import struct

import numpy as np
import pytest

from cycleews.base import CSV_BLOCK_ROWS, fork_map, write_csv


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


# --------------------------------------------------------------------------
# write_csv
# --------------------------------------------------------------------------

CSV_COLUMNS = (("x", "%.17g"), ("n", "%d"), ("k", "%d"), ("name", "%s"), ("y", "%.17g"))
SPECIAL_DOUBLES = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                   0.1, -2.0 / 3.0, 1e-300, 0.0)


def csv_test_rows(n_rows):
    """Python and numpy doubles and ints, and strings, special doubles included."""
    rng = np.random.default_rng(5)
    y = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    for i in range(n_rows):
        yield (SPECIAL_DOUBLES[i % len(SPECIAL_DOUBLES)], i, np.int64(-7 * i) * 2 ** 40,
               f"run{i}", y[i])


def oracle_csv(rows) -> str:
    return "x,n,k,name,y\n" + "".join(f"{x:.17g},{n:d},{k:d},{name},{y:.17g}\n"
                                       for x, n, k, name, y in rows)


@pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1025])
def test_write_csv_matches_per_row_oracle(tmp_path, n_rows):
    path = tmp_path / "out.csv"
    write_csv(path, CSV_COLUMNS, csv_test_rows(n_rows))
    text = path.read_text()
    assert text == oracle_csv(csv_test_rows(n_rows))
    lines = text.splitlines()
    assert len(lines) == n_rows + 1
    # every %.17g field reads back as the same double, bit for bit (NaN as NaN)
    for line, row in zip(lines[1:], csv_test_rows(n_rows)):
        fields = line.split(",")
        for field, value in ((fields[0], row[0]), (fields[4], row[4])):
            if math.isnan(value):
                assert math.isnan(float(field))
            else:
                assert struct.pack("<d", float(field)) == struct.pack("<d", value)


def test_write_csv_pulls_rows_one_block_at_a_time(tmp_path):
    pulled = []

    def rows():
        for i in range(3 * CSV_BLOCK_ROWS):
            pulled.append(i)
            if i == CSV_BLOCK_ROWS + 3:
                raise RuntimeError("stop")
            yield (i,)

    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_csv(path, (("i", "%d"),), rows())
    # the first block was written whole before the second was pulled
    assert len(pulled) == CSV_BLOCK_ROWS + 4
    assert path.read_text() == "i\n" + "".join(f"{i}\n" for i in range(CSV_BLOCK_ROWS))

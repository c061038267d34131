"""Regenerate the input pool of the ``classify`` workload.

Each pool entry is the ``features.csv`` of a full 1000-run default-config
``cycleews experiment`` with master seed k, stored gzip-compressed (with a
zero timestamp, so the bytes are reproducible) as
``perfbench/pool/features_seed<k>.csv.gz``.  A full ensemble takes about a
minute, longer than one benchmark run may spend on set-up, so the entries
are made once and committed; ``run.py`` maps workload seed n to entry
n % POOL_SIZE.

Run from the repository root:  python3 perfbench/make_pool.py
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_DIR = Path(__file__).resolve().parent / "pool"
POOL_SIZE = 5


def pool_path(k: int) -> Path:
    return POOL_DIR / f"features_seed{k}.csv.gz"


def main() -> int:
    POOL_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k in range(POOL_SIZE):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            subprocess.run([sys.executable, "-m", "cycleews.cli", "experiment",
                            "--runs", "1000", "--seed", str(k), "--threads", "2",
                            "--out", tmp], env=env, check=True,
                           stderr=subprocess.DEVNULL)
            data = (Path(tmp) / "features.csv").read_bytes()
            report = json.loads((Path(tmp) / "report.json").read_text())
        with open(pool_path(k), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
            fh.write(data)
        print(f"seed {k}: n_valid {report['n_valid']}, cv_mean {report['cv']['mean']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

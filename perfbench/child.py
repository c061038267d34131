"""One repetition of a cycleews command, in a fresh process.

Usage: python3 perfbench/child.py RECORD MODE CLI-ARGS...

MODE is ``plain`` (timing only), ``trace`` (timing plus the layer spans of
tracing.py) or ``setup`` (stop at the first pipeline call).  The command's
entry point is wrapped where ``cycleews.cli`` looks it up; entering it ends
set-up and leaving it ends the timed work.  Times are ``time.perf_counter``
readings, which on Linux come from CLOCK_MONOTONIC and so compare with the
parent's reading taken just before it started this process.  RECORD receives
a JSON object with the return code, the two times, the environment and, when
traced, the per-layer metrics; the spans go to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"experiment": "run_experiment", "classify": "classify_from_csv",
                "diagnose": "run_diagnose"}


class SetupDone(BaseException):
    """Raised at the first pipeline call of a set-up probe (passes the CLI's handler)."""


def environment() -> dict:
    import numpy
    from numpy._core import _multiarray_umath

    features = _multiarray_umath.__cpu_features__
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_features": sorted(k for k, on in features.items() if on)}


def main(argv) -> int:
    record_path, mode, cli_args = Path(argv[0]), argv[1], argv[2:]
    import cycleews
    import cycleews.cli as cli

    source = Path(cycleews.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"cycleews imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracing.instrument(tracer)
    entry = ENTRY_POINTS[cli_args[0]]
    pipeline = getattr(cli, entry)
    times = {}

    def timed(*args, **kwargs):
        times["first"] = time.perf_counter()
        if mode == "setup":
            raise SetupDone
        root = tracer.open(f"experiment.{entry}", "experiment") if tracer else None
        try:
            return pipeline(*args, **kwargs)
        finally:
            if root is not None:
                tracer.close(root)
                times.update(first=root.start, done=root.end, root=root)
            else:
                times["done"] = time.perf_counter()

    setattr(cli, entry, timed)
    try:
        rc = cli.main(cli_args)
    except SetupDone:
        rc = 0
    record = {"rc": rc, "t_first": times.get("first"), "t_done": times.get("done"),
              "env": environment()}
    if tracer is not None and rc == 0:
        root = times["root"]
        out_dir = Path(cli_args[cli_args.index("--out") + 1])
        written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        seed = int(cli_args[cli_args.index("--seed") + 1])
        record["fidelity_errors"] = tracing.check_fidelity(tracer.spans, root)
        record["layers"] = tracing.layer_metrics(tracer.spans, root, written, seed)
        with open(record_path.with_name("spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
    record_path.write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

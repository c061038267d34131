"""Benchmark of the cycleews command line: protocol, classify and diagnose.

Run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 3 --seconds 55 --trace 0

Each repetition runs one cycleews command in a fresh process (child.py)
against the sources under ./src.  With ``--trace 0`` the harness first starts
a few set-up probes, then repeats the command until the next repetition
would end past ``--seconds`` by more than half its length (or past
1.2 x ``--seconds``), checks every output and prints the end-to-end metrics
(means over the repetitions; the set-up time is a median).  With
``--trace 1`` the untraced repetitions leave room in ``--seconds`` for one
traced repetition, and the per-layer metrics are printed instead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
A results file with every repetition, the output fingerprints and the
environment goes to ``.perfbench/results/``; ``--compare FILE`` reports
whether this run's outputs are byte-identical to those of an earlier one.
See README.md for the workloads, the metrics and the recorded baseline.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from make_pool import POOL_SIZE, pool_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5

PROTOCOL_RUNS = 256  # 2 threads x the default batch_size of 128
DIAGNOSE_AMPLITUDES = (0.75, 1.5)  # drawn from this range, above the fold value 2/3
DIAGNOSE_PERIODS = ("100", "225", "400")
# Acceptance criterion 1 (tests/test_acceptance.py): desk scale and full protocol.
DESK_BAND = (0.78, 1.0)
FULL_BAND = (0.82, 0.92)
FINGERPRINTED = ("report.json", "features.csv", "pca_coords.csv", "diagnostics.json")
DETERMINISM_NOTE = ("outputs are bit-identical for a given config only per numpy build "
                    "and CPU feature set")


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _reject_constant(name: str):
    raise CheckError(f"JSON contains {name}")


def strict_json(path: Path):
    """Parse a JSON report, rejecting NaN and Infinity."""
    require(path.is_file(), f"{path.name} missing")
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def csv_rows(path: Path) -> list:
    require(path.is_file(), f"{path.name} missing")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_cv(report: dict) -> float:
    require(report.get("cv") is not None, "report has no cross-validation block")
    scores = report["cv"]["scores"]
    require(all(0.0 <= s <= 1.0 for s in scores), f"CV scores outside [0, 1]: {scores}")
    return report["cv"]["mean"]


class Outcome(NamedTuple):
    work: float  # units of the workload's throughput metric
    band: Optional[tuple]  # (cv_mean, (low, high)) for acceptance criterion 1


class Workload(NamedTuple):
    throughput: str  # name the README and the printout give work / wall_s
    argv: Callable  # (seed, out_dir, inputs_dir) -> cycleews arguments
    check: Callable  # (out_dir, inputs_dir) -> Outcome, raises CheckError
    prepare: Optional[Callable] = None  # (seed, inputs_dir), untimed


def protocol_argv(seed, out, inputs):
    return ["experiment", "--runs", str(PROTOCOL_RUNS), "--seed", str(seed),
            "--threads", "2", "--out", str(out)]


def protocol_check(out, inputs) -> Outcome:
    report = strict_json(out / "report.json")
    rows = csv_rows(out / "features.csv")
    require(len(rows) == PROTOCOL_RUNS, f"features.csv has {len(rows)} rows")
    require(report["n_runs"] == PROTOCOL_RUNS, f"report n_runs {report['n_runs']}")
    n_valid = sum(r[7] == "1" for r in rows)
    require(report["n_valid"] == n_valid, "report n_valid disagrees with features.csv")
    require(not report["warnings"], f"warnings: {report['warnings']}")
    require(len(csv_rows(out / "pca_coords.csv")) == n_valid, "pca_coords.csv row count")
    config = report["provenance"]["config"]
    steps = round(config["t_total"] / config["dt"])
    return Outcome(PROTOCOL_RUNS * steps, (check_cv(report), DESK_BAND))


def classify_prepare(seed, inputs):
    with gzip.open(pool_path(seed % POOL_SIZE)) as src:
        (inputs / "features.csv").write_bytes(src.read())


def classify_argv(seed, out, inputs):
    return ["classify", "--features", str(inputs / "features.csv"), "--seed", str(seed),
            "--out", str(out)]


def classify_check(out, inputs) -> Outcome:
    report = strict_json(out / "report.json")
    n_valid = sum(r[7] == "1" for r in csv_rows(inputs / "features.csv"))
    require(report["n_valid"] == n_valid, "report n_valid disagrees with the input")
    require(len(csv_rows(out / "pca_coords.csv")) == n_valid, "pca_coords.csv row count")
    cv_mean = check_cv(report)
    # per fold: CV, full-set drop-column baseline, one fit per dropped
    # feature, permutation models; plus the PCA decision line
    fits = len(report["cv"]["scores"]) * (len(report["drop_column"]) + 3) + 1
    return Outcome(fits, (cv_mean, FULL_BAND))


def diagnose_amplitudes(seed) -> list:
    rng = random.Random(seed)
    return [rng.uniform(*DIAGNOSE_AMPLITUDES) for _ in range(2)]


def diagnose_argv(seed, out, inputs):
    return ["diagnose", "--da", ",".join(repr(a) for a in diagnose_amplitudes(seed)),
            "--periods", ",".join(DIAGNOSE_PERIODS), "--seed", str(seed), "--out", str(out)]


def diagnose_check(out, inputs) -> Outcome:
    rows = strict_json(out / "diagnostics.json")["rows"]
    points = 2 * len(DIAGNOSE_PERIODS)
    require(len(rows) == points, f"diagnostics.json has {len(rows)} rows, not {points}")
    for row in rows:
        where = f"d_a={row['d_a']}, period={row['forcing_period']}"
        require(row["log_floquet"] is not None and row["log_floquet"] < 0.0,
                f"log_floquet {row['log_floquet']} at {where}")
        require(row["measured_delay_phase"] is not None, f"no measured delay at {where}")
    return Outcome(len(rows), None)


WORKLOADS = {
    "protocol": Workload("run_steps_per_s", protocol_argv, protocol_check),
    "classify": Workload("svm_fits_per_s", classify_argv, classify_check, classify_prepare),
    "diagnose": Workload("grid_points_per_s", diagnose_argv, diagnose_check),
}


# --------------------------------------------------------------------------
# running repetitions
# --------------------------------------------------------------------------

def spawn(cmd, log_path: Path, timeout: float):
    """Run cmd to completion; returns (start time, exit code, rusage, timed out)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > timeout:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:  # Ctrl-C or SIGTERM: end the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage, timed_out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_rep(workload: Workload, seed: int, mode: str, rep_dir: Path, inputs: Path,
            timeout: float) -> dict:
    """One child process; returns its measurements and the errors found."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    record_path = rep_dir / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), mode,
           *workload.argv(seed, out, inputs)]
    start, rc, usage, timed_out = spawn(cmd, rep_dir / "log.txt", timeout)
    rep = {"mode": mode, "rc": rc, "errors": []}
    if timed_out:
        rep["errors"].append(f"killed after {timeout:.0f} s")
    elif rc != 0:
        rep["errors"].append(f"exit code {rc} (see {rep_dir / 'log.txt'})")
    if not record_path.is_file():
        rep["errors"].append("no timing record")
        return rep
    record = json.loads(record_path.read_text())
    rep["env"] = record["env"]
    if record["t_first"] is None:
        rep["errors"].append("the pipeline was never called")
        return rep
    rep["setup_s"] = record["t_first"] - start
    if mode == "setup" or rep["errors"]:
        return rep
    rep.update(wall_s=record["t_done"] - record["t_first"],
               cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0,
               digests={name: sha256(out / name) for name in FINGERPRINTED
                        if (out / name).is_file()})
    if mode == "trace":
        rep["errors"].extend(f"fidelity: {e}" for e in record["fidelity_errors"])
        rep["layers"] = record["layers"]
    try:
        outcome = workload.check(out, inputs)
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        rep["errors"].append(f"output check: {exc}")
        return rep
    rep["work"] = outcome.work
    if outcome.band is not None:
        value, (low, high) = outcome.band
        rep["band"] = {"cv_mean": value, "band": [low, high], "inside": low <= value <= high}
    return rep


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"git_commit": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_commit": None, "git_dirty": None}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(args, workload: Workload, work_dir: Path, inputs: Path) -> list:
    """Set-up probes, timed repetitions and the traced run, within the time limit."""
    started = time.perf_counter()
    reps = []

    def remaining():
        return TIME_LIMIT_S - (time.perf_counter() - started)

    def one(mode, index):
        rep = run_rep(workload, args.seed, mode, work_dir / f"{mode}{index}", inputs,
                      remaining())
        reps.append(rep)
        return rep

    if not args.trace:
        for i in range(SETUP_PROBES):
            one("setup", i)
    measured_from = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        rep = one("plain", len(durations))
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        elapsed = time.perf_counter() - measured_from
        # start another repetition while it ends, on average, within --seconds
        # (leaving room for the traced one), and never past 1.2 x --seconds
        ahead = typical * (1 + args.trace)
        if rep["errors"] or elapsed + ahead - typical / 2 > args.seconds or \
                elapsed + ahead > 1.2 * args.seconds or ahead > remaining():
            break
    if args.trace:
        one("trace", 0)
    return reps


# --------------------------------------------------------------------------
# summary
# --------------------------------------------------------------------------

def check_fingerprints(reps: list) -> None:
    """A digest that differs between repetitions of one commit and seed is an error."""
    reference = next((r["digests"] for r in reps if "digests" in r), None)
    for rep in reps:
        if "digests" in rep and rep["digests"] != reference:
            changed = sorted(k for k in set(rep["digests"]) | set(reference)
                             if rep["digests"].get(k) != reference.get(k))
            rep["errors"].append(f"outputs differ from the first repetition: {changed}")


def end_to_end(reps: list) -> dict:
    ok = [r for r in reps if r["mode"] == "plain" and not r["errors"]]
    setups = [r["setup_s"] for r in reps if "setup_s" in r and not r["errors"]]
    # Means, not medians: the machine's speed drifts smoothly over tens of
    # seconds, and the mean of two or three repetitions keeps all of that
    # work in the figure, which the median of so few does not.
    wall = statistics.fmean(r["wall_s"] for r in ok)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.fmean(r["cpu_s"] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        "throughput_per_s": (ok[0]["work"] / wall, "1/s"),
    }


def per_layer(reps: list) -> dict:
    traced = next(r for r in reps if "layers" in r)
    plain = [r["wall_s"] for r in reps if r["mode"] == "plain" and not r["errors"]]
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.median(plain), "s")
    return metrics


def environment(reps: list) -> dict:
    env = next(r["env"] for r in reps if "env" in r)
    for rep in reps:
        rep.pop("env", None)
    env.update(nproc=os.cpu_count(), source_sha256=source_digest(), **git_state(),
               determinism=DETERMINISM_NOTE)
    return env


def compare(path: Path, results: dict) -> None:
    earlier = json.loads(path.read_text())
    if (earlier["workload"], earlier["seed"]) != (results["workload"], results["seed"]):
        print(f"compare: {path} is {earlier['workload']} seed {earlier['seed']}; "
              f"outputs are not comparable")
        return
    old, new = earlier["fingerprints"], results["fingerprints"]
    for name in sorted(set(old) | set(new)):
        state = "identical" if old.get(name) == new.get(name) else "DIFFERS"
        print(f"compare: {name:<17} {state}")
    verdict = "yes" if old == new else "no"
    print(f"compare: outputs byte-identical to {path}: {verdict}")


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="earlier results file")
    args = parser.parse_args()
    if not (ROOT / "src" / "cycleews" / "__init__.py").is_file():
        print(f"cycleews sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = STATE / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True)
    if workload.prepare is not None:
        workload.prepare(args.seed, inputs)

    reps = measure(args, workload, work_dir, inputs)
    check_fingerprints(reps)
    failed = [r for r in reps if r["errors"]]
    for rep in failed:
        print(f"FAILED {rep['mode']}: {'; '.join(rep['errors'])}")
    try:
        metrics = per_layer(reps) if args.trace else end_to_end(reps)
    except (StopIteration, statistics.StatisticsError):
        print("no repetition succeeded; no metrics", file=sys.stderr)
        return 1

    bands = [r["band"] for r in reps if "band" in r]
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "environment": environment(reps),
               "fingerprints": next((r["digests"] for r in reps if "digests" in r), {}),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               "repetitions": reps}
    results_path = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1))

    env = results["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempts {len(reps)}  results {results_path.relative_to(ROOT)}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['git_commit']} (dirty {env['git_dirty']}); {DETERMINISM_NOTE}")
    print(f"cpu features: {' '.join(env['cpu_features'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"  {workload.throughput:<34} {metrics['throughput_per_s'][0]:>16.6g} 1/s")
    print(f"  {'error_rate':<34} {len(failed) / len(reps):>16.6g} ratio"
          f"  ({len(failed)} of {len(reps)} attempts)")
    if bands:
        band = bands[0]
        low, high = band["band"]
        state = "inside" if band["inside"] else "OUTSIDE (reported, see README)"
        print(f"acceptance criterion 1: cv_mean {band['cv_mean']:.4f}, band "
              f"[{low}, {high}]: {state}")
    for name, digest in results["fingerprints"].items():
        print(f"fingerprint {name:<17} {digest}")
    if args.compare:
        compare(args.compare, results)
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run a workload on several seeds and report the spread of every metric.

Run from the repository root, for example:

    python3 perfbench/steadiness.py --workloads protocol diagnose \\
        --seeds 101-110 --traced 101,102 --baseline perfbench/baseline.json

Each seed is one ``run.py --trace 0`` run (and one ``--trace 1`` run for the
seeds in ``--traced``), one after another.  The spread of a metric is
(q3 - q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.  With ``--baseline FILE`` the
workloads' entries in FILE are replaced by the new figures; entries of other
workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"


def seed_list(text: str) -> list:
    seeds = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not last.get("correct"):
        sys.exit(f"{' '.join(cmd[1:])} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(results: list, seconds: float) -> dict:
    out = {"seeds": [r["seed"] for r in results], "run_seconds": seconds}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": metric["unit"], "values": values,
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    reps = [[x for x in r["repetitions"] if x["mode"] == "plain"] for r in results]
    out["plain_repetitions"] = [len(x) for x in reps]
    out["band"] = [next((x["band"] for x in rs if "band" in x), None) for rs in reps]
    out["failed"] = [sum(bool(x["errors"]) for x in r["repetitions"]) for r in results]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110")
    parser.add_argument("--traced", type=seed_list, default=[], help="e.g. 101,102")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="baseline file to update")
    args = parser.parse_args()

    baseline = {"end_to_end": {}, "per_layer": {}, "fingerprints": {}}
    if args.baseline and args.baseline.is_file():
        baseline = json.loads(args.baseline.read_text())
    for workload in args.workloads:
        results = [run(workload, seed, 0, args.seconds) for seed in args.seeds]
        traced = [run(workload, seed, 1, args.seconds) for seed in args.traced]
        table = summary(results, args.seconds)
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"repetitions per run {table['plain_repetitions']}")
        for name in results[0]["metrics"]:
            m = table[name]
            print(f"  {name:<18} median {m['median']:12.6g} {m['unit']:<4} "
                  f"q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  spread {m['spread']:.4f}")
        baseline["end_to_end"][workload] = table
        baseline["per_layer"][workload] = {
            str(r["seed"]): {k: m["value"] for k, m in r["metrics"].items()} for r in traced}
        baseline["fingerprints"][workload] = {str(r["seed"]): r["fingerprints"]
                                              for r in results}
        baseline["environment"] = results[0]["environment"]
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

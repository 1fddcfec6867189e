#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

    python3 perfbench/steady.py [--runs N] [--workloads A,B] [--seconds S]

Runs every workload as two sets of N runs (seeds 1..N) on the same build,
first set A of every workload, then set B, one run at a time.  For each
end-to-end metric it prints both set medians, each set's quartile spread
(statistics.quantiles(n=4) IQR over the median) and how much worse B's
median is than A's, against the metric's bound in BENCHMARK.json.  A
metric passes when both spreads (except setup_s's) and the drift stay
within the bound; `tight` marks a spread above a third of the bound.
Raw results go to .bench_work/steady.json.  Exits 1 if anything fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for label in ("A", "B"):
        for workload in workloads:
            for seed in range(1, args.runs + 1):
                result = one_run(workload, seed, args.seconds)
                results[workload][label].append(result)
                print(f"{label} {workload} seed {seed}: correct "
                      f"{result['correct']} {result['failed']}/"
                      f"{result['attempted']} failed", file=sys.stderr,
                      flush=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "steady.json").write_text(json.dumps(results))

    ok = True
    print(f"{'workload':16} {'metric':12} {'unit':4} {'median A':>10} "
          f"{'median B':>10} {'spread A':>8} {'spread B':>8} {'drift':>7} "
          f"{'bound':>6}")
    for workload in workloads:
        sets = results[workload]
        failed = sum(r["failed"] for s in sets.values() for r in s)
        attempted = sum(r["attempted"] for s in sets.values() for r in s)
        if failed:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            spread_a = harness.quartile_spread(a)
            spread_b = harness.quartile_spread(b)
            drift = harness.relative_drift(statistics.median(a),
                                           statistics.median(b),
                                           metric["better"])
            spreads = [] if name == "setup_s" else [spread_a, spread_b]
            verdict = "ok"
            if drift > bound or any(s > bound for s in spreads):
                verdict, ok = "FAIL", False
            elif any(s > bound / 3 for s in spreads):
                verdict = "tight"
            print(f"{workload:16} {name:12} {metric['unit']:4} "
                  f"{statistics.median(a):10.4f} "
                  f"{statistics.median(b):10.4f} {spread_a:8.3f} "
                  f"{spread_b:8.3f} {drift:7.3f} {bound:6.2f}  {verdict}")
        print(f"{workload:16} failed passes {failed}/{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the dagsched CLI, timed from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--pin]

Run it from the root of a checkout.  It builds `dagsched` and the
in-process companion perfbench_trace from source into .bench_build/,
generates the workload's inputs from --seed into .bench_work/, and then,
one child process at a time:

  --trace 0  alternates full passes of the workload's command with
             set-up probes (the same command with --die-at-decision 1)
             for S seconds, and reports wall_s, setup_s and peak_rss_mb.
  --trace 1  times full passes for a third of S, then repeats one traced
             in-process pass of perfbench_trace for the rest, and reports
             the per-layer metrics of the fastest traced pass.

Every pass is checked (exit code, summary, decision digest against the
library run on the same input and, for the default seed, against
pinned.json) and counted in `attempted`/`failed`.  The last line on stdout
is the JSON result.  --pin rewrites pinned.json's entry for the workload
from the library run on the default seed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
PINNED = BENCH / "pinned.json"

DEFAULT_SEED = 1
# Passes per best-of-k group (see harness.best_of_k).
K = 2
# Traced passes per --trace 1 run, at least.
MIN_TRACED = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Self times that, with trace.unattributed_s, add up to trace.wall_s.
SELF_TIMES = [
    "workload.load_s", "fault.build_s", "checkpoint.fingerprint_s",
    "sim.self_s", "core.decide_s", "core.arrival_s", "core.completion_s",
    "core.deadline_s", "core.capacity_s", "baselines.decide_s",
    "baselines.callback_s", "select.s", "obs.event_write_s", "sweep.run_s",
]
PER_LAYER = {
    "workload.load_s": "s", "workload.mb_per_s": "MB/s",
    "workload.bytes": "B", "workload.jobs": "count",
    "workload.nodes": "count",
    "core.decide_s": "s", "core.decide_calls": "count",
    "core.decide_p50_ns": "ns", "core.decide_p99_ns": "ns",
    "core.arrival_s": "s", "core.completion_s": "s", "core.deadline_s": "s",
    "core.capacity_s": "s",
    "baselines.decide_s": "s", "baselines.decide_p99_ns": "ns",
    "baselines.callback_s": "s",
    "select.s": "s", "select.calls": "count",
    "sim.run_s": "s", "sim.self_s": "s", "sim.decisions": "count",
    "sim.ns_per_decision": "ns",
    "fault.build_s": "s", "fault.transitions": "count",
    "obs.events": "count", "obs.event_bytes": "B",
    "obs.event_write_s": "s", "obs.telemetry_snapshots": "count",
    "checkpoint.snapshots": "count", "checkpoint.bytes_per_snapshot": "B",
    "checkpoint.write_s": "s", "checkpoint.fingerprint_s": "s",
    "sweep.cells": "count", "sweep.cell_p50_s": "s",
    "sweep.cell_max_s": "s", "sweep.serial_s": "s", "sweep.speedup": "x",
    "sweep.worker_idle_share": "ratio", "sweep.run_s": "s",
    "mem.tracked_bytes_per_job": "B/job", "mem.kernel_bytes_per_job": "B/job",
    "mem.unfolding_bytes_per_job": "B/job",
    "mem.scheduler_bytes_per_job": "B/job",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

RUN_KEYS = ("profit", "completed", "decisions")
LIBRARY_KEYS = RUN_KEYS + ("failed",)
EVENT_KEYS = ("events", "events_fnv")
CELL_KEYS = ("profit_exact", "completed", "decisions")

# Input sizes put one full pass at roughly 0.1-0.2 s on a 4-core VM.
WORKLOADS = {
    "run-thm2": {
        "generate": ["--scenario", "thm2", "--horizon", "2500"],
        "jobs": 6000,
        "run": ["--scheduler", "s", "--engine", "event"],
    },
    "run-profit-slot": {
        "generate": ["--scenario", "profit", "--horizon", "3000"],
        "jobs": 2750,
        "run": ["--scheduler", "profit", "--engine", "slot"],
    },
    "durable-churn": {
        "generate": ["--scenario", "thm2", "--horizon", "1000"],
        "jobs": 2500,
        "run": ["--scheduler", "s", "--engine", "event"],
        "durable": True,
    },
    # equi is left out: its event-engine cell alone takes seconds and would
    # set the sweep's wall time.
    "sweep-baselines": {
        "generate": ["--scenario", "thm2", "--horizon", "1500"],
        "jobs": 3750,
        "sweep": ["--schedulers", "s,edf,llf,fcfs,hdf,federated",
                  "--engines", "event,slot", "--sweep-jobs", "2"],
    },
}
MACHINE = ["--m", "16"]


class BenchError(Exception):
    """The benchmark cannot run at all (no sources, build or input failure)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(argv, log_path):
    with open(log_path, "ab") as out:
        code = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode
    if code != 0:
        tail = Path(log_path).read_text(errors="replace")[-3000:]
        raise BenchError(f"{' '.join(map(str, argv))} failed:\n{tail}")


def build():
    """Builds dagsched and perfbench_trace; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no dagsched sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    repo, prefix, trace = BUILD / "dagsched", BUILD / "prefix", BUILD / "trace"
    log_path = BUILD / "build.log"
    if not (repo / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT, "-B", repo,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DDAGSCHED_BUILD_TESTS=OFF",
                    "-DDAGSCHED_BUILD_BENCH=OFF",
                    "-DDAGSCHED_BUILD_EXAMPLES=OFF"], log_path)
    run_logged(["cmake", "--build", repo, "-j", jobs], log_path)
    run_logged(["cmake", "--install", repo, "--prefix", prefix], log_path)
    if not (trace / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", BENCH / "trace", "-B", trace,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DDAGSCHED_PREFIX={prefix}"], log_path)
    run_logged(["cmake", "--build", trace, "-j", jobs], log_path)
    return repo / "tools" / "dagsched", trace / "perfbench_trace"


def spawn(argv, stdout_path):
    """Runs one child to completion; returns (seconds, exit code, KiB RSS).

    The clock spans exec to reap.  stdout goes to `stdout_path`, stderr
    next to it.
    """
    argv = [str(a) for a in argv]
    with open(stdout_path, "wb") as out, \
            open(f"{stdout_path}.err", "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed = (time.perf_counter_ns() - start) * 1e-9
    return elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Bench:
    def __init__(self, name, seed, dagsched, tracer):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.dagsched = dagsched
        self.tracer = tracer
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.input = self.work / "input.wl"
        self.attempted = 0
        self.failed = 0
        self.expected = None  # digest every pass must match
        self.first = None     # first full pass's digest and artifacts
        self.full_s, self.probe_s, self.rss_kib = [], [], []

    # -- Commands ----------------------------------------------------------

    def run_flags(self, prefix):
        flags = self.spec["run"] + MACHINE
        if self.spec.get("durable"):
            horizon = self.spec["generate"][-1]
            flags += [
                "--faults",
                f"mtbf=200,mttr=20,horizon={horizon},seed={self.seed},"
                "min-procs=4,restart=zero",
                "--events", self.work / f"{prefix}events.jsonl",
                "--checkpoint", self.work / f"{prefix}run.ckpt",
                "--checkpoint-interval", "3000",
                "--telemetry", self.work / f"{prefix}telemetry.jsonl",
                "--telemetry-interval", "100",
            ]
        return flags

    def cli_argv(self):
        if "sweep" in self.spec:
            return [self.dagsched, "sweep", self.input, *self.spec["sweep"],
                    *MACHINE, "--out", self.work / "sweep.jsonl", "--quiet"]
        return [self.dagsched, "run", self.input, *self.run_flags("")]

    def probe_argv(self):
        if "sweep" in self.spec:
            # The sweep's set-up is its ingest: probe it on the same input.
            return [self.dagsched, "run", self.input, "--scheduler", "s",
                    *MACHINE, "--die-at-decision", "1"]
        return [*self.cli_argv(), "--die-at-decision", "1"]

    def tool_argv(self, mode):
        if "sweep" in self.spec:
            return [self.tracer, mode, self.input, "--sweep",
                    *self.spec["sweep"], *MACHINE]
        return [self.tracer, mode, self.input, *self.run_flags("lib-")]

    # -- Checked operations --------------------------------------------------

    def attempt(self, check, *args):
        """Runs one checked operation.  A failed check, or an output that is
        missing or does not parse, counts as a failed operation."""
        self.attempted += 1
        try:
            return check(*args)
        except (harness.CheckFailed, OSError, ValueError, KeyError) as failure:
            self.failed += 1
            log(f"{self.name}: check failed: {failure}")
            return None

    def generate(self):
        """Writes the seed's input with the workload's job count.

        The generator derives its arrival rate from a seeded estimate of
        the mean job work, so at a fixed --load the job count and offered
        load swing by +-15% between seeds.  A second call with --load
        scaled by target/first count lands within about 1% of the target
        count, at an offered load that no longer depends on the seed.
        """
        load = 4.0
        for _ in range(2):
            argv = [self.dagsched, "generate", *self.spec["generate"],
                    "--load", repr(load), *MACHINE, "--seed", str(self.seed),
                    "--out", self.input]
            out = self.work / "generate.out"
            _, code, _ = spawn(argv, out)
            words = out.read_text().split()
            if code != 0 or len(words) < 2 or not words[1].isdigit():
                raise BenchError(f"generating {self.name} inputs failed")
            load *= self.spec["jobs"] / int(words[1])

    def set_up(self):
        self.generate()
        library = self.attempt(self.library_digest)
        self.expected = library
        if self.seed == DEFAULT_SEED:
            pinned = json.loads(PINNED.read_text()).get(self.name)
            if library is not None:
                self.attempt(self.compare_library, pinned, library, "library")
            if pinned is not None:
                self.expected = pinned
        if self.expected is None:
            raise BenchError("no reference digest")
        # Warm the input's pages and the binary: one untimed pass of each.
        self.full_pass()
        self.probe_pass()
        self.full_s, self.probe_s, self.rss_kib = [], [], []

    def library_digest(self):
        out = self.work / "library.out"
        _, code, _ = spawn(self.tool_argv("digest"), out)
        harness.check_exit(code, 0)
        return json.loads(out.read_text())["digest"]

    def compare_library(self, expected, actual, what):
        if expected is None:
            raise harness.CheckFailed(f"no pinned digest for {self.name}")
        if "sweep" in self.spec:
            self.compare_cells(harness.library_sweep_cells(expected),
                               harness.library_sweep_cells(actual), what)
            return
        keys = LIBRARY_KEYS + (EVENT_KEYS if self.spec.get("durable") else ())
        harness.check_digest(expected, actual, keys, what)

    def compare_cells(self, expected, actual, what):
        if expected.keys() != actual.keys():
            raise harness.CheckFailed(f"{what} has other sweep cells")
        for key, cell in expected.items():
            harness.check_digest(cell, actual[key], CELL_KEYS,
                                 f"{what} cell {'/'.join(key)}")

    def full_pass(self):
        # A stale artifact of an earlier pass must not pass this one's checks.
        for name in ("sweep.jsonl", "events.jsonl", "run.ckpt"):
            (self.work / name).unlink(missing_ok=True)
        out = self.work / "cli.out"
        elapsed, code, rss = spawn(self.cli_argv(), out)
        self.full_s.append(elapsed)
        self.rss_kib.append(rss)
        self.attempt(self.check_full, code, out)

    def check_full(self, code, out):
        harness.check_exit(code, 0)
        if "sweep" in self.spec:
            cells = harness.parse_sweep_report(
                (self.work / "sweep.jsonl").read_text())
            self.compare_cells(harness.library_sweep_cells(self.expected),
                               cells, "CLI sweep")
            return
        digest = harness.parse_run_summary(out.read_text())
        keys = RUN_KEYS
        if self.spec.get("durable"):
            digest.update(self.check_artifacts(digest))
            keys += EVENT_KEYS
        harness.check_digest(self.expected, digest, keys, "CLI run")

    def check_artifacts(self, digest):
        """Event log and checkpoint of a durable pass; returns the event
        digest fields."""
        events = self.work / "events.jsonl"
        data = events.read_bytes()
        if data.count(b"\n") != digest.get("events"):
            raise harness.CheckFailed(
                "event log line count differs from `wrote N events`")
        info = self.work / "checkpoint-info.out"
        _, code, _ = spawn(
            [self.dagsched, "checkpoint", "info", self.work / "run.ckpt"],
            info)
        if code != 0:
            raise harness.CheckFailed(f"checkpoint info exited {code}")
        # FNV-1a once per run; later passes must be byte-identical to it.
        sha = hashlib.sha256(data).hexdigest()
        if self.first is None:
            self.first = {"sha": sha, "events_fnv": harness.fnv1a64(data)}
        elif sha != self.first["sha"]:
            raise harness.CheckFailed("event log differs between passes")
        return {"events_fnv": self.first["events_fnv"]}

    def probe_pass(self):
        elapsed, code, _ = spawn(self.probe_argv(), self.work / "probe.out")
        self.probe_s.append(elapsed)
        self.attempt(harness.check_exit, code, 9)

    def traced_pass(self):
        out = self.work / "trace.out"
        _, code, _ = spawn(self.tool_argv("trace"), out)
        harness.check_exit(code, 0)
        result = json.loads(out.read_text())
        self.compare_library(self.expected, result["digest"], "traced pass")
        harness.check_layer_sum(result["metrics"], SELF_TIMES)
        return result["metrics"]

    # -- Runs -----------------------------------------------------------------

    def measure(self, seconds):
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(self.full_s) < K:
            self.full_pass()
            self.probe_pass()
        (self.work / "passes.json").write_text(json.dumps(
            {"full_s": self.full_s, "probe_s": self.probe_s,
             "rss_kib": self.rss_kib}))
        return {
            "wall_s": harness.best_of_k(self.full_s, K),
            "setup_s": harness.best_of_k(self.probe_s, K),
            "peak_rss_mb": statistics.median(self.rss_kib) / 1024.0,
        }

    def measure_traced(self, seconds):
        deadline = time.monotonic() + seconds
        cli_deadline = time.monotonic() + seconds / 3.0
        while time.monotonic() < cli_deadline or len(self.full_s) < K:
            self.full_pass()
        wall_s = harness.best_of_k(self.full_s, K)
        traced = []
        while time.monotonic() < deadline or len(traced) < MIN_TRACED:
            metrics = self.attempt(self.traced_pass)
            if metrics is not None:
                traced.append(metrics)
            elif len(traced) == 0 and self.failed > 2 * MIN_TRACED:
                raise BenchError("the traced pass keeps failing")
        best = dict(min(traced, key=lambda m: m["trace.wall_s"]))
        # The checkpoint cost is a difference of two passes: take its
        # median over all traced passes instead of the fastest pass's.
        best["checkpoint.write_s"] = statistics.median(
            m["checkpoint.write_s"] for m in traced)
        best["trace.overhead_s"] = best["trace.wall_s"] - wall_s
        return {name: best[name] for name in PER_LAYER}


def result_line(bench, metrics, units):
    return json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def pin(bench):
    """Rewrites the workload's pinned digest from the library run."""
    pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pinned[bench.name] = bench.library_digest()
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    log(f"pinned {bench.name} at seed {DEFAULT_SEED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        dagsched, tracer = build()
        if args.pin:
            bench = Bench(args.workload, DEFAULT_SEED, dagsched, tracer)
            bench.generate()
            pin(bench)
            return 0
        bench = Bench(args.workload, args.seed, dagsched, tracer)
        bench.set_up()
        if args.trace:
            line = result_line(bench, bench.measure_traced(args.seconds),
                               PER_LAYER)
        else:
            line = result_line(bench, bench.measure(args.seconds),
                               END_TO_END)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

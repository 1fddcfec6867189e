#!/usr/bin/env bash
# Decision-log parity harness for scheduler/queue refactors.
#
# Any change to scheduler queue data structures must keep decision semantics
# byte-identical (docs/PERFORMANCE.md, "Decision-log parity").  This script
# makes that rule mechanically checkable:
#
#   1. emit mode: run every named scheduler x {no faults, churn-resume,
#      churn-zero} (x both engines where the scheduler supports them), plus
#      churn-zero with work overruns for s, edf, llf, equi and profit, over
#      generated workloads and save the event logs:
#        scripts/decision_parity.sh emit BUILD_DIR OUT_DIR
#   2. diff mode: compare two such log directories decisions-only with
#      `dagsched trace diff --decisions` (exit 4 on divergence), then the
#      `counters` of every cell line, and the summary's roll-up, in each
#      directory's sweep.report.  Every counter is a function of the
#      decision sequence (docs/OBSERVABILITY.md), so a value that differs
#      for a key both sides have fails; a key on one side only is counted,
#      not failed:
#        scripts/decision_parity.sh diff BUILD_DIR PRE_DIR POST_DIR
#   3. telemetry mode: run the whole matrix twice -- once plain
#      (--no-telemetry), once with per-cell telemetry recorders attached --
#      and require the event logs to be byte-identical (the obs/telemetry
#      off==seed contract):
#        scripts/decision_parity.sh telemetry BUILD_DIR
#   4. resume mode: for every combo, kill a checkpointing run at a mid-run
#      decision (--die-at-decision, exit 9), resume from the last snapshot,
#      and require the resumed event log to be byte-identical to the
#      uninterrupted run's suffix (docs/RECOVERY.md).  The resumed run also
#      writes an --obs report, whose engine.decisions counter must equal
#      its results' decisions (the counters are whole-run totals):
#        scripts/decision_parity.sh resume BUILD_DIR
#
# The same matrix is pinned to absolute FNV-1a64 digests by the
# DecisionManifest ctest (tests/golden/decision_manifest.txt).
#
# emit and telemetry run the matrix through `dagsched sweep` (docs/SWEEP.md):
# one process fans the cells across PARITY_JOBS worker threads (default:
# nproc) and the per-cell event logs are byte-identical to serial runs by
# the sweep determinism contract.  resume mode stays per-process (it drives
# kill/resume of whole CLI invocations) but runs PARITY_JOBS combos at a
# time.  Typical use: emit with the pre-change binary, apply the change,
# rebuild, emit again, then diff.  Exits non-zero on the first divergence.
set -euo pipefail

mode="${1:?usage: decision_parity.sh emit BUILD_DIR OUT_DIR | diff BUILD_DIR PRE_DIR POST_DIR}"
build="${2:?missing BUILD_DIR}"
cli="$build/tools/dagsched"
[ -x "$cli" ] || { echo "no dagsched CLI at $cli" >&2; exit 2; }

jobs="${PARITY_JOBS:-$(nproc 2>/dev/null || echo 4)}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Workloads: a deadline-heavy thm2 instance (exercises Q/P admission and
# drains), the same scenario overloaded at load 4 (S parks most arrivals in
# P and promotes dozens at completions), and two profit-function instances
# for the Section-5 scheduler -- one at load 0.8 and one overloaded at 2.5,
# where most arrivals exhaust their decay range without a valid deadline.
gen_workloads() {
  "$cli" generate --scenario thm2 --load 0.9 --m 16 --horizon 400 --seed 7 \
    --out "$workdir/thm2.wl" >/dev/null
  "$cli" generate --scenario thm2 --load 4 --m 16 --horizon 300 --seed 13 \
    --out "$workdir/thm2-over.wl" >/dev/null
  "$cli" generate --scenario tight --load 1.4 --m 8 --horizon 300 --seed 11 \
    --out "$workdir/tight.wl" >/dev/null
  "$cli" generate --scenario profit --load 0.8 --m 16 --horizon 200 --seed 3 \
    --out "$workdir/profit.wl" >/dev/null
  "$cli" generate --scenario profit --load 2.5 --m 16 --horizon 200 --seed 5 \
    --out "$workdir/profit-over.wl" >/dev/null
}

# scheduler:engine pairs; the profit scheduler is slot-engine-only.
combos() {
  local s
  for s in s s-wc s-noadm edf llf hdf fcfs federated equi equi-profit; do
    echo "$s event thm2"
    echo "$s slot thm2"
    echo "$s event tight"
  done
  echo "profit slot profit"
  echo "profit slot profit-over"
  for s in s s-wc s-noadm; do
    echo "$s event thm2-over"
    echo "$s slot thm2-over"
  done
}

# Every cell as "scheduler engine workload fault-mode": each combo under
# each fault mode, plus the overrun cells -- churn-zero with scaled node
# works, so some jobs arrive carrying more work than they declare.
cells() {
  local line sched fmode
  while read -r line; do
    for fmode in none churn-resume churn-zero; do echo "$line $fmode"; done
  done < <(combos)
  for sched in s edf llf equi; do
    echo "$sched event thm2-over overrun"
    echo "$sched slot thm2-over overrun"
  done
  echo "profit slot profit-over overrun"
}

fault_spec() {
  case "$1" in
    none) echo "" ;;
    churn-resume)
      echo "mtbf=60,mttr=20,horizon=300,seed=5,min-procs=4,restart=resume" ;;
    churn-zero)
      echo "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero" ;;
    overrun)
      echo "$(fault_spec churn-zero),overrun-prob=0.3,overrun-factor=2" ;;
  esac
}

fault_args() {
  local spec
  spec="$(fault_spec "$1")"
  [ -n "$spec" ] && echo "--faults $spec" || echo ""
}

# The full parity matrix as a `dagsched sweep --cells` file: cell ids keep
# the ${sched}_${engine}_${wl}_${fmode} tag naming, so per-cell event logs
# land under the same file names the per-process loop used to write.
gen_cells() {
  local out="$1" sched engine wl fmode
  : > "$out"
  while read -r sched engine wl fmode; do
    printf '{"id":"%s_%s_%s_%s","workload":"%s","scheduler":"%s","engine":"%s","fault":"%s","faults":"%s"}\n' \
      "$sched" "$engine" "$wl" "$fmode" "$workdir/$wl.wl" "$sched" \
      "$engine" "$fmode" "$(fault_spec "$fmode")" >> "$out"
  done < <(cells)
}

emit() {
  local out="$1"
  mkdir -p "$out"
  gen_workloads
  gen_cells "$workdir/cells.jsonl"
  # The merged report has no .jsonl suffix so diff mode's *.jsonl glob
  # only ever sees event logs.
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 \
    --sweep-jobs "$jobs" --events-dir "$out" --out "$out/sweep.report" \
    --quiet >/dev/null
  echo "emitted $(ls "$out"/*.jsonl | wc -l) event logs to $out" \
    "(merged sweep report: $out/sweep.report)"
}

diff_dirs() {
  local pre="$1" post="$2" fail=0 f base
  for f in "$pre"/*.jsonl; do
    base="$(basename "$f")"
    if [ ! -f "$post/$base" ]; then
      echo "MISSING in post: $base"; fail=1; continue
    fi
    if ! "$cli" trace diff "$f" "$post/$base" --decisions >/dev/null; then
      echo "DIVERGED: $base"
      "$cli" trace diff "$f" "$post/$base" --decisions || true
      fail=1
    fi
  done
  [ "$fail" -eq 0 ] && echo "decision-log parity: all $(ls "$pre"/*.jsonl | wc -l) combos identical"
  diff_counters "$pre/sweep.report" "$post/sweep.report" || fail=1
  return "$fail"
}

# "key value" per counter of a sweep report, sorted by key: "ID:name" for
# the counters object of each cell line (cell ID) and "summary:name" for
# the summary's roll-up.  Each is a flat object of numbers.
report_counters() {
  awk '
    /^[{]"kind":"cell","id":"/ {
      key = $0
      sub(/^[{]"kind":"cell","id":"/, "", key)
      sub(/".*/, "", key)
    }
    /^[{]"kind":"summary"/ { key = "summary" }
    !/^[{]"kind":"(cell|summary)"/ { next }
    match($0, /"counters":[{][^}]*[}]/) {
      n = split(substr($0, RSTART + 12, RLENGTH - 13), pairs, ",")
      for (i = 1; i <= n; ++i) {
        split(pairs[i], kv, ":")
        gsub(/"/, "", kv[1])
        print key ":" kv[1], kv[2]
      }
    }' "$1" | LC_ALL=C sort
}

# Compares counters cell by cell, so two opposite changes in different
# cells cannot cancel out in the roll-up.  A key on one side only (say, a
# pre report written before cell lines carried counters) is counted and
# its first few are listed, not failed.
diff_counters() {
  local pre="$1" post="$2" f
  for f in "$pre" "$post"; do
    [ -f "$f" ] || { echo "MISSING sweep report: $f"; return 1; }
  done
  LC_ALL=C join -a 1 -a 2 -e '<none>' -o 0,1.2,2.2 \
      <(report_counters "$pre") <(report_counters "$post") |
    awk '$2 == "<none>" { if (++post_only <= 5) print "counter only in post: " $1
                          next }
         $3 == "<none>" { if (++pre_only <= 5) print "counter only in pre: " $1
                          next }
         { n++ }
         $2 != $3 { print "COUNTER DIFFERS: " $1 ": " $2 " -> " $3; bad = 1 }
         END { if (post_only + pre_only > 0)
                 print post_only + 0 " counters only in post, " \
                       pre_only + 0 " only in pre"
               if (!bad) print "counter parity: all " n " shared counters equal"
               exit bad }'
}

telemetry_check() {
  gen_workloads
  gen_cells "$workdir/cells.jsonl"
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 --sweep-jobs "$jobs" \
    --no-telemetry --events-dir "$workdir/events_off" --quiet >/dev/null
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 --sweep-jobs "$jobs" \
    --events-dir "$workdir/events_on" --quiet >/dev/null
  local fail=0 n=0 f base
  for f in "$workdir/events_off"/*.jsonl; do
    base="$(basename "$f")"
    n=$((n + 1))
    if ! cmp -s "$f" "$workdir/events_on/$base"; then
      echo "TELEMETRY DIVERGED: ${base%.jsonl}"
      "$cli" trace diff "$f" "$workdir/events_on/$base" --decisions || true
      fail=1
    fi
  done
  [ "$fail" -eq 0 ] && \
    echo "telemetry parity: all $n combos byte-identical with telemetry attached"
  return "$fail"
}

# One kill/resume combo; always returns 0 and records the outcome as a
# status file so the parallel pool can aggregate after `wait`.
resume_one() {
  local sched="$1" engine="$2" wl="$3" fmode="$4"
  local fargs tag decisions kill_at interval status emitted report
  local result_decisions counter_decisions
  fargs="$(fault_args "$fmode")"
  tag="${sched}_${engine}_${wl}_${fmode}"
  # Uninterrupted reference run.
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --events "$workdir/$tag.full.jsonl" \
    > "$workdir/$tag.summary.txt"
  decisions="$(awk '/^decisions:/{print $2}' "$workdir/$tag.summary.txt")"
  if [ "$decisions" -lt 3 ]; then
    : > "$workdir/status/$tag.skip"
    return 0
  fi
  # Kill a checkpointing run halfway; the interval guarantees at least
  # one snapshot lands before the kill point.
  kill_at=$((decisions / 2))
  [ "$kill_at" -lt 2 ] && kill_at=2
  interval=$((kill_at / 3))
  [ "$interval" -lt 1 ] && interval=1
  status=0
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --events "$workdir/$tag.killed.jsonl" \
    --checkpoint "$workdir/$tag.ckpt" --checkpoint-interval "$interval" \
    --die-at-decision "$kill_at" >/dev/null || status=$?
  if [ "$status" -ne 9 ]; then
    echo "KILL DID NOT EXIT 9 (got $status): $tag" > "$workdir/status/$tag.fail"
    return 0
  fi
  emitted="$("$cli" checkpoint info "$workdir/$tag.ckpt" \
    | awk '/^events_emitted:/{print $2}')"
  # Resume and compare against the reference log's suffix.
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --resume "$workdir/$tag.ckpt" \
    --events "$workdir/$tag.resumed.jsonl" \
    --obs "$workdir/$tag.resumed.json" >/dev/null
  if ! cmp -s <(tail -n +$((emitted + 1)) "$workdir/$tag.full.jsonl") \
      "$workdir/$tag.resumed.jsonl"; then
    echo "RESUME DIVERGED: $tag (checkpoint events_emitted=$emitted)" \
      > "$workdir/status/$tag.fail"
    return 0
  fi
  report="$("$cli" report "$workdir/$tag.resumed.json")"
  result_decisions="$(awk '/^\[/{section=$0} section=="[results]" &&
    $1=="decisions:"{print $2}' <<<"$report")"
  counter_decisions="$(awk '/^\[/{section=$0} section=="[counters]" &&
    $1=="engine.decisions:"{print $2}' <<<"$report")"
  if [ -z "$result_decisions" ] ||
      [ "$counter_decisions" != "$result_decisions" ]; then
    echo "RESUME COUNTERS DISAGREE: $tag (engine.decisions" \
      "'$counter_decisions', results decisions '$result_decisions')" \
      > "$workdir/status/$tag.fail"
    return 0
  fi
  : > "$workdir/status/$tag.ok"
}

resume_check() {
  gen_workloads
  mkdir -p "$workdir/status"
  local sched engine wl fmode
  while read -r sched engine wl fmode; do
    while [ "$(jobs -rp | wc -l)" -ge "$jobs" ]; do wait -n || true; done
    resume_one "$sched" "$engine" "$wl" "$fmode" &
  done < <(cells)
  wait
  local fails skips runs
  fails="$(find "$workdir/status" -name '*.fail' | wc -l)"
  skips="$(find "$workdir/status" -name '*.skip' | wc -l)"
  runs="$(find "$workdir/status" -name '*.ok' | wc -l)"
  if [ "$fails" -ne 0 ]; then
    cat "$workdir/status"/*.fail
    return 1
  fi
  echo "crash-recovery parity: all $runs kill-resume" \
    "combos byte-identical, counters whole-run ($skips skipped as too short)"
}

case "$mode" in
  emit) emit "${3:?missing OUT_DIR}" ;;
  diff) diff_dirs "${3:?missing PRE_DIR}" "${4:?missing POST_DIR}" ;;
  telemetry) telemetry_check ;;
  resume) resume_check ;;
  *) echo "unknown mode $mode" >&2; exit 2 ;;
esac

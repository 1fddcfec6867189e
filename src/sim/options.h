// SimOptions: the one run-options struct, passed unchanged from the CLI and
// the experiment runner through run_simulation() and the engines down to
// SimKernel.  Fields that only apply to one stepping discipline are ignored
// by the other.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/assignment.h"
#include "sim/context.h"
#include "util/types.h"

namespace dagsched {

class CheckpointSink;
struct CheckpointFile;
class FaultInjector;
struct ObsSink;
class TelemetryRecorder;

struct SimOptions {
  ProcCount num_procs = 1;
  /// Resource augmentation: work units processed per processor-time-unit
  /// (per slot on the slot engine).
  double speed = 1.0;
  /// Record a full execution trace into SimResult::trace (O(#intervals)).
  bool record_trace = false;
  /// Hard cap on decision points (guards against scheduler livelock bugs);
  /// 0 = unlimited.  The slot engine runs its kernel with 0: its slot
  /// horizon bounds the run instead.
  std::size_t max_decisions = 100'000'000;
  /// Invoked after each decision has been validated; used by property tests
  /// to inspect scheduler state mid-run.
  std::function<void(const EngineContext&, const Assignment&)> observer;
  /// Observability sink (counters / decision events); null = off, and the
  /// run is bit-identical to an uninstrumented one.
  const ObsSink* obs = nullptr;
  /// Fault injector (processor churn / work overruns); null = no faults,
  /// and the run is bit-identical to a fault-free build.  Processor
  /// transitions become decision points: failed processors stop executing,
  /// decide() sees the reduced ctx.num_procs(), and the scheduler's
  /// on_capacity_change() runs its degradation policy.  Use integral
  /// transition times for slot-aligned churn.
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder (obs/telemetry): decide/transition/admission
  /// latency histograms plus periodic snapshots of counters and byte gauges.
  /// Null = off; when set, timing happens outside the scheduler callbacks so
  /// decision logs stay byte-identical (the parity script proves it).
  TelemetryRecorder* telemetry = nullptr;
  /// Periodic checkpoint writer (sim/checkpoint); null = off, and the run
  /// is byte-identical to one without checkpointing.  Snapshots are taken
  /// at the top of the stepping loop, before event delivery, so a resumed
  /// run replays the exact continuation.
  CheckpointSink* checkpoint = nullptr;
  /// Parsed checkpoint to resume from (already verified compatible); null =
  /// start from the beginning.
  const CheckpointFile* resume = nullptr;
  /// Simulated hard crash for the recovery harness: the process _Exit(9)s
  /// immediately after decision number `die_at_decision` is counted, before
  /// any of its effects reach the event log or a checkpoint.  0 = off.
  std::size_t die_at_decision = 0;
  /// Overload degradation: wall-clock budget per decide() in nanoseconds.
  /// When a decision exceeds it, the kernel sheds up to overload_shed_max of
  /// the scheduler's lowest-density jobs (SchedulerBase::shed_load, kDrop
  /// events with `overload.shed.*` slugs) instead of letting queue pressure
  /// overflow into a SimFailureKind; it recovers automatically at the first
  /// under-budget decision.  0 = off, the byte-identical seed path.
  std::uint64_t decide_budget_ns = 0;
  /// Max jobs shed per over-budget decision (>= 1 when the budget is on).
  std::size_t overload_shed_max = 1;
  /// Test hook: replaces the measured decide latency (deterministic overload
  /// tests).  Arguments: decision number (1-based), measured nanoseconds.
  std::function<std::uint64_t(std::size_t, std::uint64_t)> overload_probe;
};

}  // namespace dagsched

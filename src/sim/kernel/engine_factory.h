// Kernel-backed engine factory: one seam through which callers (the
// experiment runner, the CLI, benchmarks) construct either stepping driver
// without including engine headers or hardcoding an engine type.
//
// Both engines execute the same SimKernel (sim/kernel/kernel.h); the
// EngineKind only selects the time-stepping discipline laid on top of it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "fault/injector.h"
#include "job/job.h"
#include "obs/sink.h"
#include "sim/assignment.h"
#include "sim/context.h"
#include "sim/node_selector.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"

namespace dagsched {

class CheckpointSink;
struct CheckpointFile;
class TelemetryRecorder;

enum class EngineKind {
  kEvent,  // continuous event-to-event stepping (EventEngine)
  kSlot,   // discrete unit time slots, the paper's native model (SlotEngine)
};

/// "event" or "slot" -- stable names used by CLI flags and run reports.
const char* engine_kind_name(EngineKind kind);

/// Inverse of engine_kind_name; nullopt on unknown names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// Engine-agnostic superset of EngineOptions / SlotEngineOptions.  Fields
/// that only apply to one stepping discipline are ignored by the other.
struct SimOptions {
  ProcCount num_procs = 1;
  /// Resource augmentation: work units per processor-time-unit.
  double speed = 1.0;
  bool record_trace = false;
  /// Decision-point cap (event engine only; livelock guard).
  std::size_t max_decisions = 100'000'000;
  /// Slot cap (slot engine only; 0 = derive a bound from the workload).
  std::uint64_t max_slots = 0;
  std::function<void(const EngineContext&, const Assignment&)> observer;
  const ObsSink* obs = nullptr;
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder (obs/telemetry); null = off.
  TelemetryRecorder* telemetry = nullptr;
  /// Periodic checkpoint writer (sim/checkpoint); null = off.
  CheckpointSink* checkpoint = nullptr;
  /// Parsed checkpoint to resume from (already verified compatible).
  const CheckpointFile* resume = nullptr;
  /// Crash-recovery test hook: _Exit(9) after decision #N (0 = off).
  std::size_t die_at_decision = 0;
  /// Overload degradation: wall-clock decide() budget in ns (0 = off),
  /// max jobs shed per breach, and the latency-override test probe.
  std::uint64_t decide_budget_ns = 0;
  std::size_t overload_shed_max = 1;
  std::function<std::uint64_t(std::size_t, std::uint64_t)> overload_probe;
};

/// Constructs the requested stepping driver over the shared kernel and runs
/// it to completion.
SimResult run_simulation(EngineKind kind, const JobSet& jobs,
                         SchedulerBase& scheduler, NodeSelector& selector,
                         const SimOptions& options);

}  // namespace dagsched

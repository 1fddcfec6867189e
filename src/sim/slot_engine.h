// Discrete time-slot simulation -- the paper's native machine model.
//
// Time advances in unit slots t = 0, 1, 2, ...  At the start of each slot
// the engine delivers due events and calls decide(); each job granted k
// processors runs min(k, #ready) ready nodes for the slot, each consuming
// min(speed, remaining) work.  Nodes that finish mid-slot leave their
// processor idle for the rest of the slot, and their successors become
// runnable only from the next slot -- this is exactly the quantized model in
// which the Section-5 profit scheduler assigns per-slot sets I_i.
//
// For workloads whose releases, node works (with speed 1) and deadlines are
// integers, SlotEngine and EventEngine produce identical schedules for
// job-level schedulers; a cross-validation test asserts this.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

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
class SimKernel;
class TelemetryRecorder;

struct SlotEngineOptions {
  ProcCount num_procs = 1;
  /// Work units one processor completes per slot.
  double speed = 1.0;
  bool record_trace = false;
  /// Simulation stops after this many slots even if jobs remain (0 = derive
  /// a generous bound from the workload).  Unfinished jobs earn no profit.
  std::uint64_t max_slots = 0;
  std::function<void(const EngineContext&, const Assignment&)> observer;
  /// Observability sink (counters / decision events / span timers); null =
  /// off, and the run is bit-identical to an uninstrumented one.
  const ObsSink* obs = nullptr;
  /// Fault injector; null = no faults (see EngineOptions::faults).  Use
  /// integral transition times for slot-aligned churn.
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder (obs/telemetry); null = off, the seed code
  /// path.  Forwarded to KernelOptions::telemetry.
  TelemetryRecorder* telemetry = nullptr;
  /// Periodic checkpoint writer (sim/checkpoint); null = off, and the run
  /// is byte-identical to one without checkpointing.  Snapshots are taken
  /// at the top of the slot loop, before event delivery.
  CheckpointSink* checkpoint = nullptr;
  /// Parsed checkpoint to resume from (already verified compatible); null =
  /// start from the beginning.
  const CheckpointFile* resume = nullptr;
  /// Crash-recovery test hook: _Exit(9) immediately after decision #N
  /// completes (0 = off).  Forwarded to KernelOptions::die_at_decision.
  std::size_t die_at_decision = 0;
  /// Overload degradation: wall-clock budget per decide() in nanoseconds
  /// (0 = off), max jobs shed per breach, and the test probe overriding the
  /// measured latency.  Forwarded to KernelOptions.
  std::uint64_t decide_budget_ns = 0;
  std::size_t overload_shed_max = 1;
  std::function<std::uint64_t(std::size_t, std::uint64_t)> overload_probe;
};

/// Discrete-slot stepping driver over the shared SimKernel
/// (sim/kernel/kernel.h): advances in fixed unit slots, jumping over fully
/// idle stretches via the scheduler's next_wakeup().  All simulation
/// semantics -- event delivery, validation, callbacks, obs emission,
/// busy/idle accounting -- live in the kernel, shared with EventEngine.
class SlotEngine {
 public:
  SlotEngine(const JobSet& jobs, SchedulerBase& scheduler,
             NodeSelector& selector, SlotEngineOptions options);
  ~SlotEngine();

  /// Re-runnable: the kernel and all scratch buffers persist across calls
  /// (see EventEngine::run and tests/test_zero_alloc.cpp).
  SimResult run();

 private:
  std::uint64_t derive_horizon() const;

  const JobSet& jobs_;
  SchedulerBase& scheduler_;
  NodeSelector& selector_;
  SlotEngineOptions options_;

  // Persistent simulation state: created on the first run(), reset by
  // SimKernel::begin() on each subsequent one.
  std::unique_ptr<SimKernel> kernel_;
  Assignment assignment_;
  std::vector<NodeId> picked_;
  std::vector<std::pair<JobId, NodeId>> current_nodes_;
  std::vector<JobId> current_jobs_;
};

}  // namespace dagsched

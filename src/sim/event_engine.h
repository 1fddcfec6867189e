// Continuous-time, event-driven simulation of m identical processors.
//
// The engine advances from decision point to decision point.  A decision
// point is any event that can change the scheduler's view: a job arrival, a
// node completion (which may ready successors or complete the job), or a
// step-profit deadline expiry.  Between decision points the processor
// allocation is frozen: each job granted k processors runs min(k, #ready)
// ready nodes, chosen by the NodeSelector, each progressing at `speed` work
// units per time unit ("s-speed" resource augmentation).
//
// This is exact for schedulers -- like the paper's S and all included
// baselines -- whose decisions only depend on job-level state: re-invoking
// decide() at every node completion faithfully emulates the paper's
// per-time-step loop without quantization error.
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

struct EngineOptions {
  ProcCount num_procs = 1;
  /// Resource augmentation: work units processed per processor-time-unit.
  double speed = 1.0;
  /// Record a full execution trace into SimResult::trace (O(#intervals)).
  bool record_trace = false;
  /// Hard cap on decision points (guards against scheduler livelock bugs).
  std::size_t max_decisions = 100'000'000;
  /// Invoked after each decision has been materialized; used by property
  /// tests to inspect scheduler state mid-run.
  std::function<void(const EngineContext&, const Assignment&)> observer;
  /// Observability sink (counters / decision events / span timers); null =
  /// off, and the run is bit-identical to an uninstrumented one.
  const ObsSink* obs = nullptr;
  /// Fault injector (processor churn / work overruns); null = no faults,
  /// and the run is bit-identical to a fault-free build.  Processor
  /// transitions become decision points: failed processors stop executing,
  /// decide() sees the reduced ctx.num_procs(), and the scheduler's
  /// on_capacity_change() runs its degradation policy.
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder (obs/telemetry); null = off, the seed code
  /// path.  Forwarded to KernelOptions::telemetry.
  TelemetryRecorder* telemetry = nullptr;
  /// Periodic checkpoint writer (sim/checkpoint); null = off, and the run
  /// is byte-identical to one without checkpointing.  Snapshots are taken
  /// at the top of the stepping loop, before event delivery, so a resumed
  /// run replays the exact continuation.
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

/// Continuous-time stepping driver over the shared SimKernel
/// (sim/kernel/kernel.h): advances from decision point to decision point
/// (arrival, node completion, deadline expiry, processor transition).  All
/// simulation semantics -- event delivery, validation, callbacks, obs
/// emission, busy/idle accounting -- live in the kernel, shared with
/// SlotEngine.
class EventEngine {
 public:
  /// `jobs` must be finalized (sorted by release).  The scheduler and
  /// selector are borrowed and must outlive run().
  EventEngine(const JobSet& jobs, SchedulerBase& scheduler,
              NodeSelector& selector, EngineOptions options);
  ~EventEngine();

  /// Simulates to quiescence (all jobs completed, or nothing running and no
  /// future events) and returns per-job outcomes.  Re-runnable: the kernel
  /// and all scratch buffers persist across calls, so a second run over the
  /// same instance reuses warm capacity (the zero-allocation contract
  /// tested by tests/test_zero_alloc.cpp).
  SimResult run();

 private:
  const JobSet& jobs_;
  SchedulerBase& scheduler_;
  NodeSelector& selector_;
  EngineOptions options_;

  // Persistent simulation state: created on the first run(), reset by
  // SimKernel::begin() on each subsequent one.
  std::unique_ptr<SimKernel> kernel_;
  Assignment assignment_;
  std::vector<NodeId> picked_;
  // This interval's execution set: (job, node) pairs and the jobs that run
  // a node, handed to account_preemptions()/commit_interval() without the
  // seed's extra copy into separate accounting vectors.
  std::vector<std::pair<JobId, NodeId>> running_;
  std::vector<JobId> running_jobs_;
};

/// One-call convenience wrapper.
SimResult simulate(const JobSet& jobs, SchedulerBase& scheduler,
                   NodeSelector& selector, const EngineOptions& options);

}  // namespace dagsched

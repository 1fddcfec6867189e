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

#include <memory>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "job/job.h"
#include "obs/sink.h"
#include "sim/assignment.h"
#include "sim/context.h"
#include "sim/node_selector.h"
#include "sim/options.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"

namespace dagsched {

class SimKernel;

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
              NodeSelector& selector, SimOptions options);
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
  SimOptions options_;

  // Persistent simulation state: created on the first run(), reset by
  // SimKernel::begin() on each subsequent one.
  std::unique_ptr<SimKernel> kernel_;
  Assignment assignment_;
  std::vector<NodeId> picked_;
  // This interval's running (job, node) pairs, handed to
  // account_preemptions()/commit_interval() without the seed's extra copy
  // into separate accounting vectors.
  std::vector<std::pair<JobId, NodeId>> running_;
};

/// One-call convenience wrapper.
SimResult simulate(const JobSet& jobs, SchedulerBase& scheduler,
                   NodeSelector& selector, const SimOptions& options);

}  // namespace dagsched

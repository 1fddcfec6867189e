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

/// Discrete-slot stepping driver over the shared SimKernel
/// (sim/kernel/kernel.h): advances in fixed unit slots, jumping over fully
/// idle stretches via the scheduler's next_wakeup().  All simulation
/// semantics -- event delivery, validation, callbacks, obs emission,
/// busy/idle accounting -- live in the kernel, shared with EventEngine.
class SlotEngine {
 public:
  SlotEngine(const JobSet& jobs, SchedulerBase& scheduler,
             NodeSelector& selector, SimOptions options);
  ~SlotEngine();

  /// Re-runnable: the kernel and all scratch buffers persist across calls
  /// (see EventEngine::run and tests/test_zero_alloc.cpp).
  SimResult run();

 private:
  std::uint64_t derive_horizon() const;

  const JobSet& jobs_;
  SchedulerBase& scheduler_;
  NodeSelector& selector_;
  SimOptions options_;

  // Persistent simulation state: created on the first run(), reset by
  // SimKernel::begin() on each subsequent one.
  std::unique_ptr<SimKernel> kernel_;
  Assignment assignment_;
  std::vector<NodeId> picked_;
  std::vector<std::pair<JobId, NodeId>> current_nodes_;
};

}  // namespace dagsched

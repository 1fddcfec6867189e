#include "sim/slot_engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/kernel.h"
#include "util/check.h"

namespace dagsched {

SlotEngine::SlotEngine(const JobSet& jobs, SchedulerBase& scheduler,
                       NodeSelector& selector, SimOptions options)
    : jobs_(jobs),
      scheduler_(scheduler),
      selector_(selector),
      options_(std::move(options)) {
  DS_CHECK_MSG(options_.num_procs >= 1, "need at least one processor");
  DS_CHECK_MSG(options_.speed > 0.0, "speed must be positive");
  DS_CHECK_MSG(jobs_.sorted_by_release(), "JobSet not finalized");
  options_.max_decisions = 0;  // the slot horizon bounds the run instead
}

SlotEngine::~SlotEngine() = default;

std::uint64_t SlotEngine::derive_horizon() const {
  // After the last arrival, even a scheduler that runs one node at a time
  // finishes within total_work/speed additional slots if it schedules at
  // all; allow a generous 8x multiplier plus padding for idling policies
  // (e.g. the profit scheduler deliberately leaving slack slots).
  Time last_release = 0.0;
  Work total_work = 0.0;
  for (const Job& job : jobs_.jobs()) {
    last_release = std::max(last_release, job.release());
    total_work += job.work();
  }
  const double slots =
      std::ceil(last_release) + 8.0 * std::ceil(total_work / options_.speed) +
      64.0 + 16.0 * static_cast<double>(jobs_.size());
  return static_cast<std::uint64_t>(slots);
}

SimResult SlotEngine::run() {
  const std::size_t n = jobs_.size();
  if (n == 0) return SimResult{};

  if (kernel_ == nullptr) {
    kernel_ = std::make_unique<SimKernel>(jobs_, scheduler_, selector_,
                                          options_);
  }
  SimKernel& kernel = *kernel_;

  const std::uint64_t horizon = derive_horizon();
  const double speed = options_.speed;

  // Member scratch: capacity survives across runs (zero-alloc contract).
  Assignment& assignment = assignment_;
  std::vector<NodeId>& picked = picked_;
  std::vector<std::pair<JobId, NodeId>>& current_nodes = current_nodes_;

  std::uint64_t slot =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(jobs_[0].release())));
  kernel.begin(static_cast<Time>(slot));

  if (options_.resume != nullptr) {
    // Restore the exact loop-top state the checkpoint captured; the run
    // continues at the pinned slot as if it had never stopped.
    CheckpointReader kernel_in = options_.resume->section_reader("kernel");
    CheckpointReader sched_in = options_.resume->section_reader("scheduler");
    kernel.load_checkpoint_state(kernel_in, sched_in);
    slot = options_.resume->meta.slot;
    kernel.set_now(static_cast<Time>(slot));
    if (options_.checkpoint != nullptr) {
      options_.checkpoint->note_resumed(kernel.decisions());
    }
  }

  for (; !kernel.all_done(); ++slot) {
    if (slot >= horizon) {
      std::ostringstream msg;
      msg << "derived horizon " << horizon << " overran with "
          << (n - kernel.jobs_done())
          << " jobs incomplete (scheduler starvation?)";
      kernel.fail(SimFailureKind::kHorizon, msg.str(), static_cast<Time>(slot),
                  "horizon");
      break;
    }
    const Time now = static_cast<Time>(slot);

    // (0) Checkpoint at the slot top, before event delivery: nothing is
    // half-delivered here, so the snapshot plus the emitted-event count is
    // a complete resume point.
    if (options_.checkpoint != nullptr &&
        options_.checkpoint->due(kernel.decisions())) {
      options_.checkpoint->write(kernel, now, slot);
    }

    // (1) Deliver everything due by the start of this slot -- processor
    // transitions, arrivals, deadline expiries -- in the kernel's pinned
    // order, then obtain and validate this slot's allocation.
    kernel.deliver_due_events(now, DeadlineDuePolicy::kBeforeNextSlot);
    if (!kernel.decide(now, assignment)) break;

    // (2) Execute the slot: each granted job runs min(procs, #ready) ready
    // nodes, each consuming min(speed, remaining) work.  Nodes that finish
    // mid-slot leave their processor idle for the rest of the slot.
    kernel.begin_interval();
    current_nodes.clear();
    std::size_t proc_cursor = 0;
    for (const JobAlloc& alloc : assignment.allocs) {
      kernel.select_nodes(alloc, picked);
      Time job_finish = 0.0;
      for (const NodeId node : picked) {
        current_nodes.emplace_back(alloc.job, node);
        const Work remaining = kernel.remaining_work(alloc.job, node);
        const Work amount = std::min(speed, remaining);
        const Time duration = amount / speed;
        kernel.advance_node(alloc.job, node, amount, now, duration,
                            kernel.phys_proc(proc_cursor));
        ++proc_cursor;
        job_finish = std::max(job_finish, now + duration);
      }
      kernel.mark_if_completed(alloc.job, job_finish);
    }
    kernel.observe_running(current_nodes.size());
    kernel.account_step_time(1.0);

    // (3) Preemption accounting (ran last slot, unfinished, idle now), then
    // completion notifications at the end of the slot.
    kernel.account_preemptions(now, current_nodes);
    kernel.commit_interval(current_nodes);
    const bool completed_any = kernel.has_pending_completions();
    kernel.notify_completions(now + 1.0);
    kernel.set_end_time(now + 1.0);

    // (4) Idle skip / quiescence: if nothing ran and nothing completed, jump
    // to the next slot at which anything can change.  A job arriving at
    // release r first becomes schedulable in slot ceil(r); a processor
    // transition is a wakeup too (recovered capacity can make an idle
    // scheduler schedulable again), so never skip past one.
    if (assignment.allocs.empty() && !completed_any) {
      Time next_t = std::ceil(kernel.next_arrival_time());
      next_t = std::min(next_t, std::floor(scheduler_.next_wakeup(kernel.ctx())));
      next_t = std::min(next_t, std::ceil(kernel.next_transition_time()));
      if (!(next_t < kTimeInfinity)) break;  // nothing will ever change
      const auto target = static_cast<std::uint64_t>(std::max(0.0, next_t));
      // Slots skipped wholesale are fully idle machine time; no processor
      // transition lies strictly inside the skipped range (transitions are
      // wakeups), so the current capacity applies.
      if (target > slot + 1) {
        kernel.account_idle_gap(static_cast<double>(target - slot - 1));
      }
      slot = std::max(slot + 1, target) - 1;  // ++slot lands on the target
    }
  }
  return kernel.finish();
}

}  // namespace dagsched

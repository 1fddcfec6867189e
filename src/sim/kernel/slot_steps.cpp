// Slot steps: discrete time-slot simulation, the paper's native machine model.
//
// Time advances in unit slots t = 0, 1, 2, ...  At the start of each slot the
// loop delivers due events and calls decide(); each job granted k processors
// runs min(k, #ready) ready nodes for the slot, each consuming
// min(speed, remaining) work.  Nodes that finish mid-slot leave their
// processor idle for the rest of the slot, and their successors become
// runnable only from the next slot -- this is exactly the quantized model in
// which the Section-5 profit scheduler assigns per-slot sets I_i.  Fully idle
// stretches are jumped over via the scheduler's next_wakeup().
//
// For workloads whose releases, node works (with speed 1) and deadlines are
// integers, slot and event steps produce identical schedules for job-level
// schedulers; a cross-validation test asserts this.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/kernel/kernel.h"

namespace dagsched {

std::uint64_t SimKernel::derive_horizon() const {
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

void SimKernel::run_slots(std::uint64_t slot) {
  const std::uint64_t horizon = derive_horizon();
  const double speed = options_.speed;

  for (; !all_done(); ++slot) {
    if (slot >= horizon) {
      std::ostringstream msg;
      msg << "derived horizon " << horizon << " overran with "
          << (jobs_.size() - jobs_done_)
          << " jobs incomplete (scheduler starvation?)";
      fail(SimFailureKind::kHorizon, msg.str(), static_cast<Time>(slot),
           "horizon");
      break;
    }
    const Time now = static_cast<Time>(slot);
    checkpoint_if_due(now, slot);

    // (1) Deliver everything due by the start of this slot -- processor
    // transitions, arrivals, deadline expiries -- in the pinned order, then
    // obtain and validate this slot's allocation.
    deliver_due_events(now);
    if (!decide(now, assignment_)) break;

    // (2) Execute the slot: each granted job runs min(procs, #ready) ready
    // nodes, each consuming min(speed, remaining) work.  Nodes that finish
    // mid-slot leave their processor idle for the rest of the slot.
    running_.clear();
    std::size_t proc_cursor = 0;
    for (const JobAlloc& alloc : assignment_.allocs) {
      select_nodes(alloc, picked_);
      Time job_finish = 0.0;
      for (const NodeId node : picked_) {
        running_.emplace_back(alloc.job, node);
        const Work amount = std::min(speed, remaining_work(alloc.job, node));
        const Time duration = amount / speed;
        advance_node(alloc.job, node, amount, now, duration,
                     phys_proc(proc_cursor));
        ++proc_cursor;
        job_finish = std::max(job_finish, now + duration);
      }
      mark_if_completed(alloc.job, job_finish);
    }
    observe_running(running_.size());
    account_step_time(1.0);

    // (3) Preemption accounting (ran last slot, unfinished, idle now), then
    // completion notifications at the end of the slot.
    account_preemptions(now);
    const bool completed_any = !completed_now_.empty();
    notify_completions(now + 1.0);
    result_.end_time = now + 1.0;

    // (4) Idle skip / quiescence: if nothing ran and nothing completed, jump
    // to the next slot at which anything can change.  A job arriving at
    // release r first becomes schedulable in slot ceil(r); a processor
    // transition is a wakeup too (recovered capacity can make an idle
    // scheduler schedulable again), so never skip past one.
    if (assignment_.allocs.empty() && !completed_any) {
      Time next_t = std::ceil(next_arrival_time());
      next_t = std::min(next_t, std::floor(scheduler_.next_wakeup(ctx_)));
      next_t = std::min(next_t, std::ceil(next_transition_time()));
      if (!(next_t < kTimeInfinity)) break;  // nothing will ever change
      const auto target = static_cast<std::uint64_t>(std::max(0.0, next_t));
      // Slots skipped wholesale are fully idle machine time; no processor
      // transition lies strictly inside the skipped range (transitions are
      // wakeups), so the current capacity applies.
      if (target > slot + 1) {
        account_step_time(static_cast<double>(target - slot - 1));
      }
      slot = std::max(slot + 1, target) - 1;  // ++slot lands on the target
    }
  }
}

}  // namespace dagsched

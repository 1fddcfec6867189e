#include "sim/event_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/kernel.h"
#include "util/check.h"

namespace dagsched {

EventEngine::EventEngine(const JobSet& jobs, SchedulerBase& scheduler,
                         NodeSelector& selector, SimOptions options)
    : jobs_(jobs),
      scheduler_(scheduler),
      selector_(selector),
      options_(std::move(options)) {
  DS_CHECK_MSG(options_.num_procs >= 1, "need at least one processor");
  DS_CHECK_MSG(options_.speed > 0.0, "speed must be positive");
  DS_CHECK_MSG(jobs_.sorted_by_release(), "JobSet not finalized");
}

EventEngine::~EventEngine() = default;

SimResult EventEngine::run() {
  const std::size_t n = jobs_.size();
  if (n == 0) return SimResult{};

  if (kernel_ == nullptr) {
    kernel_ = std::make_unique<SimKernel>(jobs_, scheduler_, selector_,
                                          options_);
  }
  SimKernel& kernel = *kernel_;

  // The step-duration histogram is the one event-engine-specific instrument
  // (the slot engine's steps are unit slots by construction).
  const ObsSink* obs = options_.obs;
  Histogram* h_step_dt = nullptr;
  if (obs != nullptr && obs->metrics != nullptr) {
    h_step_dt = obs->metrics->histogram("engine.step_dt");
  }

  const double speed = options_.speed;
  Time now = jobs_[0].release();
  kernel.begin(now);

  if (options_.resume != nullptr) {
    // Restore the exact loop-top state the checkpoint captured; the run
    // continues as if it had never stopped (the decision log from here on
    // is byte-identical to the uninterrupted run's suffix).
    CheckpointReader kernel_in = options_.resume->section_reader("kernel");
    CheckpointReader sched_in = options_.resume->section_reader("scheduler");
    kernel.load_checkpoint_state(kernel_in, sched_in);
    now = options_.resume->meta.sim_time;
    kernel.set_now(now);
    if (options_.checkpoint != nullptr) {
      options_.checkpoint->note_resumed(kernel.decisions());
    }
  }

  // Member scratch: capacity survives across runs, so a warm re-run of the
  // stepping loop below performs no heap allocations.
  Assignment& assignment = assignment_;
  std::vector<NodeId>& picked = picked_;
  std::vector<std::pair<JobId, NodeId>>& running = running_;

  for (;;) {
    // (0) Checkpoint at the loop top, before event delivery: nothing is
    // half-delivered here, so the snapshot plus the emitted-event count is
    // a complete resume point.
    if (options_.checkpoint != nullptr &&
        options_.checkpoint->due(kernel.decisions())) {
      options_.checkpoint->write(kernel, now, 0);
    }

    // (1) Deliver everything due now -- processor transitions, arrivals,
    // deadline expiries -- in the kernel's pinned order, then obtain and
    // validate the allocation in force until the next event.
    kernel.deliver_due_events(now, DeadlineDuePolicy::kAtOrBeforeNow);
    if (!kernel.decide(now, assignment)) break;

    // (2) Materialize this interval's execution set: (job, node) pairs in
    // allocation order, so each job's nodes are adjacent.
    running.clear();
    for (const JobAlloc& alloc : assignment.allocs) {
      kernel.select_nodes(alloc, picked);
      for (const NodeId node : picked) running.emplace_back(alloc.job, node);
    }
    kernel.begin_interval();
    if (kernel.churn()) DS_CHECK(running.size() <= kernel.up_count());

    // (3) Preemption accounting: anything that ran in the previous
    // interval, is unfinished, and does not run now was preempted.  The
    // scan happens here (before this step's completions are marked, as the
    // seed did), but the set is only committed as the new previous interval
    // at the end of the step, so the passes below keep using it.
    kernel.account_preemptions(now, running);

    // (4) Time to the next external event.
    const Time next_event =
        std::min(kernel.next_arrival_time(),
                 std::min(kernel.next_deadline_time(),
                          kernel.next_transition_time()));

    if (running.empty()) {
      kernel.commit_interval(running);
      if (next_event == kTimeInfinity) break;  // quiescent: nothing left
      // The machine sits fully idle until the next event; transitions are
      // decision points, so capacity is constant across the gap.
      if (next_event > now) kernel.account_idle_gap(next_event - now);
      now = std::max(now, next_event);
      continue;
    }

    Time node_dt = kTimeInfinity;
    for (const auto& [job, node] : running) {
      node_dt = std::min(node_dt, kernel.remaining_work(job, node) / speed);
    }
    const Time dt = std::min(node_dt, next_event - now);
    DS_CHECK_MSG(dt > 0.0, "non-positive step dt=" << dt << " at t=" << now);

    kernel.observe_running(running.size());
    if (h_step_dt != nullptr) h_step_dt->observe(dt);

    // (5) Advance every running node by speed*dt.
    for (std::size_t p = 0; p < running.size(); ++p) {
      const auto& [job, node] = running[p];
      kernel.advance_node(job, node, speed * dt, now, dt,
                          kernel.phys_proc(p));
    }
    kernel.account_step_time(dt);
    now += dt;
    kernel.set_now(now);

    // (6) Detect and notify job completions at the end of the step, then
    // retire the execution set as the next decision's previous interval.
    for (const auto& [job, node] : running) kernel.mark_if_completed(job, now);
    kernel.commit_interval(running);
    kernel.notify_completions(now);
  }

  kernel.set_end_time(now);
  return kernel.finish();
}

SimResult simulate(const JobSet& jobs, SchedulerBase& scheduler,
                   NodeSelector& selector, const SimOptions& options) {
  EventEngine engine(jobs, scheduler, selector, options);
  return engine.run();
}

}  // namespace dagsched

// Event steps: continuous-time simulation of m identical processors.
//
// The loop advances from decision point to decision point.  A decision point
// is any event that can change the scheduler's view: a job arrival, a node
// completion (which may ready successors or complete the job), a step-profit
// deadline expiry, or a processor transition.  Between decision points the
// processor allocation is frozen: each job granted k processors runs
// min(k, #ready) ready nodes, chosen by the NodeSelector, each progressing at
// `speed` work units per time unit ("s-speed" resource augmentation).
//
// This is exact for schedulers -- like the paper's S and all included
// baselines -- whose decisions only depend on job-level state: re-invoking
// decide() at every node completion faithfully emulates the paper's
// per-time-step loop without quantization error.
#include <algorithm>

#include "sim/kernel/kernel.h"
#include "util/check.h"

namespace dagsched {

void SimKernel::run_events(Time now) {
  // The step-duration histogram is the one instrument of event steps alone
  // (slots are unit steps by construction).
  Histogram* h_step_dt =
      metrics_ != nullptr ? metrics_->histogram("engine.step_dt") : nullptr;
  const double speed = options_.speed;

  for (;;) {
    checkpoint_if_due(now, 0);

    // (1) Deliver everything due now -- processor transitions, arrivals,
    // deadline expiries -- in the pinned order, then obtain and validate
    // the allocation in force until the next event.
    deliver_due_events(now);
    if (!decide(now, assignment_)) break;

    // (2) Materialize this interval's execution set: (job, node) pairs in
    // allocation order, so each job's nodes are adjacent.
    running_.clear();
    for (const JobAlloc& alloc : assignment_.allocs) {
      select_nodes(alloc, picked_);
      for (const NodeId node : picked_) running_.emplace_back(alloc.job, node);
    }
    if (churn_) DS_CHECK(running_.size() <= up_list_.size());

    // (3) Time to the next external event.
    const Time next_event =
        std::min(next_arrival_time(),
                 std::min(next_deadline_time(), next_transition_time()));

    if (running_.empty()) {
      account_preemptions(now);
      if (next_event == kTimeInfinity) break;  // quiescent: nothing left
      // The machine sits fully idle until the next event; transitions are
      // decision points, so capacity is constant across the gap.
      if (next_event > now) account_step_time(next_event - now);
      now = std::max(now, next_event);
      continue;
    }

    Time node_dt = kTimeInfinity;
    for (const auto& [job, node] : running_) {
      node_dt = std::min(node_dt, remaining_work(job, node) / speed);
    }
    const Time dt = std::min(node_dt, next_event - now);
    DS_CHECK_MSG(dt > 0.0, "non-positive step dt=" << dt << " at t=" << now);

    observe_running(running_.size());
    if (h_step_dt != nullptr) h_step_dt->observe(dt);

    // (4) Advance every running node by speed*dt.
    for (std::size_t p = 0; p < running_.size(); ++p) {
      const auto& [job, node] = running_[p];
      advance_node(job, node, speed * dt, now, dt, phys_proc(p));
    }
    account_step_time(dt);
    const Time step_start = now;
    now += dt;
    ctx_.now_ = now;

    // (5) Detect job completions at the end of the step, account the
    // step's preemptions, then notify the completions.
    for (const auto& [job, node] : running_) mark_if_completed(job, now);
    account_preemptions(step_start);
    notify_completions(now);
  }
  result_.end_time = now;
}

}  // namespace dagsched

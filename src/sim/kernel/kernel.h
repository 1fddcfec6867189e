// SimKernel: the single source of truth for simulation semantics, and the
// one place a simulation is stepped.
//
// run(kind) picks one of two private stepping loops -- event-to-event steps
// (event_steps.cpp) or unit time slots with an idle jump (slot_steps.cpp) --
// and owns everything they share: begin(), resume from a checkpoint, the
// snapshot at the top of each loop iteration, and finish().  The loops decide
// only how time advances; the kernel owns everything whose meaning must be
// identical across them:
//
//   * the unified transition queue: fault-plan processor transitions, job
//     arrivals, and deadline expiries, delivered at each decision point in
//     one pinned order (completions of the previous step, then processor
//     transitions, then arrivals, then expiries; ties within each class are
//     ordered by (time, id));
//   * job death: the active set holds exactly the jobs that can still earn
//     their profit (arrived, incomplete, not deadline_unreachable(now)), so
//     no scheduler re-derives that rule (see deliver_expiries);
//   * allocation validation and application: malformed allocations
//     (overcommit, duplicates, unarrived/completed jobs, zero processors)
//     terminate the run with a structured SimFailureKind::kBadAllocation
//     instead of corrupting state or aborting the process;
//   * scheduler callback dispatch (on_arrival / on_completion / on_deadline /
//     on_capacity_change), decide() timing and the decision budget;
//   * fault application: the processor up-set, the failure-victim map, and
//     restart=resume|zero lost-work accounting;
//   * observability for all the shared lifecycle events: decision events
//     and telemetry as they happen (events bump their own counters), and
//     the other registry counters written once, in finish(), from the
//     SimResult and the kernel's own tallies (so a resumed run reports
//     whole-run totals wherever the checkpoint carries the figure);
//   * busy/idle processor-time bookkeeping, with the
//     busy + idle == m x (end - start) invariant asserted once, in finish().
//
// The kernel is flat-array/index-based throughout (no per-step allocation
// after begin()) so the stepping loops keep their measured performance; see
// bench/bench_engine_perf.cpp and the committed BENCH_engine.json.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "job/job.h"
#include "obs/sink.h"
#include "sim/assignment.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/context.h"
#include "sim/kernel/engine_factory.h"
#include "sim/kernel/job_state.h"
#include "sim/node_selector.h"
#include "sim/options.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"
#include "util/dary_heap.h"
#include "util/float_cmp.h"

namespace dagsched {

class TelemetryRecorder;

class SimKernel {
 public:
  /// `jobs` must be finalized (sorted by release).  The scheduler and
  /// selector are borrowed and must outlive the kernel.
  SimKernel(const JobSet& jobs, SchedulerBase& scheduler,
            NodeSelector& selector, SimOptions options);

  /// Simulates to quiescence under the stepping discipline `kind` and
  /// returns per-job outcomes (an empty result for an empty JobSet).
  /// Re-runnable: all state and scratch persist across calls, so a second
  /// run over the same instance reuses warm capacity (the zero-allocation
  /// contract tested by tests/test_zero_alloc.cpp).
  SimResult run(EngineKind kind);

  /// Resets all per-run state (scheduler, runtimes, instruments, fault
  /// queue) and records `start_time`, the instant from which machine time is
  /// accounted.  run() calls it; a checkpoint loader calls it before
  /// load_checkpoint_state().
  void begin(Time start_time);

  std::size_t decisions() const { return result_.decisions; }

  /// Serializes the full mid-run state into the checkpoint's "kernel" and
  /// "scheduler" sections (sim/checkpoint/).  run() snapshots only at the
  /// top of a loop iteration, before that iteration's due events are
  /// delivered; pending completions would make the snapshot unreplayable
  /// and are rejected with DS_CHECK.
  void save_checkpoint_state(CheckpointWriter& kernel_out,
                             CheckpointWriter& scheduler_out) const;

  /// Restores state saved by save_checkpoint_state.  Call after begin();
  /// whatever the stored fields determine (the active set, the arrival
  /// cursor, the completed and expired counts, the up-processor count, the
  /// deadline heap) is derived from them.  Throws CheckpointError on a
  /// payload that is malformed or inconsistent with this kernel's job set.
  void load_checkpoint_state(CheckpointReader& kernel_in,
                             CheckpointReader& scheduler_in);

 private:
  /// How a stepping loop maps deadline instants onto its decision points.
  /// Event steps expire a deadline at the first decision point at or past
  /// it; slots expire it at the start of the first slot that can no longer
  /// complete the job by its deadline (a job finishing in slot t completes
  /// at t+1, so d expires once t+1 > d).
  enum class DeadlineDuePolicy {
    kAtOrBeforeNow,   // due when d <= now            (event steps)
    kBeforeNextSlot,  // due when now + 1 > d         (slots)
  };

  // -- Stepping loops (one per EngineKind) ----------------------------------

  /// Steps from decision point to decision point starting at `now`;
  /// event_steps.cpp.
  void run_events(Time now);
  /// Steps in unit slots starting at `slot`; slot_steps.cpp.
  void run_slots(std::uint64_t slot);
  /// Slot count past which a slot run is failed with kHorizon.
  std::uint64_t derive_horizon() const;

  /// Writes a snapshot when the checkpoint sink's cadence is due.  Called
  /// only at the top of a loop iteration, where nothing is half-delivered,
  /// so the snapshot plus the emitted-event count is a complete resume
  /// point.
  void checkpoint_if_due(Time now, std::uint64_t slot) {
    if (options_.checkpoint != nullptr &&
        options_.checkpoint->due(result_.decisions)) {
      options_.checkpoint->write(*this, now, slot);
    }
  }

  bool all_done() const { return jobs_done_ == jobs_.size(); }

  /// Finalizes per-job outcomes, asserts the busy + idle == m x (end -
  /// start) accounting invariant (fault-free, non-failed runs), writes the
  /// registry counters when a registry is attached, and returns the result.
  SimResult finish();

  /// Stamp a structural failure on the result (and emit an engine-abort
  /// event carrying `slug`); the loop must stop stepping afterwards.
  void fail(SimFailureKind kind, std::string message, Time now,
            const char* slug);

  // -- Unified transition queue ---------------------------------------------

  /// Delivers, in the pinned order, everything due at `now`: fault-plan
  /// processor transitions (recoveries before failures at one instant, then
  /// by processor id), job arrivals (by release, then job id), and deadline
  /// expiries (by deadline, then job id, under this run's policy).
  /// Completions are the one event class delivered elsewhere -- at the end
  /// of the step that produced them, i.e. *before* any of the above at an
  /// equal timestamp.  Inline due checks keep the nothing-due common case
  /// free of out-of-line calls.
  void deliver_due_events(Time now) {
    ctx_.now_ = now;
    if (churn_ && transition_due(now)) deliver_transitions(now);
    if (next_arrival_ < jobs_.size() &&
        approx_le(jobs_[next_arrival_].release(), now)) {
      deliver_arrivals(now);
    }
    if (!retire_next_.empty() || expiry_due(now)) deliver_expiries(now);
  }

  /// Release time of the next undelivered arrival (kTimeInfinity if none).
  Time next_arrival_time() const {
    return next_arrival_ < jobs_.size() ? jobs_[next_arrival_].release()
                                        : kTimeInfinity;
  }

  /// Earliest pending deadline of a still-incomplete job (kTimeInfinity if
  /// none); lazily discards entries for completed jobs.
  Time next_deadline_time() {
    while (!deadlines_.empty() && state_.completed(deadlines_.top().second)) {
      deadlines_.pop();
    }
    return deadlines_.empty() ? kTimeInfinity : deadlines_.top().first;
  }

  /// Time of the next undelivered processor transition; kTimeInfinity when
  /// churn is off or every job has completed (pending transitions can no
  /// longer affect any job, which preserves quiescence detection).
  Time next_transition_time() const {
    if (!churn_ || all_done() ||
        next_transition_ >= options_.faults->transitions().size()) {
      return kTimeInfinity;
    }
    return options_.faults->transitions()[next_transition_].time;
  }

  // -- Decision -------------------------------------------------------------

  /// Runs decide() (timed only when telemetry or a decide budget is
  /// attached), enforces the decision budget, and validates the
  /// allocation, then begins the interval.  Returns false -- with the
  /// failure stamped on the result -- when the budget is exhausted or the
  /// allocation is malformed; the loop must break out.
  bool decide(Time now, Assignment& out);

  // -- Execution ------------------------------------------------------------

  /// Ready-node selection for one granted allocation (machine-owned policy).
  void select_nodes(const JobAlloc& alloc, std::vector<NodeId>& picked) {
    selector_.select(jobs_[alloc.job].dag(), state_.unfolding(alloc.job),
                     alloc.procs, picked);
  }

  /// Prepares the physical-processor view for the coming interval: under
  /// churn, refreshes the up-processor list and clears the failure-victim
  /// map.  decide() calls it once the allocation is accepted.
  void begin_interval();

  /// Physical processor backing logical run index `i` of this interval.
  /// Precondition: i < up-capacity (allocation validation guarantees it).
  ProcCount phys_proc(std::size_t i) const {
    return churn_ ? up_list_[i] : static_cast<ProcCount>(i);
  }

  Work remaining_work(JobId job, NodeId node) const {
    return state_.unfolding(job).remaining_work(node);
  }

  /// Advances `node` of `job` by `amount` work over [start, start+duration)
  /// on physical processor `phys`: busy processor-time, the execution
  /// trace, the failure-victim map, and (with a registry attached) the node
  /// start/completion tallies.  Inline: this is the innermost per-node
  /// operation of both hot loops.
  void advance_node(JobId job, NodeId node, Work amount, Time start,
                    Time duration, ProcCount phys) {
    UnfoldingState& unfolding = state_.unfolding(job);
    const bool counted = metrics_ != nullptr;
    if (counted &&
        unfolding.remaining_work(node) == unfolding.initial_work(node)) {
      ++node_starts_;
    }
    unfolding.advance(node, amount);
    if (counted && unfolding.is_done(node)) ++node_completions_;
    state_.executed(job) += amount;
    Time& first_start = state_.first_start(job);
    first_start = std::min(first_start, start);
    result_.busy_proc_time += duration;
    if (churn_) {
      proc_node_[phys] = {job, node};
      // A non-finishing node occupies its processor to the interval's end,
      // so this is exactly the window in which a failure can claim it.
      last_exec_end_ = std::max(last_exec_end_, start + duration);
    }
    if (options_.record_trace) {
      result_.trace.add(start, start + duration, job, node, phys);
    }
  }

  /// Accounts `dt` of wall-clock machine time at the current capacity
  /// (executed steps and fully idle spans alike).
  void account_step_time(double dt) {
    capacity_time_ += dt * static_cast<double>(ctx_.m_);
  }

  /// Histogram of concurrently running nodes per decision interval.
  void observe_running(std::size_t count) {
    if (h_running_ != nullptr) h_running_->observe(static_cast<double>(count));
  }

  // -- Completion epoch -----------------------------------------------------

  /// Marks `job` completed at `completion_time` if its unfolding just
  /// finished; notification is deferred to notify_completions().
  void mark_if_completed(JobId job, Time completion_time) {
    if (!state_.completed(job) && state_.unfolding(job).complete()) {
      state_.set_completed(job);
      state_.completion_time(job) = completion_time;
      completed_now_.push_back(job);
    }
  }
  /// Delivers queued completions: removes the jobs from the active set,
  /// emits counters/events at `notify_time`, and dispatches on_completion.
  void notify_completions(Time notify_time) {
    if (completed_now_.empty()) return;
    notify_completions_slow(notify_time);
  }

  // -- Preemption accounting ------------------------------------------------

  /// Compares this interval's running (job, node) list, running_, against
  /// the previous interval's and accounts node/job preemptions (ran before,
  /// unfinished, idle now) with events stamped `now`, the interval's start;
  /// then installs running_ as the previous interval (its old contents are
  /// swapped into running_, which the loops clear before refilling).  A
  /// job's nodes sit next to each other in running_ (allocation order), so
  /// each run of equal job ids is one running job.  Called once per
  /// decision, after the interval's completions are marked: a job that
  /// completes in the interval ran in it, so the result is the same as
  /// accounting before the step.
  void account_preemptions(Time now);

  bool transition_due(Time now) const {
    const auto& transitions = options_.faults->transitions();
    return next_transition_ < transitions.size() &&
           approx_le(transitions[next_transition_].time, now);
  }
  bool expiry_due(Time now) const {
    if (deadlines_.empty()) return false;
    const Time deadline = deadlines_.top().first;
    return deadline_policy_ == DeadlineDuePolicy::kBeforeNextSlot
               ? approx_gt(now + 1.0, deadline)
               : approx_le(deadline, now);
  }
  void deliver_transitions(Time now);
  void deliver_arrivals(Time now);
  /// Builds job `id`'s unfolding as its arrival does, with the fault
  /// injector's overrun-scaled works; the checkpoint loader uses it to
  /// rebuild a job that never started.
  void emplace_arrived(JobId id);
  void deliver_expiries(Time now);
  void notify_completions_slow(Time notify_time);
  /// Applies the decision-latency budget to one decide() measurement:
  /// breach -> shed + overload events, first under-budget decision after a
  /// breach -> recovery event.  Only called with decide_budget_ns > 0.
  void handle_overload(Time now, std::uint64_t decide_ns);
  /// Fills a TelemetrySample with the live gauges and emits it through the
  /// recorder (periodic when `final_snapshot` is false, unconditional final
  /// otherwise).  Only called with telemetry_ != nullptr.
  void emit_telemetry(Time now, bool final_snapshot);
  /// Writes the registry counters: SimResult fields, kernel members and
  /// tallies, and `idle` processor-time.  Only called with metrics_ set.
  void publish_counters(double idle) const;
  /// Allocated bytes of the kernel's own bookkeeping containers.
  std::size_t kernel_bytes() const;
  /// Empty string when valid; otherwise a diagnosis of the first violation.
  std::string validate(const Assignment& assignment);

  const JobSet& jobs_;
  SchedulerBase& scheduler_;
  NodeSelector& selector_;
  SimOptions options_;

  // Set by run() from its EngineKind: the expiry rule, and the decision cap
  // (options_.max_decisions on event steps; 0 = off on slots, whose horizon
  // bounds the run instead).
  DeadlineDuePolicy deadline_policy_ = DeadlineDuePolicy::kAtOrBeforeNow;
  std::size_t max_decisions_ = 0;

  /// All per-job runtime state, structure-of-arrays: lifecycle flags,
  /// completion/first-start/executed columns, arena-backed unfoldings, the
  /// tombstoned active set, and the epoch-stamp arrays (job_state.h).
  JobStateTable state_;
  EngineContext ctx_;
  SimResult result_;

  // Per-interval scratch of the stepping loops: capacity survives across
  // runs, so a warm re-run performs no heap allocations.  running_ holds
  // this interval's (job, node) pairs in allocation order.
  Assignment assignment_;
  std::vector<NodeId> picked_;
  std::vector<std::pair<JobId, NodeId>> running_;

  // Observability outputs (null = off).  Registry counters are written once,
  // in finish(); the tallies below are the ones with no other home.  The
  // per-node pair is kept only with a registry attached, so an unobserved
  // run does no extra work per node step.  None of them is checkpointed:
  // after a resume they count from the resume point.
  const ObsSink* obs_ = nullptr;
  MetricRegistry* metrics_ = nullptr;
  Histogram* h_running_ = nullptr;
  std::size_t node_starts_ = 0;
  std::size_t node_completions_ = 0;

  /// True between an over-budget decide() and the next under-budget one.
  bool overload_active_ = false;

  // Runtime telemetry (null = off, the seed code path).  expiries_delivered_
  // is a plain member update with no observable side effects on the decision
  // log; the unfolding_bytes gauge reads the job-state arena's high-water
  // mark directly, so nothing accumulates on the hot path.
  TelemetryRecorder* telemetry_ = nullptr;
  std::size_t expiries_delivered_ = 0;
  // The input_bytes gauge: the JobSet does not change during a run, so it
  // is measured once, at begin(), and only when telemetry is on.
  std::size_t input_bytes_ = 0;

  // Fault state.
  bool churn_ = false;
  std::size_t next_transition_ = 0;
  std::vector<char> proc_up_;
  ProcCount avail_ = 0;
  std::vector<std::pair<JobId, NodeId>> proc_node_;
  std::vector<ProcCount> up_list_;
  /// End of the last interval that executed anything; a failure claims a
  /// victim only if it struck during execution (guards against stale victim
  /// entries across idle stretches).
  Time last_exec_end_ = -1.0;

  // Arrival / deadline / completion queues.  The deadline heap is a compact
  // 4-ary heap of (time, job) entries; pop order equals sorted order for
  // the unique keys it holds, so the arity is invisible to decision logs.
  std::size_t next_arrival_ = 0;
  using DeadlineEntry = std::pair<Time, JobId>;
  DaryHeap<DeadlineEntry> deadlines_;
  std::vector<JobId> completed_now_;
  std::size_t jobs_done_ = 0;
  // Slots only: jobs expired at slot t = floor(d) < d, so still able to
  // finish in it; the next delivery (now >= t + 1 > d) retires them.
  std::vector<JobId> retire_next_;

  // Previous interval's running nodes, for preemption accounting; its jobs
  // are the runs of equal job ids.  Membership tests use the table's
  // epoch-stamp columns so each decision costs O(running) with no sorting;
  // the seed sorted + binary-searched both sets per decision, which
  // dominated the event engine's hot loop at 10^5 jobs.
  std::vector<std::pair<JobId, NodeId>> prev_nodes_;
  std::uint32_t interval_epoch_ = 0;
  std::vector<JobId> preempted_jobs_;  // scratch, event-order emission

  // Duplicate-allocation detection epoch (stamps live in the table).
  std::uint32_t alloc_epoch_ = 0;

  // Machine-time accounting: integral of up-capacity over every accounted
  // interval.  Idle time is derived as capacity - busy, which is exact even
  // when a node finishes mid-slot and strands its processor.
  double capacity_time_ = 0.0;
  Time start_time_ = 0.0;
};

}  // namespace dagsched

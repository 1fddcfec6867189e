#include "sim/kernel/kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/telemetry/telemetry.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

SimKernel::SimKernel(const JobSet& jobs, SchedulerBase& scheduler,
                     NodeSelector& selector, SimOptions options)
    : jobs_(jobs),
      scheduler_(scheduler),
      selector_(selector),
      options_(std::move(options)) {
  DS_CHECK_MSG(options_.num_procs >= 1, "need at least one processor");
  DS_CHECK_MSG(options_.speed > 0.0, "speed must be positive");
  DS_CHECK_MSG(jobs_.sorted_by_release(), "JobSet not finalized");
}

SimResult SimKernel::run(EngineKind kind) {
  if (jobs_.size() == 0) return SimResult{};
  const bool slots = kind == EngineKind::kSlot;
  deadline_policy_ = slots ? DeadlineDuePolicy::kBeforeNextSlot
                           : DeadlineDuePolicy::kAtOrBeforeNow;
  max_decisions_ = slots ? 0 : options_.max_decisions;

  // Slots start at the first release's slot, event steps at the release.
  Time start = slots ? std::max(0.0, std::floor(jobs_[0].release()))
                     : jobs_[0].release();
  begin(start);
  if (options_.resume != nullptr) {
    // Restore the exact loop-top state the checkpoint captured; the run
    // continues as if it had never stopped (the decision log from here on
    // is byte-identical to the uninterrupted run's suffix).
    CheckpointReader kernel_in = options_.resume->section_reader("kernel");
    CheckpointReader sched_in = options_.resume->section_reader("scheduler");
    load_checkpoint_state(kernel_in, sched_in);
    start = slots ? static_cast<Time>(options_.resume->meta.slot)
                  : options_.resume->meta.sim_time;
    ctx_.now_ = start;
    if (options_.checkpoint != nullptr) {
      options_.checkpoint->note_resumed(result_.decisions);
    }
  }
  if (slots) {
    run_slots(static_cast<std::uint64_t>(start));
  } else {
    run_events(start);
  }
  return finish();
}

void SimKernel::begin(Time start_time) {
  const std::size_t n = jobs_.size();
  scheduler_.reset();
  state_.reset(jobs_);
  result_ = SimResult{};
  result_.outcomes.resize(n);

  ctx_.now_ = start_time;
  ctx_.m_ = options_.num_procs;
  ctx_.speed_ = options_.speed;
  ctx_.clairvoyant_allowed_ = scheduler_.clairvoyant();
  ctx_.jobs_ = &jobs_.jobs();
  ctx_.state_ = &state_;
  ctx_.obs_ = options_.obs;

  // Registry counters are written in finish(); only the running-nodes
  // histogram is resolved up front.
  obs_ = options_.obs;
  metrics_ = obs_ != nullptr ? obs_->metrics : nullptr;
  h_running_ = metrics_ != nullptr
                   ? metrics_->histogram("engine.running_nodes")
                   : nullptr;
  node_starts_ = 0;
  node_completions_ = 0;
  overload_active_ = false;

  telemetry_ = options_.telemetry;
  expiries_delivered_ = 0;
  if (telemetry_ != nullptr) {
    input_bytes_ = jobs_.input_bytes();
    telemetry_->begin_run(start_time);
  }

  // Fault state: all of it is gated on options_.faults so fault-free runs
  // stay byte-identical.
  const FaultInjector* faults = options_.faults;
  churn_ = faults != nullptr && faults->has_churn();
  next_transition_ = 0;
  proc_up_.assign(options_.num_procs, 1);
  avail_ = options_.num_procs;
  proc_node_.assign(options_.num_procs, {kInvalidJob, 0});
  up_list_.clear();
  last_exec_end_ = -1.0;

  next_arrival_ = 0;
  deadlines_.clear();
  completed_now_.clear();
  jobs_done_ = 0;
  retire_next_.clear();
  prev_nodes_.clear();
  interval_epoch_ = 0;
  preempted_jobs_.clear();
  alloc_epoch_ = 0;
  capacity_time_ = 0.0;
  start_time_ = start_time;
}

void SimKernel::fail(SimFailureKind kind, std::string message, Time now,
                     const char* slug) {
  result_.failure = kind;
  result_.failure_message = std::move(message);
  if (obs_ != nullptr) {
    obs_->event(now, kInvalidJob, ObsEventKind::kEngineAbort, slug);
  }
}

void SimKernel::deliver_transitions(Time now) {
  // Events are stamped with the transition's own time so both loops emit
  // identical fault timelines; victims of restart-from-zero lose their
  // progress here.  A failed processor claims a victim only if it struck
  // while that processor was executing (last_exec_end_ guards against stale
  // victim-map entries across idle stretches).
  const FaultInjector* faults = options_.faults;
  const auto& transitions = faults->transitions();
  const auto telemetry_t0 = telemetry_ != nullptr
                                ? TelemetryRecorder::Clock::now()
                                : TelemetryRecorder::Clock::time_point{};
  bool capacity_changed = false;
  while (next_transition_ < transitions.size() &&
         approx_le(transitions[next_transition_].time, now)) {
    const ProcTransition& tr = transitions[next_transition_++];
    if (tr.up) {
      if (proc_up_[tr.proc]) continue;
      proc_up_[tr.proc] = 1;
      ++avail_;
      capacity_changed = true;
      if (obs_ != nullptr) {
        obs_->event(tr.time, kInvalidJob, ObsEventKind::kProcUp, {},
                    {{"proc", static_cast<double>(tr.proc)}});
      }
    } else {
      if (!proc_up_[tr.proc]) continue;
      proc_up_[tr.proc] = 0;
      --avail_;
      capacity_changed = true;
      if (obs_ != nullptr) {
        obs_->event(tr.time, kInvalidJob, ObsEventKind::kProcDown, {},
                    {{"proc", static_cast<double>(tr.proc)}});
      }
      const auto [vjob, vnode] = proc_node_[tr.proc];
      proc_node_[tr.proc] = {kInvalidJob, 0};
      if (faults->restart_from_zero() && vjob != kInvalidJob &&
          approx_le(tr.time, last_exec_end_) && !state_.completed(vjob) &&
          !state_.unfolding(vjob).is_done(vnode)) {
        const Work lost = state_.unfolding(vjob).reset_progress(vnode);
        result_.lost_work += lost;
        if (obs_ != nullptr) {
          obs_->event(tr.time, vjob, ObsEventKind::kNodeRestart, {},
                      {{"node", static_cast<double>(vnode)}, {"lost", lost}});
        }
      }
    }
  }
  if (capacity_changed) {
    const ProcCount old_m = ctx_.m_;
    DS_CHECK_MSG(avail_ >= 1, "fault plan left zero processors up");
    ctx_.m_ = avail_;
    scheduler_.on_capacity_change(ctx_, old_m, avail_);
  }
  if (telemetry_ != nullptr) telemetry_->record_transition_since(telemetry_t0);
}

void SimKernel::emplace_arrived(JobId id) {
  const FaultInjector* faults = options_.faults;
  std::vector<Work> actual_works;
  if (faults != nullptr && faults->scales_work()) {
    actual_works = faults->scaled_works(id, jobs_[id].dag());
  }
  if (actual_works.empty()) {
    state_.emplace_unfolding(id, jobs_[id].dag());
  } else {
    state_.emplace_unfolding(id, jobs_[id].dag(), actual_works);
  }
}

void SimKernel::deliver_arrivals(Time now) {
  const std::size_t n = jobs_.size();
  const FaultInjector* faults = options_.faults;
  while (next_arrival_ < n && approx_le(jobs_[next_arrival_].release(), now)) {
    // Admission cost = unfolding construction + bookkeeping + the
    // scheduler's on_arrival (allocation computation, condition (2)).
    const auto telemetry_t0 = telemetry_ != nullptr
                                  ? TelemetryRecorder::Clock::now()
                                  : TelemetryRecorder::Clock::time_point{};
    const JobId id = static_cast<JobId>(next_arrival_++);
    state_.set_arrived(id);
    emplace_arrived(id);
    state_.activate(id);
    if (jobs_[id].has_deadline()) {
      deadlines_.emplace(jobs_[id].absolute_deadline(), id);
    }
    if (obs_ != nullptr) obs_->event(now, id, ObsEventKind::kArrival);
    const Work actual_total = state_.unfolding(id).total_remaining_work();
    if (faults != nullptr && approx_gt(actual_total, jobs_[id].work())) {
      if (obs_ != nullptr) {
        obs_->event(now, id, ObsEventKind::kWorkOverrun, {},
                    {{"declared", jobs_[id].work()},
                     {"actual", actual_total}});
      }
    }
    scheduler_.on_arrival(ctx_, id);
    if (telemetry_ != nullptr) telemetry_->record_admission_since(telemetry_t0);
  }
}

void SimKernel::deliver_expiries(Time now) {
  // A job retires -- leaves the active set, keeping its unfolding and
  // outcome columns -- at the first decision point where approx_le(d, now),
  // i.e. JobView::deadline_unreachable(now), holds.  On event steps that is
  // the expiry's own delivery; jobs that slots expire while still
  // reachable wait in retire_next_ (deactivate() ignores any that
  // completed meanwhile).
  for (const JobId id : retire_next_) state_.deactivate(id);
  retire_next_.clear();
  while (expiry_due(now)) {
    const auto [deadline, id] = deadlines_.top();
    deadlines_.pop();
    if (state_.completed(id) || state_.deadline_notified(id)) continue;
    state_.set_deadline_notified(id);
    if (approx_le(deadline, now)) {
      state_.deactivate(id);
    } else {
      retire_next_.push_back(id);
    }
    ++expiries_delivered_;
    if (obs_ != nullptr) obs_->event(now, id, ObsEventKind::kExpire);
    scheduler_.on_deadline(ctx_, id);
  }
  state_.maybe_compact();
}

std::string SimKernel::validate(const Assignment& assignment) {
  // Hot path: message strings are built only in the error branches (stream
  // construction per decision would dominate cheap slot-engine decides).
  ProcCount total = 0;
  ++alloc_epoch_;
  for (const JobAlloc& alloc : assignment.allocs) {
    if (alloc.job >= jobs_.size()) {
      return "allocation to unknown job " + std::to_string(alloc.job);
    }
    if (alloc.procs < 1) {
      return "zero-processor allocation to job " + std::to_string(alloc.job);
    }
    if (state_.alloc_stamp(alloc.job) == alloc_epoch_) {
      return "duplicate allocation to job " + std::to_string(alloc.job);
    }
    state_.alloc_stamp(alloc.job) = alloc_epoch_;
    if (!state_.arrived(alloc.job)) {
      return "allocation to unarrived job " + std::to_string(alloc.job);
    }
    if (state_.completed(alloc.job)) {
      return "allocation to completed job " + std::to_string(alloc.job);
    }
    total += alloc.procs;
  }
  // ctx_.m_ is the currently-up processor count (== num_procs unless fault
  // injection took some down), so rogue allocations onto failed processors
  // are caught here.
  if (total > ctx_.m_) {
    return "allocation uses " + std::to_string(total) +
           " > m=" + std::to_string(ctx_.m_) + " processors";
  }
  return {};
}

bool SimKernel::decide(Time now, Assignment& out) {
  out.clear();
  // Wall-clock timing is needed by telemetry and by the overload budget;
  // with neither attached the decide stays a single virtual call, the seed
  // hot path.
  const bool budgeted = options_.decide_budget_ns > 0;
  std::uint64_t decide_ns = 0;
  if (telemetry_ == nullptr && !budgeted) {
    scheduler_.decide(ctx_, out);
  } else {
    const auto t0 = TelemetryRecorder::Clock::now();
    scheduler_.decide(ctx_, out);
    if (budgeted) {
      decide_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              TelemetryRecorder::Clock::now() - t0)
              .count());
    }
    if (telemetry_ != nullptr) telemetry_->record_decide_since(t0);
  }
  ++result_.decisions;
  if (options_.die_at_decision != 0 &&
      result_.decisions == options_.die_at_decision) {
    // Simulated SIGKILL for the crash-recovery harness: no stack unwinding,
    // no atexit flushes -- nothing this decision produced may survive.
    std::_Exit(9);
  }
  if (max_decisions_ > 0 && result_.decisions > max_decisions_) {
    // Livelock guard: fail the run structurally instead of aborting the
    // process; outcomes finalized later still reflect completed jobs.
    std::ostringstream msg;
    msg << "decision budget " << max_decisions_ << " exhausted at t="
        << now << " (scheduler livelock?)";
    fail(SimFailureKind::kDecisionBudget, msg.str(), now, "decision-budget");
    return false;
  }
  if (std::string error = validate(out); !error.empty()) {
    // A malformed allocation is a scheduler bug, not a machine state: refuse
    // to apply it and terminate the run structurally so sweeps and the CLI
    // can report it without losing completed outcomes.
    fail(SimFailureKind::kBadAllocation, std::move(error), now,
         "bad-allocation");
    return false;
  }
  if (options_.observer) options_.observer(ctx_, out);
  if (budgeted) handle_overload(now, decide_ns);
  if (telemetry_ != nullptr && telemetry_->snapshot_due(now)) {
    emit_telemetry(now, /*final_snapshot=*/false);
  }
  begin_interval();
  return true;
}

void SimKernel::handle_overload(Time now, std::uint64_t decide_ns) {
  if (options_.overload_probe) {
    decide_ns = options_.overload_probe(result_.decisions, decide_ns);
  }
  if (decide_ns > options_.decide_budget_ns) {
    ++result_.overload_breaches;
    if (obs_ != nullptr) {
      obs_->event(now, kInvalidJob, ObsEventKind::kOverload,
                  "overload.breach",
                  {{"elapsed_ns", static_cast<double>(decide_ns)},
                   {"budget_ns",
                    static_cast<double>(options_.decide_budget_ns)}});
    }
    overload_active_ = true;
    // The shed affects the *next* decision: this interval's allocation was
    // already validated, and a shed job staying on its processors for one
    // more interval is harmless -- it is only dropped from the scheduler's
    // queues, never from the kernel's active set.
    const std::size_t shed =
        scheduler_.shed_load(ctx_, std::max<std::size_t>(
                                       1, options_.overload_shed_max));
    result_.overload_sheds += shed;
  } else if (overload_active_) {
    overload_active_ = false;
    ++result_.overload_recoveries;
    if (obs_ != nullptr) {
      obs_->event(now, kInvalidJob, ObsEventKind::kOverload,
                  "overload.recovered");
    }
  }
}

void SimKernel::begin_interval() {
  if (!churn_) return;
  up_list_.clear();
  for (ProcCount p = 0; p < options_.num_procs; ++p) {
    if (proc_up_[p]) up_list_.push_back(p);
  }
  std::fill(proc_node_.begin(), proc_node_.end(),
            std::make_pair(kInvalidJob, NodeId{0}));
}

void SimKernel::notify_completions_slow(Time notify_time) {
  // Flags first (set in mark_if_completed), notifications second, so the
  // scheduler observes a consistent post-completion state.
  ctx_.now_ = notify_time;
  for (const JobId id : completed_now_) state_.deactivate(id);
  state_.maybe_compact();
  for (const JobId id : completed_now_) {
    if (obs_ != nullptr) obs_->event(notify_time, id, ObsEventKind::kComplete);
    scheduler_.on_completion(ctx_, id);
    ++jobs_done_;
  }
  completed_now_.clear();
}

void SimKernel::account_preemptions(Time now) {
  // Stamp this interval's nodes and jobs, then scan the previous interval:
  // anything that ran before, is unfinished, and carries a stale stamp was
  // preempted.  O(running) per decision, no sorting.  A job's nodes are
  // adjacent, so the first node of each run stands for its job.
  ++interval_epoch_;
  const std::uint32_t e = interval_epoch_;
  for (const auto& [job, node] : running_) {
    state_.node_stamp(job, node) = e;
    state_.job_stamp(job) = e;
  }
  preempted_jobs_.clear();
  JobId run_job = kInvalidJob;
  for (const auto& [job, node] : prev_nodes_) {
    if (state_.completed(job)) continue;
    if (job != run_job) {
      run_job = job;
      if (state_.job_stamp(job) != e) preempted_jobs_.push_back(job);
    }
    if (state_.unfolding(job).is_done(node)) continue;
    if (state_.node_stamp(job, node) != e) ++result_.node_preemptions;
  }
  result_.job_preemptions += preempted_jobs_.size();
  if (obs_ != nullptr) {
    // Emit in ascending job id -- the order the seed's sorted previous set
    // produced -- so decision logs stay byte-identical.
    std::sort(preempted_jobs_.begin(), preempted_jobs_.end());
    for (const JobId job : preempted_jobs_) {
      obs_->event(now, job, ObsEventKind::kPreempt);
    }
  }
  std::swap(prev_nodes_, running_);
}

void SimKernel::publish_counters(double idle) const {
  // Each figure comes from the one place the kernel already keeps it:
  // SimResult fields and the checkpointed kernel members are whole-run
  // totals after a resume; the tallies count from the resume point.
  // Registration is gated: fault.* only with an injector, overload.* only
  // with a decide budget.
  MetricRegistry& mr = *metrics_;
  const auto put = [&mr](std::string_view name, double value) {
    mr.counter(name)->add(value);
  };
  const auto tally = [&put](std::string_view name, std::size_t count) {
    put(name, static_cast<double>(count));
  };
  tally("engine.decisions", result_.decisions);
  tally("engine.arrivals", next_arrival_);
  tally("engine.deadline_expiries", expiries_delivered_);
  tally("engine.node_starts", node_starts_);
  tally("engine.node_completions", node_completions_);
  tally("engine.job_completions", jobs_done_);
  tally("engine.node_preemptions", result_.node_preemptions);
  tally("engine.job_preemptions", result_.job_preemptions);
  put("engine.busy_proc_time", result_.busy_proc_time);
  put("engine.idle_proc_time", idle);
  if (options_.faults != nullptr) {
    // Registered so they read 0 when their events never happened.
    for (const char* name : {"fault.proc_downs", "fault.proc_ups",
                             "fault.node_restarts", "fault.work_overruns"}) {
      mr.counter(name);
    }
    put("fault.lost_work", result_.lost_work);
  }
  if (options_.decide_budget_ns > 0) {
    tally("overload.breaches", result_.overload_breaches);
    tally("overload.sheds", result_.overload_sheds);
    tally("overload.recoveries", result_.overload_recoveries);
  }
}

std::size_t SimKernel::kernel_bytes() const {
  // Allocated (capacity) bytes of the kernel's bookkeeping containers --
  // the figure the million-job memory budget tracks per subsystem.  The
  // SoA job-state columns report through the table; the unfolding arena is
  // its own telemetry gauge.
  return state_.memory_bytes() + deadlines_.memory_bytes() +
         completed_now_.capacity() * sizeof(JobId) +
         retire_next_.capacity() * sizeof(JobId) +
         prev_nodes_.capacity() * sizeof(std::pair<JobId, NodeId>) +
         preempted_jobs_.capacity() * sizeof(JobId) +
         proc_up_.capacity() * sizeof(char) +
         proc_node_.capacity() * sizeof(std::pair<JobId, NodeId>) +
         up_list_.capacity() * sizeof(ProcCount);
}

void SimKernel::emit_telemetry(Time now, bool final_snapshot) {
  TelemetrySample sample;
  sample.sim_time = now;
  sample.final_snapshot = final_snapshot;
  sample.decisions = result_.decisions;
  sample.arrivals = next_arrival_;
  sample.completions = jobs_done_;
  sample.expiries = expiries_delivered_;
  sample.transitions = churn_ ? next_transition_ : 0;
  sample.jobs_in_flight = state_.active_live();
  sample.jobs_total = jobs_.size();
  sample.queue_depth = scheduler_.queue_depth();
  sample.kernel_bytes = kernel_bytes();
  sample.unfolding_bytes = state_.unfolding_arena().high_water();
  sample.scheduler_bytes = scheduler_.memory_bytes();
  sample.input_bytes = input_bytes_;
  if (final_snapshot) {
    telemetry_->finish_run(sample);
  } else {
    telemetry_->emit_snapshot(sample);
  }
}

void SimKernel::save_checkpoint_state(CheckpointWriter& kernel_out,
                                      CheckpointWriter& scheduler_out) const {
  // Snapshot point contract: top of a stepping loop iteration.  Completions
  // of the previous step have been notified, so nothing is in flight.
  DS_CHECK_MSG(completed_now_.empty(),
               "checkpoint with pending completion notifications");
  CheckpointWriter& out = kernel_out;
  const std::size_t n = jobs_.size();
  out.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const JobId id = static_cast<JobId>(i);
    // The table's flag bits are the wire encoding (JobStateTable::kArrived
    // et al. match the checkpoint layout).
    out.u8(state_.flags(id));
    out.f64(state_.completion_time(id));
    const Time first_start = state_.first_start(id);
    out.f64(first_start);
    out.f64(state_.executed(id));
    if (!state_.arrived(id)) continue;
    // advance_node() is the only writer of first_start, so a job that never
    // started still holds exactly the unfolding its arrival built, and the
    // loader rebuilds it instead of reading it: first_start is the tag.
    const UnfoldingState& unfolding = state_.unfolding(id);
    if (first_start != kTimeInfinity) {
      unfolding.save_state(out);
    } else {
      DS_CHECK_MSG(unfolding.nodes_remaining() == unfolding.dag().num_nodes(),
                   "job " << id << " never started but has finished nodes");
    }
  }
  // The active set, the arrival cursor, the completed and expired counts
  // and the up-processor count are not written: the job flags and the
  // processor up-set determine them, and the loader derives them.
  out.u64(result_.decisions);
  out.u64(result_.node_preemptions);
  out.u64(result_.job_preemptions);
  out.f64(result_.busy_proc_time);
  out.f64(result_.end_time);
  out.f64(result_.lost_work);
  out.u64(result_.overload_breaches);
  out.u64(result_.overload_sheds);
  out.u64(result_.overload_recoveries);
  out.boolean(overload_active_);
  out.boolean(churn_);
  if (churn_) {
    // up_list_ is rebuilt by begin_interval() every decision and avail_ is
    // the up-set's count; everything else about the fault plan's position
    // is explicit state.
    out.u64(next_transition_);
    out.u64(proc_up_.size());
    for (const char up : proc_up_) out.u8(static_cast<std::uint8_t>(up));
    out.u64(proc_node_.size());
    for (const auto& [job, node] : proc_node_) {
      out.u32(job);
      out.u32(node);
    }
    out.f64(last_exec_end_);
  }
  out.u64(prev_nodes_.size());
  for (const auto& [job, node] : prev_nodes_) {
    out.u32(job);
    out.u32(node);
  }
  out.f64(capacity_time_);
  out.f64(start_time_);

  scheduler_out.str(scheduler_.name());
  scheduler_.save_state(scheduler_out);
}

void SimKernel::load_checkpoint_state(CheckpointReader& kernel_in,
                                      CheckpointReader& scheduler_in) {
  CheckpointReader& in = kernel_in;
  const std::size_t n = jobs_.size();
  if (in.u64() != n) {
    in.fail("checkpoint job count does not match this workload (" +
            std::to_string(n) + " jobs)");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const JobId id = static_cast<JobId>(i);
    const std::uint8_t flags = in.u8();
    if ((flags & ~0x7u) != 0) in.fail("malformed job-runtime flags");
    state_.set_flags(id, flags);
    if (state_.completed(id) && !state_.arrived(id)) {
      in.fail("job " + std::to_string(i) + " completed without arriving");
    }
    state_.completion_time(id) = in.f64();
    const Time first_start = in.f64();
    state_.first_start(id) = first_start;
    state_.executed(id) = in.f64();
    if (state_.arrived(id) && first_start != kTimeInfinity) {
      // Re-emplace from the DAG, then overwrite the per-node block;
      // overrun-scaled works are captured in the serialized initial column.
      state_.emplace_unfolding(id, jobs_[i].dag());
      state_.unfolding(id).load_state(in);
    } else if (state_.arrived(id)) {
      if (state_.completed(id)) {
        in.fail("job " + std::to_string(i) + " completed without starting");
      }
      // Never started: its unfolding is the one arrival built.
      emplace_arrived(id);
    }
  }

  // Derived state (begin() left it empty).  Arrivals are delivered in id
  // order, so the arrived flags form a prefix whose length is the arrival
  // cursor.  The active set holds the arrived, incomplete, un-notified jobs
  // in arrival order (removals only tombstone slots, and compaction keeps
  // the order), so activating them in id order rebuilds what the scheduler
  // iterates; a job still in retire_next_ at the snapshot is retired by
  // the first delivery, before any decide().  Each delivered expiry set one
  // deadline-notified flag, and the deadline heap holds the undelivered
  // deadlines of incomplete jobs (a lazily discarded entry for a completed
  // job was behaviorally inert, so omitting it is exact).
  for (std::size_t i = 0; i < n; ++i) {
    const JobId id = static_cast<JobId>(i);
    if (!state_.arrived(id)) continue;
    if (next_arrival_ != i) in.fail("arrived jobs are not a release prefix");
    ++next_arrival_;
    const bool notified = state_.deadline_notified(id);
    if (notified) ++expiries_delivered_;
    if (state_.completed(id)) {
      ++jobs_done_;
      continue;
    }
    if (notified) continue;
    state_.activate(id);
    if (jobs_[i].has_deadline()) {
      deadlines_.emplace(jobs_[i].absolute_deadline(), id);
    }
  }

  result_.decisions = static_cast<std::size_t>(in.u64());
  result_.node_preemptions = static_cast<std::size_t>(in.u64());
  result_.job_preemptions = static_cast<std::size_t>(in.u64());
  result_.busy_proc_time = in.f64();
  result_.end_time = in.f64();
  result_.lost_work = in.f64();
  result_.overload_breaches = static_cast<std::size_t>(in.u64());
  result_.overload_sheds = static_cast<std::size_t>(in.u64());
  result_.overload_recoveries = static_cast<std::size_t>(in.u64());
  overload_active_ = in.boolean();
  if (in.boolean() != churn_) {
    in.fail("checkpoint fault mode does not match this run");
  }
  if (churn_) {
    next_transition_ = static_cast<std::size_t>(in.u64());
    if (next_transition_ > options_.faults->transitions().size()) {
      in.fail("fault-plan cursor out of range");
    }
    if (in.u64() != proc_up_.size()) in.fail("processor count mismatch");
    avail_ = 0;
    for (char& slot : proc_up_) {
      slot = static_cast<char>(in.boolean() ? 1 : 0);
      if (slot != 0) ++avail_;
    }
    if (avail_ < 1) in.fail("up-processor count out of range");
    ctx_.m_ = avail_;
    if (in.u64() != proc_node_.size()) in.fail("victim-map size mismatch");
    for (auto& [job, node] : proc_node_) {
      job = in.u32();
      node = in.u32();
      if (job != kInvalidJob && job >= n) in.fail("malformed victim entry");
    }
    last_exec_end_ = in.f64();
  }
  const std::uint64_t prev_node_count = in.count(8);
  prev_nodes_.resize(static_cast<std::size_t>(prev_node_count));
  for (auto& [job, node] : prev_nodes_) {
    job = in.u32();
    node = in.u32();
    // account_preemptions() reads the unfolding of each entry's job.
    if (job >= n || !state_.arrived(job) ||
        node >= jobs_[job].dag().num_nodes()) {
      in.fail("malformed previous-interval node entry");
    }
  }
  capacity_time_ = in.f64();
  start_time_ = in.f64();
  in.expect_done();

  const std::string saved_scheduler = scheduler_in.str();
  if (saved_scheduler != scheduler_.name()) {
    scheduler_in.fail("checkpoint was taken by scheduler '" +
                      saved_scheduler + "', not '" + scheduler_.name() + "'");
  }
  scheduler_in.set_job_bound(n);
  scheduler_.load_state(scheduler_in);
  scheduler_in.expect_done();
}

SimResult SimKernel::finish() {
  if (telemetry_ != nullptr) {
    emit_telemetry(result_.end_time, /*final_snapshot=*/true);
  }
  // Idle processor-time is the accounted capacity not spent executing; this
  // is exact even when a node finishes mid-slot and strands its processor
  // for the rest of the slot.
  const double idle =
      std::max(0.0, capacity_time_ - result_.busy_proc_time);
  if (metrics_ != nullptr) publish_counters(idle);
  // The one place the machine-time conservation invariant is asserted: on a
  // fault-free run that did not terminate abnormally, every instant between
  // the accounting start and the last event is accounted exactly once, so
  // busy + idle == m x (end - start).  Under churn the capacity integral is
  // exact but no longer m x elapsed, so the closed form does not apply.
  if (!result_.failed() && !churn_) {
    const double expected = static_cast<double>(options_.num_procs) *
                            (result_.end_time - start_time_);
    const double tolerance = 1e-6 * std::max(1.0, expected);
    DS_CHECK_MSG(
        std::abs((result_.busy_proc_time + idle) - expected) <= tolerance,
        "machine-time accounting drifted: busy "
            << result_.busy_proc_time << " + idle " << idle << " != m*(end-"
            << "start) = " << expected);
  }

  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobId id = static_cast<JobId>(i);
    JobOutcome& out = result_.outcomes[i];
    out.completed = state_.completed(id);
    out.completion_time = state_.completion_time(id);
    out.executed = state_.executed(id);
    out.first_start = state_.first_start(id);
    if (out.completed) {
      out.profit =
          jobs_[i].profit().at(out.completion_time - jobs_[i].release());
      result_.total_profit += out.profit;
      ++result_.jobs_completed;
    }
  }
  return std::move(result_);
}

}  // namespace dagsched

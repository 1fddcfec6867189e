#include "core/deadline_scheduler.h"

#include <algorithm>
#include <iterator>

#include "obs/sink.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

DeadlineScheduler::DeadlineScheduler(DeadlineSchedulerOptions options)
    : options_(std::move(options)) {
  options_.params.validate();
}

std::string DeadlineScheduler::name() const {
  std::string n = "paper-S(eps=" + std::to_string(options_.params.epsilon);
  if (!options_.enforce_admission) n += ",no-admission";
  if (options_.work_conserving) n += ",work-conserving";
  if (options_.admit_on_deadline) n += ",admit-on-deadline";
  if (options_.recompute_on_admission) n += ",recompute";
  switch (options_.density_def) {
    case DeadlineSchedulerOptions::DensityDef::kPaper: break;
    case DeadlineSchedulerOptions::DensityDef::kClassic:
      n += ",density=p/W";
      break;
    case DeadlineSchedulerOptions::DensityDef::kSquashed:
      n += ",density=squashed";
      break;
  }
  n += ")";
  return n;
}

namespace {

/// How each DeadlineScheduler::Transition (by index) appears in the
/// decision log and the admission audit.
struct TransitionSpec {
  ObsEventKind kind;
  const char* reason;
  const char* audit_name;
};
constexpr TransitionSpec kTransitions[] = {
    {ObsEventKind::kAdmit, "cond2-ok", "admitted"},
    {ObsEventKind::kDefer, "not-delta-good", "queued:not-delta-good"},
    {ObsEventKind::kDefer, "window-full", "queued:window-full"},
    {ObsEventKind::kAdmit, "promoted", "promoted"},
    {ObsEventKind::kDrop, "stale", "dropped:stale"},
    {ObsEventKind::kDrop, "expired-in-q", "expired-in-Q"},
};

}  // namespace

const char* admission_transition_name(const DecisionEvent& event) {
  for (const TransitionSpec& spec : kTransitions) {
    if (spec.kind == event.kind && event.reason == spec.reason) {
      return spec.audit_name;
    }
  }
  return nullptr;
}

void DeadlineScheduler::record(const EngineContext& ctx, JobId job,
                               Transition transition) {
  const ObsSink* obs = ctx.obs();
  if (obs == nullptr) return;
  const TransitionSpec& spec =
      kTransitions[static_cast<std::size_t>(transition)];
  // Every event carries the allocation the decision was made against, so a
  // consumer can replay condition (2) offline (see docs/OBSERVABILITY.md).
  obs->event(ctx.now(), job, spec.kind, spec.reason,
             {{"v", info_[job].alloc.v},
              {"n", static_cast<double>(info_[job].alloc.n)},
              {"good", info_[job].alloc.good ? 1.0 : 0.0}});
}

void DeadlineScheduler::reset() {
  info_.clear();
  q_index_.clear();
  p_.clear();
  started_count_ = 0;
  started_profit_ = 0.0;
}

Density DeadlineScheduler::density_for(const EngineContext& ctx,
                                       const JobInfo& info, Work work,
                                       Work span) const {
  switch (options_.density_def) {
    case DeadlineSchedulerOptions::DensityDef::kPaper:
      return info.alloc.v;
    case DeadlineSchedulerOptions::DensityDef::kClassic:
      return info.peak / work;
    case DeadlineSchedulerOptions::DensityDef::kSquashed:
      return info.peak /
             std::max(span, work / static_cast<double>(ctx.num_procs()));
  }
  return info.alloc.v;
}

void DeadlineScheduler::admit_to_q(JobId job) {
  JobInfo& info = info_[job];
  // A job evicted by a capacity shrink and later re-admitted is already
  // started; it joins the paper's set R (and started_profit_) only once.
  if (!info.started) {
    info.started = true;
    ++started_count_;
    started_profit_ += info.peak;
  }
  q_index_.insert(job, info.alloc.v, info.alloc.n);
  info.in_q = true;
}

void DeadlineScheduler::enqueue_p(JobId job) {
  JobInfo& info = info_[job];
  p_.insert(job, info.alloc.v);
  info.in_p = true;
}

void DeadlineScheduler::remove_from_p(JobId job, Density v) {
  p_.erase(job, v);
  info_[job].in_p = false;
}

void DeadlineScheduler::remove_from_q(JobId job) {
  q_index_.erase(job);
  info_[job].in_q = false;
}

bool DeadlineScheduler::is_fresh(const JobInfo& info, Time now) const {
  // delta-fresh at t: d_i - t >= (1 + delta) x_i.
  return approx_ge(info.abs_plateau_deadline - now,
                   (1.0 + options_.params.delta) * info.alloc.x);
}

void DeadlineScheduler::on_arrival(const EngineContext& ctx, JobId job) {
  if (info_.size() < ctx.num_jobs()) info_.resize(ctx.num_jobs());
  JobInfo& info = info_[job];
  DS_CHECK(!info.arrived);
  info.arrived = true;

  const JobView view = ctx.view(job);
  // General profit functions reduce to the plateau end (see header).
  info.plateau = view.profit().plateau_end();
  info.peak = view.profit().peak();
  info.abs_plateau_deadline = view.release() + info.plateau;

  info.alloc = compute_deadline_allocation(view.work(), view.span(),
                                           info.plateau, info.peak,
                                           options_.params, ctx.speed());
  if (info.alloc.n == 0) {
    // Infeasible for any processor count: park in P; it will expire there.
    enqueue_p(job);
    record(ctx, job, Transition::kQueuedNotGood);
    return;
  }
  info.alloc.v = density_for(ctx, info, view.work(), view.span());

  const double cap =
      options_.params.b * static_cast<double>(ctx.num_procs());
  bool admissible = info.alloc.good;
  if (admissible && options_.enforce_admission) {
    admissible =
        q_index_.admits(info.alloc.v, info.alloc.n, options_.params.c, cap);
  }
  if (admissible) {
    admit_to_q(job);
    record(ctx, job, Transition::kAdmitted);
  } else {
    enqueue_p(job);
    record(ctx, job,
           info.alloc.good ? Transition::kQueuedWindowFull
                           : Transition::kQueuedNotGood);
  }
}

void DeadlineScheduler::drain_p(const EngineContext& ctx) {
  const double cap =
      options_.params.b * static_cast<double>(ctx.num_procs());
  // Walk a snapshot of P in (density desc, id asc) order against the
  // evolving q_index_.  P holds only jobs that can still earn (on_deadline
  // drops the rest), so it stays small and a full rescan is cheap.
  drain_scratch_.assign(p_.begin(), p_.end());
  for (const auto& [key_v, job] : drain_scratch_) {
    JobInfo& info = info_[job];
    // Drop jobs whose plateau deadline has passed (they can earn nothing S
    // would count) and infeasible jobs.
    if (info.alloc.n == 0 ||
        approx_gt(ctx.now(), info.abs_plateau_deadline)) {
      info.dropped = true;
      remove_from_p(job, key_v);
      record(ctx, job, Transition::kDroppedStale);
      continue;
    }
    // Optional recomputation (future-work extension): re-derive the
    // allocation from the remaining window, making stale-but-still-viable
    // jobs admissible with a larger n_i.  Reverted if admission fails so
    // the stored allocation stays consistent with P's density order.
    const JobAllocation saved = info.alloc;
    if (options_.recompute_on_admission) {
      const JobView view = ctx.view(job);
      const Time remaining_window =
          info.abs_plateau_deadline - ctx.now();
      if (remaining_window > 0.0) {
        JobAllocation fresh_alloc = compute_deadline_allocation(
            view.work(), view.span(), remaining_window, info.peak,
            options_.params, ctx.speed());
        if (fresh_alloc.n > 0) {
          info.alloc = fresh_alloc;
          info.alloc.v = density_for(ctx, info, view.work(), view.span());
        }
      }
    }
    const bool fresh = is_fresh(info, ctx.now());
    bool admissible = info.alloc.n > 0 && fresh;
    if (admissible && options_.enforce_admission) {
      admissible = q_index_.admits(info.alloc.v, info.alloc.n,
                                   options_.params.c, cap);
    }
    if (admissible) {
      remove_from_p(job, key_v);
      admit_to_q(job);
      record(ctx, job, Transition::kPromoted);
      continue;
    }
    info.alloc = saved;
  }
}

void DeadlineScheduler::on_capacity_change(const EngineContext& ctx,
                                           ProcCount old_m, ProcCount new_m) {
  if (new_m >= old_m) {
    // Recovery: the wider windows may now admit jobs waiting in P.
    drain_p(ctx);
    return;
  }
  // Shrink: replay admission condition (2) over Q in density order against
  // the reduced capacity b*new_m, keeping the densest feasible prefix --
  // the same greedy order decide() serves, so the jobs shed are exactly the
  // ones that could no longer be served anyway.
  const double cap = options_.params.b * static_cast<double>(new_m);
  std::vector<JobId> snapshot;
  snapshot.reserve(q_index_.size());
  q_index_.for_each_served([&snapshot](JobId job) {
    snapshot.push_back(job);
    return true;
  });
  std::vector<JobId> evicted;
  q_index_.clear();
  for (const JobId job : snapshot) {
    JobInfo& info = info_[job];
    bool ok = info.alloc.n <= new_m;
    if (ok && options_.enforce_admission) {
      ok = q_index_.admits(info.alloc.v, info.alloc.n, options_.params.c,
                           cap);
    }
    if (ok) {
      q_index_.insert(job, info.alloc.v, info.alloc.n);
    } else {
      info.in_q = false;
      evicted.push_back(job);
    }
  }
  const ObsSink* obs = ctx.obs();
  for (const JobId job : evicted) {
    JobInfo& info = info_[job];
    const bool fresh = is_fresh(info, ctx.now());
    const char* slug = info.alloc.n > new_m ? "too-wide" : "window-full";
    if (fresh) {
      enqueue_p(job);  // may be re-admitted when capacity recovers
    } else {
      info.dropped = true;
      slug = "stale";
    }
    if (obs != nullptr) {
      obs->event(ctx.now(), job, ObsEventKind::kReadmitFail, slug,
                 {{"v", info.alloc.v},
                  {"n", static_cast<double>(info.alloc.n)},
                  {"m", static_cast<double>(new_m)},
                  {"requeued", fresh ? 1.0 : 0.0}});
    }
  }
}

void DeadlineScheduler::on_completion(const EngineContext& ctx, JobId job) {
  JobInfo& info = info_[job];
  if (info.in_q) remove_from_q(job);
  if (info.in_p) remove_from_p(job, info.alloc.v);
  drain_p(ctx);
}

void DeadlineScheduler::on_deadline(const EngineContext& ctx, JobId job) {
  JobInfo& info = info_[job];
  info.dropped = true;
  const bool was_in_q = info.in_q;
  if (was_in_q) remove_from_q(job);
  const bool was_in_p = info.in_p;
  if (was_in_p) remove_from_p(job, info.alloc.v);
  if (was_in_q) record(ctx, job, Transition::kExpiredInQ);
  if (was_in_p) record(ctx, job, Transition::kDroppedStale);
  if (options_.admit_on_deadline && was_in_q) drain_p(ctx);
}

void DeadlineScheduler::decide(const EngineContext& ctx, Assignment& out) {
  ProcCount free = ctx.num_procs();
  q_index_.for_each_served([&](JobId job) {
    if (free == 0) return false;
    const JobInfo& info = info_[job];
    // Defensive: completed/expired jobs are removed eagerly in the event
    // handlers, so everything in Q is runnable.
    DS_CHECK(!info.dropped);
    if (info.alloc.n <= free) {
      out.add(job, info.alloc.n);
      free -= info.alloc.n;
    }
    // Jobs that do not fit are skipped, not truncated: S always grants
    // exactly n_i processors (Section 3.1, "Job Execution").
    return true;
  });
  if (options_.work_conserving && free > 0 && !out.allocs.empty()) {
    // Extension: leftover processors go to the densest running job; the
    // engine caps actual use at the job's ready-node count.
    out.allocs.front().procs += free;
  }
}

std::size_t DeadlineScheduler::shed_load(const EngineContext& ctx,
                                         std::size_t max_jobs) {
  // Lowest density first: the member each queue serves last.  Waiting jobs
  // go before started jobs -- abandoning a P job
  // forfeits no committed profit.  Shed jobs are marked dropped, so every
  // queue path skips them from here on; Q removals loosen admission
  // windows, which is what lets the scheduler recover on its own once the
  // overload clears.
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  auto emit = [&](JobId job, const char* slug) {
    if (obs == nullptr) return;
    obs->event(ctx.now(), job, ObsEventKind::kDrop, slug,
               {{"v", info_[job].alloc.v},
                {"n", static_cast<double>(info_[job].alloc.n)}});
  };
  while (shed < max_jobs && !p_.empty()) {
    const auto [v, job] = *std::prev(p_.end());
    remove_from_p(job, v);
    info_[job].dropped = true;
    emit(job, "overload.shed.waiting");
    ++shed;
  }
  while (shed < max_jobs && !q_index_.empty()) {
    const JobId job = q_index_.served_last();
    remove_from_q(job);
    info_[job].dropped = true;
    emit(job, "overload.shed.started");
    ++shed;
  }
  return shed;
}

void DeadlineScheduler::save_state(CheckpointWriter& out) const {
  out.u64(info_.size());
  for (const JobInfo& info : info_) {
    out.u32(info.alloc.n);
    out.f64(info.alloc.x);
    out.f64(info.alloc.v);
    out.boolean(info.alloc.good);
    out.f64(info.peak);
    out.f64(info.abs_plateau_deadline);
    out.f64(info.plateau);
    out.u8(static_cast<std::uint8_t>(
        (info.arrived ? 1u : 0u) | (info.started ? 2u : 0u) |
        (info.dropped ? 4u : 0u) | (info.in_q ? 8u : 0u) |
        (info.in_p ? 16u : 0u)));
  }
  out.u64(started_count_);
  out.f64(started_profit_);
}

void DeadlineScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.job_rows(46);
  info_.resize(in.job_bound());
  for (std::uint64_t i = 0; i < n; ++i) {
    JobInfo& info = info_[static_cast<std::size_t>(i)];
    info.alloc.n = in.u32();
    info.alloc.x = in.f64();
    info.alloc.v = in.f64();
    info.alloc.good = in.boolean();
    info.peak = in.f64();
    info.abs_plateau_deadline = in.f64();
    info.plateau = in.f64();
    const std::uint8_t flags = in.u8();
    if ((flags & ~0x1Fu) != 0) {
      in.fail("job " + std::to_string(i) + " has invalid flags");
    }
    info.arrived = (flags & 1u) != 0;
    info.started = (flags & 2u) != 0;
    info.dropped = (flags & 4u) != 0;
    info.in_q = (flags & 8u) != 0;
    info.in_p = (flags & 16u) != 0;
    if ((info.in_q && info.in_p) ||
        ((info.in_q || info.in_p) && (!info.arrived || info.dropped)) ||
        (info.in_q && (!info.started || info.alloc.n == 0 ||
                       !(info.alloc.v > 0.0)))) {
      in.fail("job " + std::to_string(i) + " has inconsistent queue flags");
    }
    // Q and P are the flagged jobs, each keyed by its allocation's density
    // (every queue insert uses alloc.v).
    const JobId job = static_cast<JobId>(i);
    if (info.in_q) {
      q_index_.insert(job, info.alloc.v, info.alloc.n);
    } else if (info.in_p) {
      p_.insert(job, info.alloc.v);
    }
  }
  started_count_ = static_cast<std::size_t>(in.u64());
  started_profit_ = in.f64();
}

bool DeadlineScheduler::in_queue_q(JobId job) const {
  return job < info_.size() && info_[job].in_q;
}

bool DeadlineScheduler::in_queue_p(JobId job) const {
  return job < info_.size() && info_[job].in_p;
}

bool DeadlineScheduler::was_started(JobId job) const {
  return job < info_.size() && info_[job].started;
}

const JobAllocation* DeadlineScheduler::allocation_of(JobId job) const {
  if (job >= info_.size() || !info_[job].arrived) return nullptr;
  return &info_[job].alloc;
}

std::size_t DeadlineScheduler::memory_bytes() const {
  // Q, P, per-job info and the drain snapshot; capacity-based like every
  // other telemetry byte gauge.
  return q_index_.memory_bytes() + p_.memory_bytes() +
         info_.capacity() * sizeof(JobInfo) +
         drain_scratch_.capacity() * sizeof(std::pair<Density, JobId>);
}

}  // namespace dagsched

// Scheduler S from Section 3 -- the paper's algorithm for jobs with
// deadlines and fixed profits.
//
// On arrival, a job's allocation (n_i, x_i, v_i) is computed; the job enters
// the *started* queue Q if it is delta-good and admission condition (2)
// holds (every density window [v_j, c*v_j) over Q ∪ {J_i} requires <= b*m
// processors), otherwise it waits in queue P.  On every completion, P is
// drained in density order: expired jobs are dropped and delta-fresh jobs
// that now satisfy condition (2) move to Q.  Q is kept only in its admission
// index (DensityWindowIndex), which also walks it in service order; P, which
// also parks infeasible jobs the index cannot hold, is a DensityOrderedQueue
// that every drain rescans in full.  At every decision point the
// highest-density jobs of Q that fit are granted exactly their n_i
// processors; leftover processors idle (S is deliberately not
// work-conserving -- that is one of the ablation toggles below).
//
// Jobs with general (non-step) profit functions are handled by treating the
// profit plateau end x* as the deadline and the peak as the profit: a job
// completed within its plateau earns exactly the peak, so this is a lossless
// reduction whenever S completes what it starts "on time".
//
// The options structure exposes the paper's parameters plus ablation
// switches used by bench/ablation_*: disabling condition (2), replacing the
// paper's density p/(x_i n_i) with classic alternatives, admitting from P
// on deadline expiries, and a work-conserving variant (both flagged as
// extensions; defaults reproduce the paper exactly).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "core/density_index.h"
#include "core/job_queue.h"
#include "core/params.h"
#include "obs/event_log.h"
#include "sim/scheduler.h"

namespace dagsched {

struct DeadlineSchedulerOptions {
  Params params = Params::from_epsilon(0.5);

  /// Condition (2).  Off = admit every delta-good job directly to Q.
  bool enforce_admission = true;

  /// Extension: also drain P when a deadline expiry frees Q capacity.
  bool admit_on_deadline = false;

  /// Extension: hand leftover processors to the densest running job.
  bool work_conserving = false;

  /// Extension ("more practical schedulers", the paper's future work):
  /// when admitting a job from P, recompute (n_i, x_i, v_i) from the
  /// *remaining* window d_i - t instead of the original D_i.  A job that
  /// waited in P gets more processors and a tighter x_i, staying feasible
  /// where the paper's static allocation would no longer be delta-fresh.
  bool recompute_on_admission = false;

  /// Density definition ablation.
  enum class DensityDef {
    kPaper,      // p / (x_i * n_i)   -- profit per processor-step S spends
    kClassic,    // p / W             -- the sequential-scheduling density
    kSquashed,   // p / max(L, W/m)   -- profit per unit of minimal runtime
  };
  DensityDef density_def = DensityDef::kPaper;
};

/// S's queue transitions are decision-log events, one (kind, reason) pair
/// each: admit/cond2-ok (entered Q), defer/not-delta-good and
/// defer/window-full (parked in P), admit/promoted (P -> Q at a
/// completion), drop/stale (left P) and drop/expired-in-q (left Q at its
/// deadline).  Returns the transition's admission-audit name ("admitted",
/// "queued:window-full", ...; `dagsched run --audit`), or nullptr for any
/// other event.
const char* admission_transition_name(const DecisionEvent& event);

class DeadlineScheduler final : public SchedulerBase {
 public:
  explicit DeadlineScheduler(DeadlineSchedulerOptions options = {});

  std::string name() const override;
  void reset() override;
  void on_arrival(const EngineContext& ctx, JobId job) override;
  void on_completion(const EngineContext& ctx, JobId job) override;
  void on_deadline(const EngineContext& ctx, JobId job) override;
  /// Degradation policy under processor churn.  Shrink: condition (2) is
  /// replayed over Q in density order against b*new_m; jobs that no longer
  /// fit are requeued to P (if still admissible later) or dropped, each
  /// recorded as a `readmit-fail` decision event.  Growth: P is drained,
  /// since recovered capacity may admit waiting jobs.
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override;
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: abandons the lowest-density admissible jobs,
  /// waiting set P before started set Q (dropping a P job forfeits no
  /// committed profit).  Emits kDrop events with `overload.shed.waiting` /
  /// `overload.shed.started` slugs.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  /// Checkpoint the per-job allocations and flags.  Q (q_index_) and P are
  /// derived from the in_q/in_p flags (rebuilt on load).
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;
  std::size_t queue_depth() const override {
    return q_index_.size() + p_.size();
  }
  std::size_t memory_bytes() const override;

  // ---- Introspection (tests, benches, invariant observers) ----

  const Params& params() const { return options_.params; }
  /// Jobs ever admitted to Q (the paper's set R) and their total profit.
  std::size_t started_count() const { return started_count_; }
  Profit started_profit() const { return started_profit_; }
  /// Q itself: its admission index (Observation 3 checks).
  const DensityWindowIndex& queue_index() const { return q_index_; }
  bool in_queue_q(JobId job) const;
  bool in_queue_p(JobId job) const;
  /// Whether the job was ever admitted to Q (member of the paper's set R).
  bool was_started(JobId job) const;
  /// Allocation computed at arrival; nullptr if the job never arrived.
  const JobAllocation* allocation_of(JobId job) const;

 private:
  /// The six queue transitions (see admission_transition_name()).
  enum class Transition {
    kAdmitted,
    kQueuedNotGood,
    kQueuedWindowFull,
    kPromoted,
    kDroppedStale,
    kExpiredInQ,
  };

  struct JobInfo {
    JobAllocation alloc;
    Profit peak = 0.0;
    Time abs_plateau_deadline = 0.0;  // release + plateau end
    Time plateau = 0.0;               // relative "deadline" used by S
    bool arrived = false;
    bool started = false;  // ever admitted to Q
    bool dropped = false;
    bool in_q = false;  // currently a member of Q
    bool in_p = false;  // currently a member of P
  };

  Density density_for(const EngineContext& ctx, const JobInfo& info,
                      Work work, Work span) const;
  void admit_to_q(JobId job);
  void enqueue_p(JobId job);
  void remove_from_p(JobId job, Density v);
  /// Leaves Q (no event).
  void remove_from_q(JobId job);
  void drain_p(const EngineContext& ctx);
  bool is_fresh(const JobInfo& info, Time now) const;

  DeadlineSchedulerOptions options_;
  std::vector<JobInfo> info_;
  DensityWindowIndex q_index_;  // started jobs: Q
  DensityOrderedQueue p_;  // waiting jobs, (density desc, id asc)
  std::size_t started_count_ = 0;
  Profit started_profit_ = 0.0;
  /// drain_p's snapshot of P, kept between drains for its capacity.
  std::vector<std::pair<Density, JobId>> drain_scratch_;

  /// Emits the transition to the run's ObsSink as a decision event.
  void record(const EngineContext& ctx, JobId job, Transition transition);
};

}  // namespace dagsched

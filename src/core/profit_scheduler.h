// The Section-5 scheduler for general (non-increasing) profit functions.
//
// On arrival of J_i the scheduler fixes n_i = (W-L)/(x*/(1+2delta) - L)
// from the profit plateau end x*, then searches for the *minimum valid
// relative deadline* D: scanning candidate integer deadlines upward, a slot
// t in [r_i, r_i + D) is assignable if adding J_i (with density
// v = p_i(D)/(x_i n_i)) to the slot's set J(t) keeps every density window
// [v_j, c*v_j) within b*m processors (Lemma 15 -- the same condition (2) as
// Section 3, enforced per slot via DensityWindowIndex).  D is valid when at
// least ceil((1+delta) x_i) slots are assignable.  The job is then pinned to
// those slots: it may run only in its assigned slots I_i, competing there by
// density.
//
// Implementation notes (DESIGN.md section 2):
//  * Slots are the unit intervals of the slot engine; this scheduler requires
//    the slot engine (decide() is called once per slot).
//  * While p_i(D) is flat in D (the plateau, or a piecewise level) the scan
//    extends incrementally; when p_i(D) changes, the density changes and the
//    window is rescanned from scratch for that D.  A scan whose list the
//    next D discards (p_i(D+1) differs, or D is the last candidate) stops
//    as soon as the slots left cannot make up ceil((1+delta) x_i).  The
//    window's slot indexes are resolved from the slot map once per arrival,
//    each with a DensityWindowIndex::AdmitCursor: re-checking a slot at the
//    next, lower density is O(1) until v, c*v or v/c passes one of the
//    slot's k jobs, and O(log k + r) otherwise.  Per arrival the search
//    makes one check per slot scanned, summed over D: up to O(D_i^2) when
//    p_i decays every slot and the job ends unscheduled
//    (docs/PERFORMANCE.md).
//  * Jobs whose profit support is exhausted before any valid D exist are
//    left unscheduled (with an unbounded-support profit function this cannot
//    happen -- the paper's "a valid assignment always exists").
//  * On completion a job's unused future slots are released, which only
//    loosens condition (2) and preserves every lemma.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "core/density_index.h"
#include "core/job_queue.h"
#include "core/params.h"
#include "sim/scheduler.h"

namespace dagsched {

struct ProfitSchedulerOptions {
  Params params = Params::from_epsilon(0.5);

  /// Hard cap on the deadline search (relative, in slots), protecting
  /// against unbounded scans for slowly-decaying profit functions.
  std::uint64_t max_search_slots = 1 << 16;

  /// Extension (the paper's "work-conserving" future work, applied to the
  /// Section-5 algorithm): after serving a slot's assigned jobs, spend any
  /// leftover processors on scheduled-but-unfinished jobs that are *not*
  /// assigned to this slot, in density order.  Off by default (the paper's
  /// algorithm runs jobs only in their assigned slots I_i).
  bool work_conserving = false;
};

class ProfitScheduler final : public SchedulerBase {
 public:
  explicit ProfitScheduler(ProfitSchedulerOptions options = {});

  std::string name() const override;
  void reset() override;
  void on_arrival(const EngineContext& ctx, JobId job) override;
  void on_completion(const EngineContext& ctx, JobId job) override;
  /// Degradation under processor churn.  Shrink: jobs whose fixed n_i
  /// exceeds the surviving machine count are unscheduled, then each future
  /// slot sheds its lowest-density jobs until every Lemma-15 window fits
  /// within the reduced b*m; displaced jobs are permanently unscheduled
  /// (their slot pinning cannot be re-derived mid-flight) and recorded as
  /// `readmit-fail` events.  scheduled_count()/scheduled_profit() keep
  /// counting ever-scheduled jobs.  Growth only loosens future admission.
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override;
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: unschedules the lowest-density scheduled unfinished
  /// job (the back of work_order_), releasing all its assigned slots.
  /// Emits kDrop events with the `overload.shed.window` slug.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  /// Checkpoint the per-job allocations/pinnings and each slot's job list.
  /// Slot window indexes and work_order_ are derived (rebuilt on load).
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;
  Time next_wakeup(const EngineContext& ctx) const override;
  std::size_t queue_depth() const override { return work_order_.size(); }
  std::size_t memory_bytes() const override;

  // ---- Introspection ----

  const Params& params() const { return options_.params; }
  /// Relative deadline D_i chosen at arrival (kTimeInfinity if the job
  /// could not be scheduled).
  Time chosen_deadline(JobId job) const;
  /// Assigned slots I_i (absolute slot indices), sorted.
  const std::vector<std::uint64_t>& assigned_slots(JobId job) const;
  const JobAllocation* allocation_of(JobId job) const;
  /// Density v_i = p_i(D_i)/(x_i n_i) of a scheduled job.
  Density density_of(JobId job) const;
  /// Max window load over a slot's J(t) -- Lemma 15 checks (test hook).
  double slot_window_load(std::uint64_t slot) const;
  /// A slot's J(t) in (density desc, id asc) order, or null if no job was
  /// ever assigned to it (test hook).
  const std::vector<JobId>* slot_jobs(std::uint64_t slot) const;
  std::size_t scheduled_count() const { return scheduled_count_; }
  /// Sum over scheduled jobs of p_i(D_i): the paper's ||J|| for Lemma 17.
  Profit scheduled_profit() const { return scheduled_profit_; }

 private:
  struct SlotInfo {
    DensityWindowIndex index;
    /// Kept sorted (density desc, id asc) at insert, so decide() serves the
    /// slot without re-sorting and capacity sheds pick the victim from the
    /// back.  Densities are fixed at scheduling time, so order never decays.
    std::vector<JobId> jobs;
  };

  struct JobInfo {
    JobAllocation alloc;
    std::vector<std::uint64_t> assigned;
    Time deadline = kTimeInfinity;  // relative, chosen by the search
    Density v = 0.0;
    bool arrived = false;
    bool scheduled = false;
    bool completed = false;
  };

  /// One slot of the window an arrival's deadline search scans.
  struct WindowSlot {
    const DensityWindowIndex* index;  // null: no job assigned to the slot
    DensityWindowIndex::AdmitCursor cursor;
  };

  /// Insert into slot.jobs keeping the (density desc, id asc) order.
  void insert_slot_job(SlotInfo& slot, JobId job);
  /// Remove `job` from each of its assigned slots t >= `from`.
  void release_slots(JobId job, std::uint64_t from);

  ProfitSchedulerOptions options_;
  std::map<std::uint64_t, SlotInfo> slots_;
  /// Scheduled, unfinished jobs in (density desc, id asc) order -- the
  /// work-conserving fill order, maintained incrementally instead of
  /// re-scanning and sorting every job per decision.
  std::set<std::pair<Density, JobId>, DensityDescIdAsc> work_order_;
  std::vector<JobInfo> info_;
  /// on_arrival's search window.  Its index pointers are only read during
  /// that call; the vector is kept between arrivals for its capacity.
  std::vector<WindowSlot> window_;
  double cap_ = 0.0;  // b*m for the current m (set on arrival and churn)
  std::size_t scheduled_count_ = 0;
  Profit scheduled_profit_ = 0.0;
};

}  // namespace dagsched

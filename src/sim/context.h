// EngineContext: everything a scheduler may consult when making a decision.
//
// Semi-non-clairvoyant schedulers use view()/active_jobs() only.  The
// clairvoyant accessors (dag_of / unfolding_of) DS_CHECK that the scheduler
// declared itself clairvoyant, so a semi-non-clairvoyant policy cannot
// accidentally peek at DAG structure.
#pragma once

#include <cstddef>
#include <vector>

#include "job/job.h"
#include "sim/kernel/job_state.h"
#include "sim/views.h"
#include "util/check.h"
#include "util/types.h"

namespace dagsched {

struct ObsSink;

/// Read-only view over the kernel's active set.  The kernel removes jobs
/// by tombstoning their slot (kInvalidJob) instead of an O(|active|) vector
/// erase; this view skips tombstones during iteration, so schedulers still
/// observe exactly the arrival-ordered live jobs.
class ActiveJobs {
 public:
  class iterator {
   public:
    using value_type = JobId;

    iterator(const JobId* cur, const JobId* end) : cur_(cur), end_(end) {
      skip_tombstones();
    }
    JobId operator*() const { return *cur_; }
    iterator& operator++() {
      ++cur_;
      skip_tombstones();
      return *this;
    }
    bool operator==(const iterator& other) const = default;

   private:
    void skip_tombstones() {
      while (cur_ != end_ && *cur_ == kInvalidJob) ++cur_;
    }
    const JobId* cur_;
    const JobId* end_;
  };

  ActiveJobs(const std::vector<JobId>* slots, std::size_t live)
      : slots_(slots), live_(live) {}

  iterator begin() const {
    return {slots_->data(), slots_->data() + slots_->size()};
  }
  iterator end() const {
    const JobId* e = slots_->data() + slots_->size();
    return {e, e};
  }
  /// Number of live (non-tombstone) jobs.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// First live job (earliest still-active arrival); requires !empty().
  JobId front() const { return *begin(); }

 private:
  const std::vector<JobId>* slots_;
  std::size_t live_;
};

class EngineContext {
 public:
  Time now() const { return now_; }
  ProcCount num_procs() const { return m_; }
  double speed() const { return speed_; }
  std::size_t num_jobs() const { return jobs_->size(); }

  /// Observability sink wired by the engine (nullptr when instrumentation
  /// is off -- the default).  Schedulers use it to emit decision events;
  /// see obs/sink.h.
  const ObsSink* obs() const { return obs_; }

  /// Semi-non-clairvoyant window onto job `id` (any job, arrived or not --
  /// but an online scheduler should only touch jobs it has been told about).
  JobView view(JobId id) const {
    DS_CHECK(id < jobs_->size());
    return JobView(&(*jobs_)[id], state_, id);
  }

  /// Jobs that can still earn their profit, in arrival order: arrived, not
  /// completed, and not JobView::deadline_unreachable(now()) (the kernel
  /// retires the rest, see SimKernel::deliver_expiries).
  ActiveJobs active_jobs() const {
    return {&state_->active_slots(), state_->active_live()};
  }

  /// Full DAG structure; clairvoyant schedulers only.
  const Dag& dag_of(JobId id) const {
    DS_CHECK_MSG(clairvoyant_allowed_,
                 "semi-non-clairvoyant scheduler peeked at DAG structure");
    return (*jobs_)[id].dag();
  }

  /// Full unfolding state (ready node identities, per-node progress);
  /// clairvoyant schedulers only.
  const UnfoldingState& unfolding_of(JobId id) const {
    DS_CHECK_MSG(clairvoyant_allowed_,
                 "semi-non-clairvoyant scheduler peeked at unfolding state");
    DS_CHECK(state_->unfolding(id).engaged());
    return state_->unfolding(id);
  }

 private:
  friend class SimKernel;

  Time now_ = 0.0;
  ProcCount m_ = 1;
  double speed_ = 1.0;
  bool clairvoyant_allowed_ = false;
  const ObsSink* obs_ = nullptr;
  const std::vector<Job>* jobs_ = nullptr;
  const JobStateTable* state_ = nullptr;
};

}  // namespace dagsched

// JobView: the semi-non-clairvoyant window onto a job.
//
// Exposes exactly what the paper allows such a scheduler to know: W_i, L_i,
// r_i, the profit function (deadline/profit), the number of currently-ready
// nodes, and progress the scheduler could have tracked itself (executed
// work, completion).  It does NOT expose the DAG structure or node
// identities; those are reachable only through EngineContext's clairvoyant
// accessors, which are gated on SchedulerBase::clairvoyant().
//
// The view reads the kernel's structure-of-arrays JobStateTable (one column
// per field), so constructing it is two pointers + an id and each accessor
// is a single column load.
#pragma once

#include "job/job.h"
#include "sim/kernel/job_state.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/types.h"

namespace dagsched {

class JobView {
 public:
  JobView(const Job* job, const JobStateTable* state, JobId id)
      : job_(job), state_(state), id_(id) {}

  JobId id() const { return id_; }
  Time release() const { return job_->release(); }
  Work work() const { return job_->work(); }
  Work span() const { return job_->span(); }
  const ProfitFn& profit() const { return job_->profit(); }

  bool has_deadline() const { return job_->has_deadline(); }
  Time relative_deadline() const { return job_->relative_deadline(); }
  Time absolute_deadline() const { return job_->absolute_deadline(); }
  Profit peak_profit() const { return job_->peak_profit(); }

  Work min_execution_time(ProcCount m) const {
    return job_->min_execution_time(m);
  }
  Work greedy_execution_time(ProcCount m) const {
    return job_->greedy_execution_time(m);
  }

  bool arrived() const { return state_->arrived(id_); }
  bool completed() const { return state_->completed(id_); }
  Time completion_time() const { return state_->completion_time(id_); }

  /// Number of ready nodes right now (0 before arrival / after completion).
  /// A job that has not run yet has no unfolding: its DAG's sources are
  /// ready.
  std::size_t ready_count() const {
    if (!arrived() || completed()) return 0;
    const UnfoldingState& unfolding = state_->unfolding(id_);
    return unfolding.engaged() ? unfolding.ready_count()
                               : job_->dag().sources().size();
  }

  /// Work left: W_i until the job has run, then its unfolding's remaining
  /// total -- the actual one, which exceeds W_i for a job whose works
  /// fault injection scaled (built at arrival, so from arrival on).
  Work remaining_work() const {
    const UnfoldingState& unfolding = state_->unfolding(id_);
    if (!unfolding.engaged()) return job_->work();
    return unfolding.total_remaining_work();
  }

  /// Whether the job is in the kernel's active set: arrived, not completed,
  /// and still able to earn its profit (see EngineContext::active_jobs()).
  bool live() const { return state_->active(id_); }

 private:
  const Job* job_;
  const JobStateTable* state_;
  JobId id_;
};

}  // namespace dagsched

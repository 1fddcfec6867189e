// Job = DAG program + release time + profit function, plus the JobSet
// container an engine consumes.
#pragma once

#include <memory>
#include <vector>

#include "dag/dag.h"
#include "job/profit.h"
#include "util/types.h"

namespace dagsched {

class Job {
 public:
  /// The DAG is shared so workloads can reuse one program for many jobs.
  Job(std::shared_ptr<const Dag> dag, Time release, ProfitFn profit);

  /// Convenience: deadline job (step profit).
  static Job with_deadline(std::shared_ptr<const Dag> dag, Time release,
                           Time relative_deadline, Profit profit);

  const Dag& dag() const { return *dag_; }
  const std::shared_ptr<const Dag>& dag_ptr() const { return dag_; }

  Time release() const { return release_; }
  const ProfitFn& profit() const { return profit_; }

  /// Total work W_i.
  Work work() const { return dag_->total_work(); }
  /// Span (critical-path length) L_i.
  Work span() const { return dag_->span(); }

  /// True iff this is a deadline (step-profit) job.
  bool has_deadline() const { return profit_.is_step(); }
  /// Relative deadline D_i; requires has_deadline().
  Time relative_deadline() const { return profit_.deadline(); }
  /// Absolute deadline r_i + D_i; requires has_deadline().
  Time absolute_deadline() const { return release_ + profit_.deadline(); }
  /// Peak profit p_i.
  Profit peak_profit() const { return profit_.peak(); }

  /// The paper's execution-time lower bound max{L, W/m}: no 1-speed
  /// schedule can complete the job faster on m processors.
  Work min_execution_time(ProcCount m) const;

  /// The semi-non-clairvoyant lower bound (W - L)/m + L used in the paper's
  /// deadline assumption.
  Work greedy_execution_time(ProcCount m) const;

 private:
  std::shared_ptr<const Dag> dag_;
  Time release_;
  ProfitFn profit_;
};

/// An ordered-by-release collection of jobs (an online instance).
class JobSet {
 public:
  JobSet() = default;
  explicit JobSet(std::vector<Job> jobs);

  /// Appends a job; releases need not arrive sorted, finalize() sorts.
  void add(Job job);

  /// Sorts by release time (stable). Must be called before simulation;
  /// engines assert sortedness.
  void finalize();

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const Job& operator[](std::size_t i) const { return jobs_[i]; }
  const std::vector<Job>& jobs() const { return jobs_; }

  bool sorted_by_release() const;

  /// Sum of peak profits (the trivial upper bound on any schedule).
  Profit total_peak_profit() const;

  /// Sum of W_i / (m * horizon): average offered load.
  double utilization(ProcCount m, Time horizon) const;

  /// Latest release + that job's profit support end; simulations cannot earn
  /// profit after this time.
  Time profit_horizon() const;

  /// Heap bytes of the loaded instance: the job array plus each distinct
  /// DAG (object and packed block) once, however many jobs share it.
  std::size_t input_bytes() const;

 private:
  std::vector<Job> jobs_;
};

}  // namespace dagsched

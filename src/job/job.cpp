#include "job/job.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace dagsched {

Job::Job(std::shared_ptr<const Dag> dag, Time release, ProfitFn profit)
    : dag_(std::move(dag)), release_(release), profit_(std::move(profit)) {
  if (dag_ == nullptr) throw std::invalid_argument("Job: null DAG");
  if (release_ < 0.0) throw std::invalid_argument("Job: negative release");
}

Job Job::with_deadline(std::shared_ptr<const Dag> dag, Time release,
                       Time relative_deadline, Profit profit) {
  return Job(std::move(dag), release, ProfitFn::step(profit, relative_deadline));
}

Work Job::min_execution_time(ProcCount m) const {
  DS_CHECK(m >= 1);
  return std::max(span(), work() / static_cast<double>(m));
}

Work Job::greedy_execution_time(ProcCount m) const {
  DS_CHECK(m >= 1);
  return (work() - span()) / static_cast<double>(m) + span();
}

JobSet::JobSet(std::vector<Job> jobs) : jobs_(std::move(jobs)) { finalize(); }

void JobSet::add(Job job) { jobs_.push_back(std::move(job)); }

void JobSet::finalize() {
  // A parsed or generated instance usually arrives sorted already.
  if (sorted_by_release()) return;
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) {
                     return a.release() < b.release();
                   });
}

bool JobSet::sorted_by_release() const {
  return std::is_sorted(jobs_.begin(), jobs_.end(),
                        [](const Job& a, const Job& b) {
                          return a.release() < b.release();
                        });
}

Profit JobSet::total_peak_profit() const {
  Profit total = 0.0;
  for (const Job& job : jobs_) total += job.peak_profit();
  return total;
}

double JobSet::utilization(ProcCount m, Time horizon) const {
  DS_CHECK(m >= 1 && horizon > 0.0);
  Work total = 0.0;
  for (const Job& job : jobs_) total += job.work();
  return total / (static_cast<double>(m) * horizon);
}

std::size_t JobSet::input_bytes() const {
  std::vector<const Dag*> dags;
  dags.reserve(jobs_.size());
  for (const Job& job : jobs_) dags.push_back(&job.dag());
  std::sort(dags.begin(), dags.end());
  dags.erase(std::unique(dags.begin(), dags.end()), dags.end());
  std::size_t bytes = jobs_.capacity() * sizeof(Job);
  for (const Dag* dag : dags) bytes += dag->memory_bytes();
  return bytes;
}

Time JobSet::profit_horizon() const {
  Time horizon = 0.0;
  for (const Job& job : jobs_) {
    horizon = std::max(horizon, job.release() + job.profit().support_end());
  }
  return horizon;
}

}  // namespace dagsched

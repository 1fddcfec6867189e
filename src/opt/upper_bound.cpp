#include "opt/upper_bound.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/float_cmp.h"

namespace dagsched {

bool clairvoyantly_feasible(const Job& job, ProcCount m, double speed) {
  const Time horizon = job.profit().support_end();
  if (!(horizon < kTimeInfinity)) return true;
  const Work need = job.min_execution_time(m) / speed;
  return approx_le(need, horizon);
}

namespace {

struct BoundJob {
  Time release;
  Time due;  // end of profit support (finite)
  Work work;
  Profit peak;
  /// First window end (index into the sorted dues) that contains `due`.
  std::size_t due_slot = 0;
  /// Work y_i granted by the greedy.
  Work granted = 0.0;
};

// Range-add / range-min segment tree over window ends; every update and
// query covers a suffix.  A node's pending add is kept on the node (no
// push-down), so its min already includes it.
class SuffixMinTree {
 public:
  explicit SuffixMinTree(const std::vector<double>& leaves)
      : size_(leaves.size()), min_(4 * size_), add_(4 * size_, 0.0) {
    build(1, 0, size_, leaves);
  }

  void add_suffix(std::size_t from, double delta) {
    add_at(1, 0, size_, from, delta);
  }
  double min_suffix(std::size_t from) const {
    return min_at(1, 0, size_, from);
  }

 private:
  void build(std::size_t node, std::size_t lo, std::size_t hi,
             const std::vector<double>& leaves) {
    if (hi - lo == 1) {
      min_[node] = leaves[lo];
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    build(2 * node, lo, mid, leaves);
    build(2 * node + 1, mid, hi, leaves);
    min_[node] = std::min(min_[2 * node], min_[2 * node + 1]);
  }

  void add_at(std::size_t node, std::size_t lo, std::size_t hi,
              std::size_t from, double delta) {
    if (hi <= from) return;
    if (lo >= from) {
      min_[node] += delta;
      add_[node] += delta;
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    add_at(2 * node, lo, mid, from, delta);
    add_at(2 * node + 1, mid, hi, from, delta);
    min_[node] = std::min(min_[2 * node], min_[2 * node + 1]) + add_[node];
  }

  double min_at(std::size_t node, std::size_t lo, std::size_t hi,
                std::size_t from) const {
    if (hi <= from) return std::numeric_limits<double>::infinity();
    if (lo >= from) return min_[node];
    const std::size_t mid = lo + (hi - lo) / 2;
    return std::min(min_at(2 * node, lo, mid, from),
                    min_at(2 * node + 1, mid, hi, from)) +
           add_[node];
  }

  std::size_t size_;
  std::vector<double> min_;
  std::vector<double> add_;
};

}  // namespace

OptBound compute_opt_upper_bound(const JobSet& jobs, ProcCount m,
                                 double opt_speed) {
  DS_CHECK(m >= 1 && opt_speed > 0.0);
  OptBound bound;

  // Trivial bound plus collection of finite-support feasible jobs (jobs
  // with unbounded support always contribute their full peak: no finite
  // window contains them, so capacity could not restrict them anyway).
  std::vector<BoundJob> finite;
  Profit unbounded_support_profit = 0.0;
  for (const Job& job : jobs.jobs()) {
    if (!clairvoyantly_feasible(job, m, opt_speed)) continue;
    bound.trivial += job.peak_profit();
    const Time support = job.profit().support_end();
    if (support < kTimeInfinity) {
      finite.push_back({job.release(), job.release() + support, job.work(),
                        job.peak_profit()});
    } else {
      unbounded_support_profit += job.peak_profit();
    }
  }
  bound.lp = bound.trivial;
  if (finite.size() > kMaxBoundJobs) return bound;
  bound.lp_used = true;
  if (finite.empty()) return bound;

  // A binding window starts on an accepted release and ends on a due.  Per
  // window end b the tree holds m*s*b minus the grants of the contained
  // jobs added so far; subtracting m*s*a gives the slack of [a, b].
  std::vector<Time> dues;
  dues.reserve(finite.size());
  for (const BoundJob& job : finite) dues.push_back(job.due);
  std::sort(dues.begin(), dues.end());
  dues.erase(std::unique(dues.begin(), dues.end()), dues.end());
  const double rate = static_cast<double>(m) * opt_speed;
  std::vector<double> capacity_to(dues.size());
  for (std::size_t b = 0; b < dues.size(); ++b) capacity_to[b] = rate * dues[b];
  const SuffixMinTree empty_tree(capacity_to);
  for (BoundJob& job : finite) {
    job.due_slot = static_cast<std::size_t>(
        std::partition_point(dues.begin(), dues.end(),
                             [&](Time b) { return !approx_le(job.due, b); }) -
        dues.begin());
  }

  std::stable_sort(finite.begin(), finite.end(),
                   [](const BoundJob& a, const BoundJob& b) {
                     return a.peak / a.work > b.peak / b.work;
                   });
  // Jobs granted work so far, latest release first.
  std::vector<BoundJob*> accepted;
  Work accepted_work = 0.0;
  Profit value = unbounded_support_profit;
  for (BoundJob& job : finite) {
    const auto slot = accepted.insert(
        std::upper_bound(accepted.begin(), accepted.end(), job.release,
                         [](Time release, const BoundJob* other) {
                           return release > other->release;
                         }),
        &job);
    // Sweep the window start down over the accepted releases (the job's
    // own among them).  A newly contained job due no later than this one
    // lies in every window [start, b] the query covers, so it only shifts
    // the query; a job due later comes off the window ends past its due.
    SuffixMinTree tree = empty_tree;
    Work grant = job.work;
    Work due_before = 0.0;
    double tail_min = capacity_to[job.due_slot];
    std::size_t added = 0;
    for (const BoundJob* start_job : accepted) {
      const Time start = start_job->release;
      if (!approx_ge(job.release, start)) continue;
      // No window starting here or earlier has less slack than this.
      if (rate * (job.due - start) - accepted_work >= grant) break;
      bool reshaped = false;
      for (; added < accepted.size() &&
             approx_ge(accepted[added]->release, start);
           ++added) {
        const BoundJob& other = *accepted[added];
        if (other.due_slot <= job.due_slot) {
          due_before += other.granted;
        } else {
          tree.add_suffix(other.due_slot, -other.granted);
          reshaped = true;
        }
      }
      if (reshaped) tail_min = tree.min_suffix(job.due_slot);
      grant = std::min(grant, tail_min - due_before - rate * start);
    }
    if (grant <= 0.0) {
      accepted.erase(slot);
      continue;
    }
    job.granted = grant;
    accepted_work += grant;
    value += job.peak / job.work * grant;
  }
  bound.lp = std::min(bound.trivial, value);
  return bound;
}

}  // namespace dagsched

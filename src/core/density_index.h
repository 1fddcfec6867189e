// DensityWindowIndex: the data structure behind admission condition (2).
//
// The paper admits a job J_i into queue Q only if for every job J_j in
// Q ∪ {J_i}, the total processors required by members with density in
// [v_j, c*v_j) stay within b*m:  N(Q ∪ {J_i}, v_j, c*v_j) <= b*m.
//
// The index keeps members sorted by density with prefix sums of processor
// requirements.  admits() exploits that inserting (v, n) only affects
// windows containing v: window starts v_j in (v/c, v], plus the new job's
// own window [v, c*v).  Given the inductive invariant that all windows were
// within cap before the insertion, checking those suffices.  Each member's
// own window load is cached per c (rebuilt lazily after a mutation in one
// O(k) two-pointer sweep), so an admits() call costs O(log k + r) for the r
// members in (v/c, v] rather than O(r log k).
//
// Used both for queue Q of the Section-3 scheduler and for each per-slot
// set J(t) of the Section-5 scheduler (Lemma 15 is the same condition).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace dagsched {

class DensityWindowIndex {
 public:
  void clear();

  /// Inserts member `job` with density `v` (> 0) and requirement `n` (>= 1).
  /// A job may appear at most once.
  void insert(JobId job, Density v, ProcCount n);

  /// Removes `job` if present; returns whether it was present.
  bool erase(JobId job);

  bool contains(JobId job) const;
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sum of requirements of members with density in [lo, hi).
  double window_load(Density lo, Density hi) const;

  /// admits()'s last answer for one index.  The answer depends only on
  /// where four bounds fall among the members: v and c*v (the new job's own
  /// window) and v/c and v (the window starts that gain it).  A query with
  /// the same (n, c, cap) on the unchanged index at a density no higher than
  /// the last moves no bound, and so keeps the answer, until a bound reaches
  /// the member just below it; admits() checks that in O(1) and otherwise
  /// searches afresh.  A search that lowers v step by step re-checks a slot
  /// cheaply this way.
  struct AdmitCursor {
    std::uint64_t version = 0;  // the index's version_ at the last search
    ProcCount n = 0;
    double c = 0.0;
    double cap = 0.0;
    Density v = 0.0;
    // Density of the member just below each bound (-inf if none): the last
    // one < v, < c*v, <= v/c and <= v.
    Density below_v = 0.0;
    Density below_top = 0.0;
    Density below_bottom = 0.0;
    Density at_most_v = 0.0;
    bool admits = false;
  };

  /// Would inserting (v, n) keep every window [v_j, c*v_j) over
  /// members ∪ {new} within `cap`?  (Condition (2) with cap = b*m.)
  bool admits(Density v, ProcCount n, double c, double cap) const;
  /// The same answer, reusing the one `cursor` holds where it still stands.
  bool admits(Density v, ProcCount n, double c, double cap,
              AdmitCursor& cursor) const;

  /// Max over members J_j of window_load(v_j, c*v_j): the quantity
  /// Observation 3 / Lemma 15 bound by b*m.  O(k), from the window cache.
  double max_window_load(double c) const;

  /// Total requirement of members with density >= v (N(Q, v, infinity)).
  double load_at_least(Density v) const;

  /// Allocated bytes of the entry array, prefix-sum and window caches
  /// (telemetry gauge; capacities, not live counts).
  std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           (prefix_.capacity() + win_.capacity()) * sizeof(double);
  }

 private:
  struct Entry {
    Density v;
    double n;
    JobId job;
  };

  void rebuild_prefix() const;
  /// Brings win_ up to date for `c` (no-op when it already is).
  void ensure_windows(double c) const;
  /// First member with density >= v, and with density > v.
  std::size_t lower_index(Density v) const;
  std::size_t upper_index(Density v) const;

  std::vector<Entry> entries_;  // sorted by (v, job)
  std::uint64_t version_ = 1;   // bumped by every mutation
  // The caches below are current while their version matches version_.
  mutable std::vector<double> prefix_;  // prefix_[i] = sum of n over [0, i)
  mutable std::uint64_t prefix_version_ = 0;
  mutable std::vector<double> win_;  // win_[j] = window_load(v_j, win_c_*v_j)
  mutable double win_c_ = 0.0;
  mutable std::uint64_t win_version_ = 0;
};

}  // namespace dagsched

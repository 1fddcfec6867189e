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
// An AdmitWalk follows one (n, c, cap) query down a falling density on the
// unchanged index, as the Section-5 deadline search does.  It keeps the four
// positions admits() searches for, and lowering it steps each position down
// with the same predicates, so its answer is admits()'s bit for bit and the
// position steps of one walk cost O(k) in all.  Each step also returns a
// break density: the answer holds at every lower density above it, so a
// caller lowers a walk only once its density reaches the break.  A walk
// left behind stays a valid starting point, since every position only
// falls.  Finding the break reads the O(r) members near the windows' ends.
//
// The index is the one store of queue Q of the Section-3 scheduler and of
// each per-slot set J(t) of the Section-5 scheduler (Lemma 15 is the same
// condition): for_each_served() walks the members in the order both serve
// them, density descending and job id ascending, and served_last() names the
// member either sheds first.
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

  /// Calls `f(job)` for each member in service order -- density descending,
  /// job id ascending among equal densities -- until `f` returns false.
  template <typename F>
  void for_each_served(F&& f) const {
    std::size_t end = entries_.size();
    while (end > 0) {
      // entries_ ascend by (v, job): serve each run of equal densities,
      // from the densest run down, front to back.
      std::size_t begin = end - 1;
      while (begin > 0 && entries_[begin - 1].v == entries_[end - 1].v) {
        --begin;
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (!f(entries_[i].job)) return;
      }
      end = begin;
    }
  }

  /// The member served last: the highest id among the lowest density.
  /// The index must not be empty.
  JobId served_last() const;

  /// Sum of requirements of members with density in [lo, hi).
  double window_load(Density lo, Density hi) const;

  /// Would inserting (v, n) keep every window [v_j, c*v_j) over
  /// members ∪ {new} within `cap`?  (Condition (2) with cap = b*m.)
  bool admits(Density v, ProcCount n, double c, double cap) const;

  /// admits() for one (n, c, cap) at a density that only falls.  The answer
  /// is a function of the members below four bounds: the count < v and
  /// < c*v (the new job's own window), and <= v/c and <= v (the window
  /// starts that gain it).
  struct AdmitWalk {
    std::uint32_t own_lo = 0;  // members < v
    std::uint32_t own_hi = 0;  // members < c*v
    std::uint32_t from = 0;    // members <= v/c
    std::uint32_t to = 0;      // members <= v
    /// No member in [clear, to) has a window load over cap - n.  Below
    /// `from` only once the walk admits and its break has been sought.
    std::uint32_t clear = 0;
    bool admits = false;
  };

  /// Starts `walk` at density v; walk.admits is then admits(v, n, c, cap).
  /// Returns the break density (-inf if the answer holds at every lower
  /// density): the answer holds while v falls and stays above it.  As v
  /// falls, members only enter the windows from below (the own window's
  /// bottom v, and the v/c bound) and leave at the top (c*v, and v).
  /// Entering members can only refuse the job and leaving ones only admit
  /// it, so an admitting walk breaks where an over-cap window's start could
  /// first enter (v/c, v], and a refusing one where enough members could
  /// first have left to lift the refusal.  The c*v and v/c bounds carry a
  /// small relative margin for rounding.
  Density start_walk(AdmitWalk& walk, Density v, ProcCount n, double c,
                     double cap) const;
  /// Moves `walk` down to v, no higher than the density it was last at, on
  /// the index it was started on, unchanged since; walk.admits is then
  /// admits(v, n, c, cap).  Returns the new break density.  Each position
  /// and `clear` only fall, so the steps of one walk cost O(k) in all.
  Density lower_walk(AdmitWalk& walk, Density v, ProcCount n, double c,
                     double cap) const;

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
  /// Sets walk's positions for density v: counted for a few members,
  /// binary-searched for more.
  void place_walk(AdmitWalk& walk, Density v, double c) const;
  /// Steps walk's positions down to density v.
  void lower_positions(AdmitWalk& walk, Density v, double c) const;
  /// Sets walk.admits from its positions, moving `clear` down as needed.
  void settle_walk(AdmitWalk& walk, ProcCount n, double c, double cap) const;
  /// The break density of a settled walk (see start_walk()).
  Density walk_break(AdmitWalk& walk, ProcCount n, double c,
                     double cap) const;
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

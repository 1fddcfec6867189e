// JobStateTable: structure-of-arrays per-job runtime state for SimKernel.
//
// The seed kept an array-of-structs `std::vector<JobRuntime>` (an optional
// unfolding + five scalars, ~72 bytes under 30% utilization per access) plus
// half a dozen loose side arrays in the kernel.  At 10^5..10^6 jobs the hot
// loops touch one or two fields per job, so the table stores each field as
// its own contiguous column:
//
//     flags            u8    arrived | completed | deadline-notified
//     completion_time  f64   absolute completion time (inf = never)
//     exec             JobExec: unfolding descriptor (block data in arena)
//                      + executed work + first start, one entry per job
//     active slots/pos u32   arrival-ordered active set with tombstones
//     stamps           u32   interval/alloc epoch stamps (flat node array)
//
// `executed` and `first_start` deliberately share the unfolding's column
// entry instead of getting columns of their own: advance_node() writes all
// three on every node step, so splitting them costs two extra cache misses
// per executed node (measured as a double-digit-percent slot-engine
// regression) while no hot loop reads them without the unfolding.
//
// All unfolding per-node blocks are carved from one BumpArena owned here:
// a job arrival after warmup costs zero heap allocations, and the arena's
// high-water mark is the telemetry `unfolding_bytes` gauge.
//
// The active set keeps the seed's tombstone scheme: completions and deadline
// retirements tombstone their slot (kInvalidJob) instead of an O(|active|)
// erase, and the slot vector is compacted when tombstones dominate -- see
// kCompactMinSlots / kCompactSlack below (the ActiveJobs view never iterates
// more than kCompactSlack x live slots once past the minimum; tested in
// tests/test_sim's JobStateTable cases).
#pragma once

#include <cstdint>
#include <vector>

#include "dag/unfolding.h"
#include "job/job.h"
#include "util/arena.h"
#include "util/types.h"

namespace dagsched {

class JobStateTable {
 public:
  /// One exec-column entry: the per-job state advance_node() touches
  /// together on every node step (see the file header).
  struct JobExec {
    UnfoldingState unfolding;
    Work executed = 0.0;
    Time first_start = kTimeInfinity;
  };

  // Flag bits (also the checkpoint wire encoding of the flags byte).
  static constexpr std::uint8_t kArrived = 1u;
  static constexpr std::uint8_t kCompleted = 2u;
  static constexpr std::uint8_t kDeadlineNotified = 4u;

  /// active_pos value for jobs not currently in the active set.
  static constexpr std::uint32_t kNoActiveSlot = ~std::uint32_t{0};

  /// Compaction trigger: the slot vector is rewritten without tombstones
  /// once it exceeds kCompactMinSlots slots AND live entries fall below
  /// slots / kCompactSlack.  Between compactions the ActiveJobs skipping
  /// view therefore never iterates more than kCompactSlack x live slots
  /// (or kCompactMinSlots, below the minimum); the rewrite is amortized
  /// O(1) per removal.
  static constexpr std::size_t kCompactMinSlots = 64;
  static constexpr std::size_t kCompactSlack = 2;

  /// Resets every column for a fresh run over `jobs` (finalized JobSet).
  /// Capacities and the arena's coalesced chunk are retained, so resetting
  /// for a same-shaped run performs no heap allocation after the first.
  void reset(const JobSet& jobs);

  std::size_t size() const { return flags_.size(); }

  // -- Lifecycle flags ------------------------------------------------------

  bool arrived(JobId id) const { return (flags_[id] & kArrived) != 0; }
  bool completed(JobId id) const { return (flags_[id] & kCompleted) != 0; }
  bool deadline_notified(JobId id) const {
    return (flags_[id] & kDeadlineNotified) != 0;
  }
  void set_arrived(JobId id) { flags_[id] |= kArrived; }
  void set_completed(JobId id) { flags_[id] |= kCompleted; }
  void set_deadline_notified(JobId id) { flags_[id] |= kDeadlineNotified; }
  std::uint8_t flags(JobId id) const { return flags_[id]; }
  void set_flags(JobId id, std::uint8_t flags) { flags_[id] = flags; }

  // -- Scalar columns (mutable refs: the stepping loops' innermost op) ------

  Time& completion_time(JobId id) { return completion_time_[id]; }
  Time completion_time(JobId id) const { return completion_time_[id]; }
  Time& first_start(JobId id) { return exec_[id].first_start; }
  Time first_start(JobId id) const { return exec_[id].first_start; }
  Work& executed(JobId id) { return exec_[id].executed; }
  Work executed(JobId id) const { return exec_[id].executed; }

  // -- Unfolding column -----------------------------------------------------

  UnfoldingState& unfolding(JobId id) { return exec_[id].unfolding; }
  const UnfoldingState& unfolding(JobId id) const {
    return exec_[id].unfolding;
  }
  void emplace_unfolding(JobId id, const Dag& dag) {
    exec_[id].unfolding = UnfoldingState(dag, arena_);
  }
  void emplace_unfolding(JobId id, const Dag& dag,
                         const std::vector<Work>& works) {
    exec_[id].unfolding = UnfoldingState(dag, works, arena_);
  }
  /// Arena backing every unfolding block; high_water() is the telemetry
  /// unfolding_bytes gauge.
  const BumpArena& unfolding_arena() const { return arena_; }

  // -- Active set -----------------------------------------------------------

  const std::vector<JobId>& active_slots() const { return active_; }
  std::size_t active_live() const { return active_live_; }

  void activate(JobId id) {
    active_pos_[id] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(id);
    ++active_live_;
  }
  /// Tombstones `id`'s slot (no-op when absent).  Callers batch removals
  /// and call maybe_compact() once per batch.
  void deactivate(JobId id) {
    const std::uint32_t pos = active_pos_[id];
    if (pos == kNoActiveSlot) return;
    active_[pos] = kInvalidJob;
    active_pos_[id] = kNoActiveSlot;
    --active_live_;
  }
  void maybe_compact() {
    if (active_.size() > kCompactMinSlots &&
        active_live_ * kCompactSlack < active_.size()) {
      compact_active();
    }
  }

  // -- Epoch stamps (preemption accounting, duplicate-alloc detection) ------

  std::uint32_t& node_stamp(JobId job, NodeId node) {
    return node_stamp_[node_stamp_base_[job] + node];
  }
  std::uint32_t& job_stamp(JobId id) { return job_stamp_[id]; }
  std::uint32_t& alloc_stamp(JobId id) { return alloc_stamp_[id]; }

  /// Allocated (capacity) bytes of every column except the unfolding arena
  /// (reported separately as unfolding_arena().high_water()).
  std::size_t memory_bytes() const;

 private:
  void compact_active();

  std::vector<std::uint8_t> flags_;
  std::vector<Time> completion_time_;
  std::vector<JobExec> exec_;
  BumpArena arena_;

  // Active set: arrival-ordered slots with tombstones (kInvalidJob) left by
  // completions and deadline retirements; an eager O(|active|) erase per
  // removal was quadratic at 10^5 jobs.  active_pos_ maps job -> slot;
  // ctx_.active_jobs() skips tombstones (see ActiveJobs).
  std::vector<JobId> active_;
  std::vector<std::uint32_t> active_pos_;
  std::size_t active_live_ = 0;

  // Flat epoch-stamp arrays: node_stamp_ spans all jobs' nodes, offset by
  // node_stamp_base_.
  std::vector<std::uint32_t> node_stamp_base_;
  std::vector<std::uint32_t> node_stamp_;
  std::vector<std::uint32_t> job_stamp_;
  std::vector<std::uint32_t> alloc_stamp_;
};

}  // namespace dagsched

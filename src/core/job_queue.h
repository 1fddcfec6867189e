// DensityOrderedQueue: the Section-3 scheduler's waiting set P.
//
// P is drained in (density descending, job id ascending) order, and it also
// parks infeasible jobs (n = 0, density 0) that DensityWindowIndex, the
// store of the started set Q, does not accept.  This container keeps that
// total order in a balanced tree: O(log n) insert/erase and in-order
// iteration.
//
// The key is the pair (density, id); the density under which a job was
// inserted must be passed to erase().  Membership is NOT tracked here --
// callers keep an O(1) membership flag on their per-job state (JobInfo) so
// the structure never scans.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <utility>

#include "util/arena.h"
#include "util/types.h"

namespace dagsched {

/// Strict weak order: density descending, ties broken by ascending job id
/// (the deterministic service order the paper's scheduler uses everywhere).
struct DensityDescIdAsc {
  bool operator()(const std::pair<Density, JobId>& a,
                  const std::pair<Density, JobId>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

class DensityOrderedQueue {
 public:
  using Key = std::pair<Density, JobId>;

 private:
  using Set = std::set<Key, DensityDescIdAsc, PoolAllocator<Key>>;

 public:
  using const_iterator = Set::const_iterator;

  DensityOrderedQueue()
      : pool_(std::make_unique<NodePool>()),
        set_(DensityDescIdAsc{}, PoolAllocator<Key>(pool_.get())) {}

  // The set's tree nodes live in pool_; a copy would alias the source's
  // pool, and move-assignment would destroy the target's pool while its
  // set still holds nodes from it.  Schedulers construct queues in place.
  DensityOrderedQueue(const DensityOrderedQueue&) = delete;
  DensityOrderedQueue& operator=(const DensityOrderedQueue&) = delete;
  DensityOrderedQueue(DensityOrderedQueue&&) = delete;
  DensityOrderedQueue& operator=(DensityOrderedQueue&&) = delete;

  void clear() { set_.clear(); }
  bool empty() const { return set_.empty(); }
  std::size_t size() const { return set_.size(); }

  /// O(log n).  Returns false if (v, job) was already present.
  bool insert(JobId job, Density v) { return set_.emplace(v, job).second; }

  /// O(log n).  `v` must be the density the job was inserted under.
  bool erase(JobId job, Density v) { return set_.erase(Key{v, job}) > 0; }

  /// Iteration in (density desc, id asc) order.
  const_iterator begin() const { return set_.begin(); }
  const_iterator end() const { return set_.end(); }

  /// Allocated bytes: the node pool's chunk capacity (tree nodes are pooled
  /// and recycled, so this is the real footprint, not size × node-size).
  std::size_t memory_bytes() const { return pool_->capacity_bytes(); }

 private:
  std::unique_ptr<NodePool> pool_;  // must precede (and outlive) set_
  Set set_;
};

}  // namespace dagsched

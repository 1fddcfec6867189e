// Work-conserving list schedulers: the online baselines the paper's S is
// compared against (none existed for this model in OSS; built per the
// reproduction plan).
//
// At every decision point, active jobs are ordered by the policy key and
// each job in turn is granted up to its ready-node count while processors
// remain -- i.e. the classic greedy "global" scheduling of DAG jobs:
//
//   kEdf     -- earliest absolute deadline first
//   kLlf     -- least laxity first, laxity = (d - now) - remaining/(m)
//               (optimistic parallelism estimate; with clairvoyant_laxity
//               the true remaining span bound is used instead)
//   kHdf     -- highest classic density p/W first
//   kFcfs    -- first-come first-served
//
// All flavors drop expired deadline jobs (running them cannot earn profit).
// Unlike the paper's S they are work-conserving and admission-free, which
// is exactly what the E7 baseline shoot-out quantifies.
//
// The static-key policies (kEdf, kHdf, kFcfs -- keys fixed at arrival) keep
// an incremental key-ordered index maintained by arrival/completion
// callbacks, so decide() is O(grants + newly-expired) instead of the seed's
// gather-and-sort over every active job (quadratic once expired jobs pile
// up in the active set).
//
// kLlf's key is time-dependent (laxity shrinks as now() advances), so no
// cached *order* can be byte-parity-safe: re-deriving laxity from any
// stored form re-rounds the float arithmetic and can create or destroy
// near-ties the original computation did not.  What CAN be cached is
// *membership*: decide keeps an incremental candidate set (arrived, not
// completed / shed / observed-expired) and sorts exact original-arithmetic
// keys over just those k jobs -- O(k log k) per decision with k the live
// candidates, instead of a scan of the whole active set.  Expired jobs
// leave the set permanently (deadline_unreachable is monotone in time),
// mirroring the indexed path's permanent removal.  The
// BM_EventEngineLlfScale bench point pins this off the 100k hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/arena.h"

namespace dagsched {

enum class ListPolicy { kEdf, kLlf, kHdf, kFcfs };

const char* list_policy_name(ListPolicy policy);

struct ListSchedulerOptions {
  ListPolicy policy = ListPolicy::kEdf;
  /// Use the exact remaining critical path for laxity (requires DAG access,
  /// making the scheduler clairvoyant). kLlf only.
  bool clairvoyant_laxity = false;
};

class ListScheduler final : public SchedulerBase {
 public:
  explicit ListScheduler(ListSchedulerOptions options = {});

  // order_index_'s tree nodes live in order_pool_; copying would alias the
  // pool and move-assignment would destroy it under the moved set.
  // Schedulers are constructed in place everywhere.
  ListScheduler(const ListScheduler&) = delete;
  ListScheduler& operator=(const ListScheduler&) = delete;
  ListScheduler(ListScheduler&&) = delete;
  ListScheduler& operator=(ListScheduler&&) = delete;

  std::string name() const override;
  bool clairvoyant() const override { return options_.clairvoyant_laxity; }
  void reset() override;
  void on_arrival(const EngineContext& ctx, JobId job) override;
  void on_completion(const EngineContext& ctx, JobId job) override;
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: removes the lowest-priority job (the back of the
  /// key order).  Indexed policies drop it from the index for good; kLlf
  /// records the victim in a shed set decide_sorted() skips.  Emits kDrop
  /// events with the `overload.shed.lowest-priority` slug.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  /// Checkpoint the key-ordered index (its contents are history-dependent:
  /// expired jobs are removed for good) and the kLlf shed set.
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;
  std::size_t queue_depth() const override {
    return indexed() ? order_index_.size() : llf_candidates_.size();
  }
  std::size_t memory_bytes() const override {
    // Indexed policies: the node pool's chunk capacity (tree nodes are
    // pooled and recycled).  kLlf: the flat candidate set + position map.
    return order_pool_->capacity_bytes() +
           llf_candidates_.capacity() * sizeof(JobId) +
           llf_pos_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  double key(const EngineContext& ctx, JobId job) const;
  bool indexed() const { return options_.policy != ListPolicy::kLlf; }
  void decide_indexed(const EngineContext& ctx, Assignment& out);
  void decide_sorted(const EngineContext& ctx, Assignment& out);
  void llf_add(JobId job);
  void llf_remove(JobId job);

  using OrderKey = std::pair<double, JobId>;
  using OrderIndex =
      std::set<OrderKey, std::less<OrderKey>, PoolAllocator<OrderKey>>;

  ListSchedulerOptions options_;
  /// (key, id) ascending -- the same order decide_sorted's sort produces.
  /// Static-key policies only; jobs dropped as expired are removed for
  /// good (deadline_unreachable is monotone in time, so a skipped job can
  /// never become runnable again).  Tree nodes are recycled through
  /// order_pool_, so steady-state arrival/completion churn is heap-free.
  std::unique_ptr<NodePool> order_pool_;  // must precede order_index_
  OrderIndex order_index_;
  /// kLlf only: the candidate set decide_sorted ranks (see header comment).
  /// Unordered; swap-removal keeps membership updates O(1) and the
  /// per-decision sort restores the unique (key, id) total order anyway.
  std::vector<JobId> llf_candidates_;
  std::vector<std::uint32_t> llf_pos_;  // job id -> slot, kNoSlot if absent
  /// kLlf only: jobs abandoned by shed_load, persisted for checkpointing
  /// (the candidate set forgets victims immediately).  Empty unless the
  /// overload budget fired, so the hot path is unchanged by default.
  std::set<JobId> overload_shed_;
};

}  // namespace dagsched

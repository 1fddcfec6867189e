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
// All flavors skip jobs that can no longer earn profit.  Unlike the paper's
// S they are work-conserving and admission-free, which is exactly what the
// E7 baseline shoot-out quantifies.
//
// The static-key policies (kEdf, kHdf, kFcfs -- keys fixed at arrival) keep
// an incremental key-ordered index maintained by arrival/completion
// callbacks, so decide() is O(grants + newly-expired); the index drops a
// dead job the first time decide() reaches it.  kLlf's key shrinks as now()
// advances, and re-deriving laxity from any stored form re-rounds the float
// arithmetic (creating or destroying near-ties), so kLlf keeps no queue:
// each decision sorts exact keys over ctx.active_jobs(), which holds only
// live jobs, minus its shed set (BM_EventEngineLlfScale).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>

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
  /// Checkpoints the key-ordered index (its contents are history-dependent:
  /// expired jobs are removed for good) or, for kLlf, the shed set.
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;
  /// kLlf keeps no queue (it ranks ctx.active_jobs() afresh), so 0.
  std::size_t queue_depth() const override { return order_index_.size(); }
  /// The index's node pool (tree nodes are pooled and recycled).
  std::size_t memory_bytes() const override {
    return order_pool_->capacity_bytes();
  }

 private:
  double key(const EngineContext& ctx, JobId job) const;
  bool indexed() const { return options_.policy != ListPolicy::kLlf; }
  void decide_indexed(const EngineContext& ctx, Assignment& out);
  void decide_sorted(const EngineContext& ctx, Assignment& out);

  using OrderKey = std::pair<double, JobId>;
  using OrderIndex =
      std::set<OrderKey, std::less<OrderKey>, PoolAllocator<OrderKey>>;

  ListSchedulerOptions options_;
  /// (key, id) ascending -- the same order decide_sorted's sort produces.
  /// Static-key policies only; jobs the kernel retired are removed for
  /// good (a retired job never re-enters the active set).  Tree nodes are recycled through
  /// order_pool_, so steady-state arrival/completion churn is heap-free.
  std::unique_ptr<NodePool> order_pool_;  // must precede order_index_
  OrderIndex order_index_;
  /// kLlf only: jobs abandoned by shed_load, skipped by decide_sorted and
  /// persisted for checkpointing.  Empty unless the overload budget fired.
  std::set<JobId> overload_shed_;
};

}  // namespace dagsched

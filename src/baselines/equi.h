// EQUI: fully non-clairvoyant equi-partitioning.
//
// The paper's conclusion asks whether *fully* non-clairvoyant algorithms
// (no knowledge of W_i or L_i at all -- not even the semi-non-clairvoyant
// hints) can be competitive.  EQUI is the canonical such policy: split the
// m processors evenly among active jobs (optionally weighting the split by
// profit, the one value a non-clairvoyant scheduler may still know).  This
// baseline probes the open question empirically: the gap between EQUI and
// S quantifies what knowing (W, L) buys.
//
// EQUI only reads profit and ready counts from JobView -- never W, L or
// remaining work -- and splits over ctx.active_jobs(), the live jobs.
#pragma once

#include <set>
#include <string>

#include "sim/scheduler.h"

namespace dagsched {

struct EquiOptions {
  /// Weight each job's share by its peak profit instead of equally.
  bool weight_by_profit = false;
};

class EquiScheduler final : public SchedulerBase {
 public:
  explicit EquiScheduler(EquiOptions options = {});

  std::string name() const override {
    return options_.weight_by_profit ? "equi(profit-weighted)" : "equi";
  }
  void reset() override { overload_shed_.clear(); }
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: EQUI has no committed allocations to revoke, so it
  /// excludes the lowest-weight runnable job (latest arrival on ties) from
  /// future splits.  Emits kDrop events with the `overload.shed.share` slug.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;

 private:
  EquiOptions options_;
  /// Jobs excluded from the split by shed_load (empty unless the overload
  /// budget fired, so the default path is untouched).
  std::set<JobId> overload_shed_;
};

}  // namespace dagsched

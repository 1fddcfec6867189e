// Federated scheduling baseline (Li et al., ECRTS'14; Baruah, IPDPS'15 --
// the real-time-systems approach the paper's related work cites).
//
// Each admitted job receives a dedicated cluster of
//     n_i = ceil((W_i - L_i) / (D_i - L_i))
// processors, the minimum count whose Graham bound (W-L)/n + L fits the
// deadline.  A job is admitted iff its cluster fits into the processors not
// already dedicated to active jobs; otherwise it is rejected permanently
// (the classic federated admission test -- no waiting queue, no densities).
// Clusters are released on completion or deadline expiry.
//
// Differences from the paper's S that the benchmarks probe: admission is
// capacity-only (no density windows, so one fat cheap job can crowd out
// many profitable ones), there is no second chance for rejected jobs, and
// the full machine (not b*m) may be committed.
#pragma once

#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace dagsched {

class FederatedScheduler final : public SchedulerBase {
 public:
  std::string name() const override { return "federated"; }
  void reset() override;
  void on_arrival(const EngineContext& ctx, JobId job) override;
  void on_completion(const EngineContext& ctx, JobId job) override;
  void on_deadline(const EngineContext& ctx, JobId job) override;
  /// Degradation under processor churn: clusters are dedicated capacity, so
  /// a shrink evicts the most recently admitted jobs (LIFO -- preserving the
  /// oldest commitments, the federated-admission analogue of not revoking
  /// already-guaranteed jobs) until the committed total fits.  Evicted jobs
  /// are rejected permanently, as `readmit-fail`/`capacity-lost` events.
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override;
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: evicts the most recently admitted cluster (LIFO,
  /// like the capacity-shrink path -- oldest commitments survive).  Emits
  /// kDrop events with the `overload.shed.cluster` slug.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;

  std::size_t admitted_count() const { return admitted_count_; }

 private:
  struct JobInfo {
    ProcCount cluster = 0;
    bool admitted = false;
  };

  std::vector<JobInfo> info_;
  std::vector<JobId> running_;  // admitted, incomplete
  ProcCount committed_ = 0;
  std::size_t admitted_count_ = 0;
};

}  // namespace dagsched

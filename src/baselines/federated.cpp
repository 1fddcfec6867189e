#include "baselines/federated.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/sink.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

void FederatedScheduler::reset() {
  info_.clear();
  running_.clear();
  committed_ = 0;
  admitted_count_ = 0;
}

void FederatedScheduler::on_arrival(const EngineContext& ctx, JobId job) {
  if (info_.size() < ctx.num_jobs()) info_.resize(ctx.num_jobs());
  JobInfo& info = info_[job];

  const JobView view = ctx.view(job);
  const Time deadline = view.has_deadline() ? view.relative_deadline()
                                            : view.profit().plateau_end();
  const Work work_eff = view.work() / ctx.speed();
  const Work span_eff = view.span() / ctx.speed();
  if (!(deadline > span_eff)) {  // infeasible on any cluster
    if (ctx.obs() != nullptr) {
      ctx.obs()->event(ctx.now(), job, ObsEventKind::kDrop, "infeasible");
    }
    return;
  }

  ProcCount cluster;
  const Work parallel_work = std::max(work_eff - span_eff, 0.0);
  if (approx_zero(parallel_work)) {
    cluster = 1;
  } else {
    cluster = static_cast<ProcCount>(
        std::ceil(parallel_work / (deadline - span_eff)));
    cluster = std::max<ProcCount>(cluster, 1);
  }

  if (committed_ + cluster > ctx.num_procs()) {  // reject permanently
    if (ctx.obs() != nullptr) {
      ctx.obs()->event(ctx.now(), job, ObsEventKind::kDrop, "cluster-overflow",
                       {{"cluster", static_cast<double>(cluster)},
                        {"committed", static_cast<double>(committed_)}});
    }
    return;
  }
  info.cluster = cluster;
  info.admitted = true;
  committed_ += cluster;
  ++admitted_count_;
  running_.push_back(job);
  if (ctx.obs() != nullptr) {
    ctx.obs()->event(ctx.now(), job, ObsEventKind::kAdmit, "cluster-fit",
                     {{"cluster", static_cast<double>(cluster)}});
  }
}

void FederatedScheduler::on_completion(const EngineContext& ctx, JobId job) {
  (void)ctx;
  JobInfo& info = info_[job];
  if (!info.admitted) return;
  info.admitted = false;
  DS_CHECK(committed_ >= info.cluster);
  committed_ -= info.cluster;
  std::erase(running_, job);
}

void FederatedScheduler::on_deadline(const EngineContext& ctx, JobId job) {
  // Same release path: the cluster is wasted past the deadline.
  on_completion(ctx, job);
}

void FederatedScheduler::on_capacity_change(const EngineContext& ctx,
                                            ProcCount old_m, ProcCount new_m) {
  (void)old_m;
  while (committed_ > new_m && !running_.empty()) {
    const JobId job = running_.back();
    JobInfo& info = info_[job];
    running_.pop_back();
    DS_CHECK(committed_ >= info.cluster);
    committed_ -= info.cluster;
    info.admitted = false;
    if (ctx.obs() != nullptr) {
      ctx.obs()->event(ctx.now(), job, ObsEventKind::kReadmitFail,
                       "capacity-lost",
                       {{"cluster", static_cast<double>(info.cluster)},
                        {"m", static_cast<double>(new_m)}});
    }
  }
}

std::size_t FederatedScheduler::shed_load(const EngineContext& ctx,
                                          std::size_t max_jobs) {
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  while (shed < max_jobs && !running_.empty()) {
    const JobId job = running_.back();
    JobInfo& info = info_[job];
    running_.pop_back();
    DS_CHECK(committed_ >= info.cluster);
    committed_ -= info.cluster;
    info.admitted = false;
    if (obs != nullptr) {
      obs->event(ctx.now(), job, ObsEventKind::kDrop, "overload.shed.cluster",
                 {{"cluster", static_cast<double>(info.cluster)}});
    }
    ++shed;
  }
  return shed;
}

void FederatedScheduler::save_state(CheckpointWriter& out) const {
  out.u64(info_.size());
  for (const JobInfo& info : info_) out.u32(info.cluster);
  // running_ order is the admission (LIFO-eviction) order; saved verbatim.
  // The admitted flags are membership in it and committed_ is the sum of
  // its clusters, so both are derived on load.
  out.u64(running_.size());
  for (const JobId job : running_) out.u32(job);
  out.u64(admitted_count_);
}

void FederatedScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t rows = in.job_rows(4);
  info_.resize(in.job_bound());
  for (std::size_t i = 0; i < rows; ++i) info_[i].cluster = in.u32();
  running_.resize(static_cast<std::size_t>(in.count(4)));
  std::uint64_t total = 0;
  for (JobId& job : running_) {
    job = in.job_id();
    if (info_[job].admitted) in.fail("invalid running entry");
    JobInfo& info = info_[job];
    if (info.cluster == 0) in.fail("admitted job with empty cluster");
    info.admitted = true;
    total += info.cluster;
  }
  if (total > std::numeric_limits<ProcCount>::max()) {
    in.fail("committed total out of range");
  }
  committed_ = static_cast<ProcCount>(total);
  admitted_count_ = static_cast<std::size_t>(in.u64());
}

void FederatedScheduler::decide(const EngineContext& ctx, Assignment& out) {
  (void)ctx;
  for (const JobId job : running_) {
    out.add(job, info_[job].cluster);
  }
}

}  // namespace dagsched

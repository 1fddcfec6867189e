#include "baselines/federated.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

FederatedScheduler::FederatedScheduler(FederatedOptions options)
    : options_(options) {}

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
  for (const JobInfo& info : info_) {
    out.u32(info.cluster);
    out.boolean(info.admitted);
  }
  // running_ order is the admission (LIFO-eviction) order; saved verbatim.
  out.u64(running_.size());
  for (const JobId job : running_) out.u32(job);
  out.u32(committed_);
  out.u64(admitted_count_);
}

void FederatedScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.count(5);
  info_.resize(static_cast<std::size_t>(n));
  std::size_t flagged = 0;
  for (JobInfo& info : info_) {
    info.cluster = in.u32();
    info.admitted = in.boolean();
    if (info.admitted && info.cluster == 0) {
      in.fail("admitted job with empty cluster");
    }
    flagged += info.admitted ? 1 : 0;
  }
  const std::uint64_t running = in.count(4);
  if (running != flagged) in.fail("running list disagrees with flags");
  running_.resize(static_cast<std::size_t>(running));
  std::uint64_t total = 0;
  for (JobId& job : running_) {
    job = in.u32();
    if (job >= n || !info_[job].admitted) in.fail("invalid running entry");
    total += info_[job].cluster;
  }
  // Duplicate-free: flagged admitted jobs == list length and every entry is
  // admitted, so a duplicate would leave some admitted job unlisted; catch
  // it via the committed total instead of an O(n^2) scan.
  committed_ = in.u32();
  if (total != committed_) in.fail("committed total disagrees with clusters");
  admitted_count_ = static_cast<std::size_t>(in.u64());
}

void FederatedScheduler::decide(const EngineContext& ctx, Assignment& out) {
  (void)ctx;
  for (const JobId job : running_) {
    out.add(job, info_[job].cluster);
  }
}

}  // namespace dagsched

#include "baselines/equi.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/sink.h"
#include "util/check.h"
#include "util/wire.h"

namespace dagsched {

EquiScheduler::EquiScheduler(EquiOptions options) : options_(options) {}

void EquiScheduler::decide(const EngineContext& ctx, Assignment& out) {
  struct Share {
    JobId job;
    double weight;
    ProcCount grant;
    double fractional;
  };
  static thread_local std::vector<Share> shares;
  static thread_local std::vector<std::size_t> order;
  shares.clear();
  double total_weight = 0.0;
  for (const JobId job : ctx.active_jobs()) {
    if (!overload_shed_.empty() && overload_shed_.count(job) != 0) continue;
    const JobView view = ctx.view(job);
    if (view.ready_count() == 0) continue;
    const double weight =
        options_.weight_by_profit ? view.peak_profit() : 1.0;
    DS_CHECK(weight > 0.0);
    shares.push_back({job, weight, 0, 0.0});
    total_weight += weight;
  }
  if (shares.empty()) return;

  // Largest-remainder apportionment of m processors to weights, with every
  // job guaranteed at least consideration for leftovers (jobs may round to
  // zero; leftovers go to the largest fractional parts, ties by id).  Equal
  // weights give equal fractional parts, so the id order -- the active
  // set's order -- needs no sort.
  const double m = static_cast<double>(ctx.num_procs());
  ProcCount assigned = 0;
  for (Share& share : shares) {
    const double exact = m * share.weight / total_weight;
    share.grant = static_cast<ProcCount>(std::floor(exact));
    share.fractional = exact - std::floor(exact);
    assigned += share.grant;
  }
  order.resize(shares.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options_.weight_by_profit) {
    std::sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      if (shares[a].fractional != shares[b].fractional) {
        return shares[a].fractional > shares[b].fractional;
      }
      return shares[a].job < shares[b].job;
    });
  }
  for (std::size_t rank = 0;
       rank < order.size() && assigned < ctx.num_procs(); ++rank) {
    ++shares[order[rank]].grant;
    ++assigned;
  }

  for (const Share& share : shares) {
    if (share.grant >= 1) out.add(share.job, share.grant);
  }
}

std::size_t EquiScheduler::shed_load(const EngineContext& ctx,
                                     std::size_t max_jobs) {
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  while (shed < max_jobs) {
    JobId victim = kInvalidJob;
    double victim_weight = 0.0;
    for (const JobId job : ctx.active_jobs()) {
      if (overload_shed_.count(job) != 0) continue;
      const JobView view = ctx.view(job);
      if (view.ready_count() == 0) continue;
      const double weight =
          options_.weight_by_profit ? view.peak_profit() : 1.0;
      // Lowest weight loses; ties shed the latest arrival (largest id).
      if (victim == kInvalidJob || weight < victim_weight ||
          (weight == victim_weight && job > victim)) {
        victim = job;
        victim_weight = weight;
      }
    }
    if (victim == kInvalidJob) break;
    overload_shed_.insert(victim);
    if (obs != nullptr) {
      obs->event(ctx.now(), victim, ObsEventKind::kDrop,
                 "overload.shed.share", {{"weight", victim_weight}});
    }
    ++shed;
  }
  return shed;
}

void EquiScheduler::save_state(CheckpointWriter& out) const {
  out.u64(overload_shed_.size());
  for (const JobId job : overload_shed_) out.u32(job);
}

void EquiScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.count(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!overload_shed_.insert(in.job_id()).second) {
      in.fail("duplicate shed-set entry");
    }
  }
}

}  // namespace dagsched

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
  static thread_local std::vector<std::pair<JobId, double>> shares;
  shares.clear();
  double total_weight = 0.0;
  for (const JobId job : ctx.active_jobs()) {
    if (!overload_shed_.empty() && overload_shed_.count(job) != 0) continue;
    const JobView view = ctx.view(job);
    if (view.deadline_unreachable(ctx.now())) continue;
    if (view.ready_count() == 0) continue;
    const double weight =
        options_.weight_by_profit ? view.peak_profit() : 1.0;
    DS_CHECK(weight > 0.0);
    shares.emplace_back(job, weight);
    total_weight += weight;
  }
  if (shares.empty()) return;

  // Largest-remainder apportionment of m processors to weights, with every
  // job guaranteed at least consideration for leftovers (jobs may round to
  // zero; leftovers go to the largest fractional parts, ties by id).
  const double m = static_cast<double>(ctx.num_procs());
  std::vector<double> fractional(shares.size());
  ProcCount assigned = 0;
  std::vector<ProcCount> grant(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const double exact = m * shares[i].second / total_weight;
    grant[i] = static_cast<ProcCount>(std::floor(exact));
    fractional[i] = exact - std::floor(exact);
    assigned += grant[i];
  }
  std::vector<std::size_t> order(shares.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (fractional[a] != fractional[b]) return fractional[a] > fractional[b];
    return shares[a].first < shares[b].first;
  });
  for (std::size_t rank = 0;
       rank < order.size() && assigned < ctx.num_procs(); ++rank) {
    ++grant[order[rank]];
    ++assigned;
  }

  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (grant[i] >= 1) out.add(shares[i].first, grant[i]);
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
    if (!overload_shed_.insert(in.u32()).second) {
      in.fail("duplicate shed-set entry");
    }
  }
}

}  // namespace dagsched

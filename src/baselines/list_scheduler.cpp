#include "baselines/list_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "obs/sink.h"
#include "util/check.h"
#include "util/wire.h"

namespace dagsched {

const char* list_policy_name(ListPolicy policy) {
  switch (policy) {
    case ListPolicy::kEdf: return "edf";
    case ListPolicy::kLlf: return "llf";
    case ListPolicy::kHdf: return "hdf";
    case ListPolicy::kFcfs: return "fcfs";
  }
  return "?";
}

ListScheduler::ListScheduler(ListSchedulerOptions options)
    : options_(options),
      order_pool_(std::make_unique<NodePool>()),
      order_index_(std::less<OrderKey>{},
                   PoolAllocator<OrderKey>(order_pool_.get())) {}

std::string ListScheduler::name() const {
  std::string n = list_policy_name(options_.policy);
  if (options_.clairvoyant_laxity) n += "(clairvoyant)";
  return n;
}

double ListScheduler::key(const EngineContext& ctx, JobId job) const {
  const JobView view = ctx.view(job);
  switch (options_.policy) {
    case ListPolicy::kEdf:
      return view.has_deadline() ? view.absolute_deadline()
                                 : view.release() + view.profit().plateau_end();
    case ListPolicy::kLlf: {
      const Time due = view.has_deadline()
                           ? view.absolute_deadline()
                           : view.release() + view.profit().plateau_end();
      Work remaining_estimate;
      if (options_.clairvoyant_laxity) {
        remaining_estimate = ctx.remaining_span(job);
      } else {
        remaining_estimate = view.remaining_work() /
                             static_cast<double>(ctx.num_procs());
      }
      return (due - ctx.now()) - remaining_estimate / ctx.speed();
    }
    case ListPolicy::kHdf:
      // Negate so that smaller key = higher priority uniformly.
      return -(view.peak_profit() / view.work());
    case ListPolicy::kFcfs:
      return view.release();
  }
  return 0.0;
}

void ListScheduler::reset() {
  order_index_.clear();
  overload_shed_.clear();
}

std::size_t ListScheduler::shed_load(const EngineContext& ctx,
                                     std::size_t max_jobs) {
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  auto emit = [&](JobId job) {
    if (obs == nullptr) return;
    obs->event(ctx.now(), job, ObsEventKind::kDrop,
               "overload.shed.lowest-priority");
  };
  if (indexed()) {
    while (shed < max_jobs && !order_index_.empty()) {
      const auto it = std::prev(order_index_.end());
      emit(it->second);
      order_index_.erase(it);
      ++shed;
    }
    return shed;
  }
  // kLlf: keys are time-dependent and no order is cached, so pick the
  // victim the way decide_sorted would rank it -- largest (key, id) among
  // runnable active jobs not yet shed -- and add it to the shed set.
  while (shed < max_jobs) {
    JobId victim = kInvalidJob;
    double victim_key = 0.0;
    for (const JobId job : ctx.active_jobs()) {
      if (overload_shed_.count(job) != 0) continue;
      if (ctx.view(job).ready_count() == 0) continue;
      const double k = key(ctx, job);
      if (victim == kInvalidJob ||
          std::pair<double, JobId>{k, job} >
              std::pair<double, JobId>{victim_key, victim}) {
        victim = job;
        victim_key = k;
      }
    }
    if (victim == kInvalidJob) break;
    overload_shed_.insert(victim);
    emit(victim);
    ++shed;
  }
  return shed;
}

void ListScheduler::save_state(CheckpointWriter& out) const {
  if (indexed()) {
    out.u64(order_index_.size());
    for (const auto& [k, job] : order_index_) {
      out.f64(k);
      out.u32(job);
    }
  } else {
    out.u64(overload_shed_.size());
    for (const JobId job : overload_shed_) out.u32(job);
  }
}

void ListScheduler::load_state(CheckpointReader& in) {
  if (indexed()) {
    const std::uint64_t entries = in.count(12);
    for (std::uint64_t i = 0; i < entries; ++i) {
      const double k = in.f64();
      if (!order_index_.emplace(k, in.job_id()).second) {
        in.fail("duplicate order-index entry");
      }
    }
  } else {
    const std::uint64_t entries = in.count(4);
    for (std::uint64_t i = 0; i < entries; ++i) {
      if (!overload_shed_.insert(in.job_id()).second) {
        in.fail("duplicate shed-set entry");
      }
    }
  }
}

void ListScheduler::on_arrival(const EngineContext& ctx, JobId job) {
  if (indexed()) order_index_.emplace(key(ctx, job), job);
}

void ListScheduler::on_completion(const EngineContext& ctx, JobId job) {
  // Static keys recompute to the same value, so this finds the entry the
  // arrival inserted (if the expiry path has not removed it already).
  if (indexed()) order_index_.erase({key(ctx, job), job});
}

void ListScheduler::decide(const EngineContext& ctx, Assignment& out) {
  if (indexed()) {
    decide_indexed(ctx, out);
  } else {
    decide_sorted(ctx, out);
  }
}

// Static-key path: walk the maintained (key, id) order, shedding jobs the
// kernel has retired permanently as they are first seen.  Grants are identical to
// decide_sorted -- the index holds exactly the active jobs minus
// already-shed ones, in the order the sort would produce -- but a decision
// costs O(grants + newly expired).
void ListScheduler::decide_indexed(const EngineContext& ctx, Assignment& out) {
  static thread_local std::vector<std::pair<double, JobId>> expired;
  expired.clear();
  ProcCount free = ctx.num_procs();
  for (const auto& entry : order_index_) {
    const JobView view = ctx.view(entry.second);
    if (!view.live()) {
      expired.push_back(entry);
      continue;
    }
    if (free == 0) break;
    const auto ready = view.ready_count();
    if (ready == 0) continue;
    const ProcCount grant =
        static_cast<ProcCount>(std::min<std::size_t>(ready, free));
    out.add(entry.second, grant);
    free -= grant;
  }
  for (const auto& entry : expired) order_index_.erase(entry);
}

// Dynamic-key path (kLlf): keys change with now(), so every decision sorts
// fresh over the kernel's active set (which holds no dead job) minus the
// shed set.
void ListScheduler::decide_sorted(const EngineContext& ctx, Assignment& out) {
  static thread_local std::vector<std::pair<double, JobId>> order;
  order.clear();
  for (const JobId job : ctx.active_jobs()) {
    if (!overload_shed_.empty() && overload_shed_.count(job) != 0) continue;
    if (ctx.view(job).ready_count() == 0) continue;
    order.emplace_back(key(ctx, job), job);
  }
  std::sort(order.begin(), order.end());

  ProcCount free = ctx.num_procs();
  for (const auto& [key_value, job] : order) {
    (void)key_value;
    if (free == 0) break;
    const auto ready = ctx.view(job).ready_count();
    const ProcCount grant = static_cast<ProcCount>(std::min<std::size_t>(
        ready, free));
    if (grant == 0) continue;
    out.add(job, grant);
    free -= grant;
  }
}

}  // namespace dagsched

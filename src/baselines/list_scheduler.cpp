#include "baselines/list_scheduler.h"

#include <algorithm>
#include <iterator>
#include <limits>

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
        remaining_estimate = ctx.unfolding_of(job).remaining_span();
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
  llf_candidates_.clear();
  llf_pos_.clear();
  overload_shed_.clear();
}

void ListScheduler::llf_add(JobId job) {
  if (job >= llf_pos_.size()) llf_pos_.resize(job + 1, kNoSlot);
  if (llf_pos_[job] != kNoSlot) return;
  llf_pos_[job] = static_cast<std::uint32_t>(llf_candidates_.size());
  llf_candidates_.push_back(job);
}

void ListScheduler::llf_remove(JobId job) {
  if (job >= llf_pos_.size() || llf_pos_[job] == kNoSlot) return;
  const std::uint32_t slot = llf_pos_[job];
  const JobId moved = llf_candidates_.back();
  llf_candidates_[slot] = moved;
  llf_pos_[moved] = slot;
  llf_candidates_.pop_back();
  llf_pos_[job] = kNoSlot;
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
  // runnable candidates -- drop it from the candidate set, and remember it
  // in the shed set (which checkpointing persists).
  while (shed < max_jobs) {
    JobId victim = kInvalidJob;
    double victim_key = 0.0;
    for (const JobId job : llf_candidates_) {
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
    llf_remove(victim);
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
    // kLlf candidates carry no key (laxity is recomputed from now() every
    // decision).  Sorted by id so the bytes do not depend on swap-removal
    // history.
    std::vector<JobId> sorted(llf_candidates_);
    std::sort(sorted.begin(), sorted.end());
    out.u64(sorted.size());
    for (const JobId job : sorted) out.u32(job);
  }
  out.u64(overload_shed_.size());
  for (const JobId job : overload_shed_) out.u32(job);
}

void ListScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t entries = in.count(indexed() ? 12 : 4);
  for (std::uint64_t i = 0; i < entries; ++i) {
    if (indexed()) {
      const double k = in.f64();
      if (!order_index_.emplace(k, in.u32()).second) {
        in.fail("duplicate order-index entry");
      }
    } else {
      const JobId job = in.u32();
      if (job < llf_pos_.size() && llf_pos_[job] != kNoSlot) {
        in.fail("duplicate order-index entry");
      }
      llf_add(job);
    }
  }
  const std::uint64_t shed_count = in.count(4);
  for (std::uint64_t i = 0; i < shed_count; ++i) {
    if (!overload_shed_.insert(in.u32()).second) {
      in.fail("duplicate shed-set entry");
    }
  }
}

void ListScheduler::on_arrival(const EngineContext& ctx, JobId job) {
  if (indexed()) {
    order_index_.emplace(key(ctx, job), job);
  } else {
    llf_add(job);
  }
}

void ListScheduler::on_completion(const EngineContext& ctx, JobId job) {
  // Static keys recompute to the same value, so this finds the entry the
  // arrival inserted (if the expiry path has not removed it already).
  if (indexed()) {
    order_index_.erase({key(ctx, job), job});
  } else {
    llf_remove(job);
  }
}

void ListScheduler::decide(const EngineContext& ctx, Assignment& out) {
  if (indexed()) {
    decide_indexed(ctx, out);
  } else {
    decide_sorted(ctx, out);
  }
}

// Static-key path: walk the maintained (key, id) order, shedding expired
// jobs permanently as they are first seen.  Grants are identical to
// decide_sorted -- the index holds exactly the active jobs minus
// already-shed ones, in the order the sort would produce -- but a decision
// costs O(grants + newly expired).
void ListScheduler::decide_indexed(const EngineContext& ctx, Assignment& out) {
  static thread_local std::vector<std::pair<double, JobId>> expired;
  expired.clear();
  ProcCount free = ctx.num_procs();
  for (const auto& entry : order_index_) {
    const JobView view = ctx.view(entry.second);
    if (view.deadline_unreachable(ctx.now())) {
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
// fresh -- but only over the incremental candidate set, and jobs observed
// expired leave it for good (mirroring decide_indexed's permanent removal;
// deadline_unreachable is monotone in time, so a skipped job can never
// become runnable again).
void ListScheduler::decide_sorted(const EngineContext& ctx, Assignment& out) {
  static thread_local std::vector<std::pair<double, JobId>> order;
  order.clear();
  for (std::size_t i = 0; i < llf_candidates_.size();) {
    const JobId job = llf_candidates_[i];
    const JobView view = ctx.view(job);
    if (view.deadline_unreachable(ctx.now())) {
      llf_remove(job);  // swap-removal refills slot i; do not advance
      continue;
    }
    ++i;
    // Completed jobs leave via on_completion.
    if (view.ready_count() == 0) continue;
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

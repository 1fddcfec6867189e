#include "core/profit_scheduler.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "obs/sink.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

namespace {
// Pruned slot nodes kept for reuse.  decide() prunes in bursts after the
// engine skips idle slots, and a job's pinning adds a few dozen slots.
constexpr std::size_t kSpareSlots = 256;
}  // namespace

ProfitScheduler::ProfitScheduler(ProfitSchedulerOptions options)
    : options_(std::move(options)) {
  options_.params.validate();
}

std::string ProfitScheduler::name() const {
  std::string n =
      "paper-S-profit(eps=" + std::to_string(options_.params.epsilon);
  if (options_.work_conserving) n += ",work-conserving";
  n += ")";
  return n;
}

void ProfitScheduler::reset() {
  slots_.clear();
  spare_slots_.clear();
  info_.clear();
  work_order_.clear();
  cap_ = 0.0;
  scheduled_count_ = 0;
  scheduled_profit_ = 0.0;
}

ProfitScheduler::SlotMap::iterator ProfitScheduler::add_slot(
    SlotMap::const_iterator hint, std::uint64_t t) {
  if (spare_slots_.empty()) return slots_.try_emplace(hint, t);
  SlotMap::node_type node = std::move(spare_slots_.back());
  spare_slots_.pop_back();
  node.key() = t;
  node.mapped().clear();
  return slots_.insert(hint, std::move(node));
}

void ProfitScheduler::release_slots(JobId job, std::uint64_t from) {
  for (const std::uint64_t t : info_[job].assigned) {
    if (t < from) continue;
    const auto it = slots_.find(t);
    if (it != slots_.end()) it->second.erase(job);
  }
}

void ProfitScheduler::on_arrival(const EngineContext& ctx, JobId job) {
  if (info_.size() < ctx.num_jobs()) info_.resize(ctx.num_jobs());
  JobInfo& info = info_[job];
  DS_CHECK(!info.arrived);
  info.arrived = true;
  cap_ = options_.params.b * static_cast<double>(ctx.num_procs());

  const JobView view = ctx.view(job);
  const ProfitFn& profit = view.profit();
  const double speed = ctx.speed();

  info.alloc = compute_profit_allocation(view.work(), view.span(),
                                         profit.plateau_end(),
                                         options_.params, speed);
  if (info.alloc.n == 0) {
    if (ctx.obs() != nullptr) {
      ctx.obs()->event(ctx.now(), job, ObsEventKind::kDrop, "infeasible");
    }
    return;
  }
  const ProcCount n = info.alloc.n;
  const Work x = info.alloc.x;
  const Work span_eff = view.span() / speed;
  const double xn = x * static_cast<double>(n);

  // Number of assignable slots required for validity.
  const auto needed = static_cast<std::uint64_t>(
      std::ceil((1.0 + options_.params.delta) * x - kEps));

  // First usable absolute slot: the job exists from ceil(release); the
  // current slot is usable because arrivals are delivered before decide().
  const auto first_slot = static_cast<std::uint64_t>(
      std::max(std::ceil(view.release() - kEps), std::floor(ctx.now() + kEps)));

  // Candidate relative deadlines, in whole slots.  Potential deadlines must
  // exceed (1+eps) L (Section 5) and leave room for `needed` slots.
  const double d_min_time = (1.0 + options_.params.epsilon) * span_eff;
  std::uint64_t d_lo = static_cast<std::uint64_t>(std::floor(d_min_time)) + 1;
  d_lo = std::max(d_lo, needed);
  d_lo = std::max<std::uint64_t>(d_lo, 1);

  // Search cap: no profit beyond the support end; global safety cap.
  std::uint64_t d_hi = kMaxSearchSlots;
  if (profit.support_end() < kTimeInfinity) {
    d_hi = std::min(d_hi, static_cast<std::uint64_t>(
                              std::floor(profit.support_end() + kEps)));
  }

  // The window, resolved from the slot map once per arrival and extended
  // as the deadline grows: window_[t - first_slot] is slot t's index with
  // the walk of its answer, and window_break_ the walk's break density.
  // Map nodes stay put and the indexes unchanged during the search, and v
  // only falls as D grows (p_i does not increase), so a density change
  // re-checks only the slots whose break density the new v reaches, and
  // none while v is above them all (brk_max); `usable` counts the slots
  // whose answer admits the job.
  window_.clear();
  window_break_.clear();
  auto next_slot = slots_.lower_bound(first_slot);
  const double c = options_.params.c;
  std::size_t usable = 0;
  Density brk_max = -std::numeric_limits<Density>::infinity();
  Density v_last = std::numeric_limits<Density>::infinity();
  const auto recount = [&usable](bool was, bool now) {
    if (now && !was) ++usable;
    if (was && !now) --usable;
  };

  Profit last_profit = -1.0;
  for (std::uint64_t d = d_lo; d <= d_hi; ++d) {
    const Profit p_at_d = profit.at(static_cast<Time>(d));
    if (!(p_at_d > 0.0)) break;  // zero profit => zero density => stop
    const Density v = p_at_d / xn;
    // Absolute end (exclusive) of the window [r, r + d).
    const auto end_slot = static_cast<std::uint64_t>(
        std::floor(view.release() + static_cast<double>(d) + kEps));
    if (end_slot <= first_slot) continue;
    DS_CHECK_MSG(v <= v_last, "profit of job " << job << " rises at D=" << d);
    v_last = v;

    // Density changed: the slots seen so far answer at the new density.
    // Density unchanged: they keep the answers of the density they were
    // checked at, and only the newly exposed slots are checked.
    if (!approx_eq(p_at_d, last_profit) && v <= brk_max) {
      brk_max = -std::numeric_limits<Density>::infinity();
      for (std::size_t i = 0; i < window_.size(); ++i) {
        if (window_break_[i] >= v) {
          WindowSlot& slot = window_[i];
          const bool was = slot.walk.admits;
          window_break_[i] = slot.index->lower_walk(slot.walk, v, n, c, cap_);
          recount(was, slot.walk.admits);
        }
        brk_max = std::max(brk_max, window_break_[i]);
      }
    }
    while (first_slot + window_.size() < end_slot) {
      const std::uint64_t t = first_slot + window_.size();
      WindowSlot& slot = window_.emplace_back();
      Density brk = -std::numeric_limits<Density>::infinity();
      if (next_slot != slots_.end() && next_slot->first == t) {
        slot.index = &next_slot->second;
        brk = slot.index->start_walk(slot.walk, v, n, c, cap_);
        ++next_slot;
      } else {
        // Empty slot: only the job's own window matters.
        slot.walk.admits = static_cast<double>(n) <= cap_;
      }
      window_break_.push_back(brk);
      brk_max = std::max(brk_max, brk);
      recount(false, slot.walk.admits);
    }
    last_profit = p_at_d;

    if (usable >= needed) {
      // Minimal valid deadline found: pin the job.
      info.deadline = static_cast<Time>(d);
      info.v = v;
      info.assigned.reserve(usable);
      for (std::size_t i = 0; i < window_.size(); ++i) {
        if (window_[i].walk.admits) info.assigned.push_back(first_slot + i);
      }
      info.scheduled = true;
      ++scheduled_count_;
      scheduled_profit_ += p_at_d;
      // One hinted pass over the slot map: `at` is the first slot >= t.
      auto at = slots_.lower_bound(info.assigned.front());
      for (const std::uint64_t t : info.assigned) {
        while (at != slots_.end() && at->first < t) ++at;
        if (at == slots_.end() || at->first != t) at = add_slot(at, t);
        at->second.insert(job, v, n);
      }
      work_order_.emplace(v, job);
      if (ctx.obs() != nullptr) {
        ctx.obs()->event(ctx.now(), job, ObsEventKind::kSchedule,
                         "deadline-found",
                         {{"d", static_cast<double>(d)},
                          {"v", v},
                          {"n", static_cast<double>(n)},
                          {"slots",
                           static_cast<double>(info.assigned.size())}});
      }
      return;
    }
  }
  if (ctx.obs() != nullptr) {
    ctx.obs()->event(ctx.now(), job, ObsEventKind::kDrop,
                     "no-valid-deadline",
                     {{"d_hi", static_cast<double>(d_hi)}});
  }
}

void ProfitScheduler::on_completion(const EngineContext& ctx, JobId job) {
  JobInfo& info = info_[job];
  info.completed = true;
  if (!info.scheduled) return;
  work_order_.erase({info.v, job});
  // Only the slots after the one the job finished in.
  const auto current = static_cast<std::uint64_t>(std::floor(ctx.now() - kEps));
  release_slots(job, current + 1);
}

void ProfitScheduler::on_capacity_change(const EngineContext& ctx,
                                         ProcCount old_m, ProcCount new_m) {
  cap_ = options_.params.b * static_cast<double>(new_m);
  if (new_m >= old_m) return;  // growth: future admissions just got looser
  const ObsSink* obs = ctx.obs();
  auto unschedule = [&](JobId job, const char* slug) {
    JobInfo& info = info_[job];
    release_slots(job, 0);
    info.scheduled = false;
    info.assigned.clear();
    work_order_.erase({info.v, job});
    if (obs != nullptr) {
      obs->event(ctx.now(), job, ObsEventKind::kReadmitFail, slug,
                 {{"n", static_cast<double>(info.alloc.n)},
                  {"m", static_cast<double>(new_m)}});
    }
  };
  for (JobId job = 0; job < info_.size(); ++job) {
    const JobInfo& info = info_[job];
    if (info.scheduled && !info.completed && info.alloc.n > new_m) {
      unschedule(job, "too-wide");
    }
  }
  for (auto& [t, slot] : slots_) {
    while (!slot.empty() &&
           approx_gt(slot.max_window_load(options_.params.c), cap_)) {
      // Shed the lowest-density job (ties: the later arrival) -- the member
      // decide() serves last.
      unschedule(slot.served_last(), "window-over-cap");
    }
  }
}

void ProfitScheduler::decide(const EngineContext& ctx, Assignment& out) {
  // The slot-assignment algorithm is only meaningful on the slot engine
  // (decide() once per unit slot).  Fractional decision times mean an
  // event-driven engine is driving us; fail loudly instead of silently
  // mis-mapping events to slots.
  DS_CHECK_MSG(approx_eq(ctx.now(), std::floor(ctx.now() + kEps)),
               "ProfitScheduler requires the SlotEngine (decide at t="
                   << ctx.now() << ")");
  const auto slot = static_cast<std::uint64_t>(std::floor(ctx.now() + kEps));
  // Prune history so the map stays proportional to the lookahead.  A few
  // pruned nodes keep their capacity for the slots pinned next.
  const auto past_end = slots_.lower_bound(slot);
  while (slots_.begin() != past_end) {
    if (spare_slots_.size() < kSpareSlots) {
      spare_slots_.push_back(slots_.extract(slots_.begin()));
    } else {
      slots_.erase(slots_.begin());
    }
  }

  const auto it = slots_.find(slot);

  ProcCount free = ctx.num_procs();
  if (it != slots_.end()) {
    // Highest-density-first among jobs assigned to this slot: the slot's
    // index walks them in that order, so no per-decision sort.  A completed
    // job's later slots were released, so every member is unfinished.
    it->second.for_each_served([&](JobId job) {
      if (free == 0) return false;
      const JobInfo& info = info_[job];
      if (info.alloc.n <= free) {
        out.add(job, info.alloc.n);
        free -= info.alloc.n;
      }
      return true;
    });
  }

  if (options_.work_conserving && free > 0) {
    // Opportunistic fill: scheduled, unfinished jobs not assigned to this
    // slot, by density.  They keep their fixed n_i footprint.  work_order_
    // holds exactly the scheduled && !completed jobs in (density desc, id
    // asc) order, so the seed's scan-everything-and-sort is a plain walk.
    // Skipping every job assigned to this slot skips exactly the ones served
    // above: an assigned job left out there needed more than the `free`
    // processors of that moment, and `free` has only shrunk since.
    for (const auto& [v, job] : work_order_) {
      (void)v;
      if (free == 0) break;
      const JobInfo& info = info_[job];
      if (std::binary_search(info.assigned.begin(), info.assigned.end(),
                             slot)) {
        continue;
      }
      if (info.alloc.n <= free) {
        out.add(job, info.alloc.n);
        free -= info.alloc.n;
      }
    }
  }
}

std::size_t ProfitScheduler::shed_load(const EngineContext& ctx,
                                       std::size_t max_jobs) {
  // Lowest density first: the back of work_order_ (scheduled, unfinished
  // jobs in density-descending order).  Shedding releases every assigned
  // slot, which only loosens Lemma-15 windows for future arrivals -- that
  // is the automatic-recovery path once the overload clears.
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  while (shed < max_jobs && !work_order_.empty()) {
    const auto [v, job] = *std::prev(work_order_.end());
    JobInfo& info = info_[job];
    release_slots(job, 0);
    info.scheduled = false;
    info.assigned.clear();
    work_order_.erase({v, job});
    if (obs != nullptr) {
      obs->event(ctx.now(), job, ObsEventKind::kDrop, "overload.shed.window",
                 {{"v", v}, {"n", static_cast<double>(info.alloc.n)}});
    }
    ++shed;
  }
  return shed;
}

void ProfitScheduler::save_state(CheckpointWriter& out) const {
  out.u64(info_.size());
  for (const JobInfo& info : info_) {
    out.u32(info.alloc.n);
    out.f64(info.alloc.x);
    out.f64(info.alloc.v);
    out.boolean(info.alloc.good);
    out.u64(info.assigned.size());
    for (const std::uint64_t t : info.assigned) out.u64(t);
    out.f64(info.deadline);
    out.f64(info.v);
    out.u8(static_cast<std::uint8_t>((info.arrived ? 1u : 0u) |
                                     (info.scheduled ? 2u : 0u) |
                                     (info.completed ? 4u : 0u)));
  }
  out.f64(cap_);
  out.u64(scheduled_count_);
  out.f64(scheduled_profit_);
  // Each slot's members are saved in service order (density desc, id asc).
  // Load rebuilds each slot's index, which derives that order, and
  // work_order_ from the saved state.
  out.u64(slots_.size());
  for (const auto& [t, slot] : slots_) {
    out.u64(t);
    out.u64(slot.size());
    slot.for_each_served([&out](JobId job) {
      out.u32(job);
      return true;
    });
  }
}

void ProfitScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.job_rows(46);
  info_.resize(in.job_bound());
  for (std::uint64_t i = 0; i < n; ++i) {
    JobInfo& info = info_[static_cast<std::size_t>(i)];
    info.alloc.n = in.u32();
    info.alloc.x = in.f64();
    info.alloc.v = in.f64();
    info.alloc.good = in.boolean();
    const std::uint64_t assigned = in.count(8);
    info.assigned.resize(static_cast<std::size_t>(assigned));
    for (std::uint64_t& t : info.assigned) t = in.u64();
    info.deadline = in.f64();
    info.v = in.f64();
    const std::uint8_t flags = in.u8();
    if ((flags & ~0x7u) != 0) {
      in.fail("job " + std::to_string(i) + " has invalid flags");
    }
    info.arrived = (flags & 1u) != 0;
    info.scheduled = (flags & 2u) != 0;
    info.completed = (flags & 4u) != 0;
    if (info.scheduled && !info.completed) {
      work_order_.emplace(info.v, static_cast<JobId>(i));
    }
  }
  cap_ = in.f64();
  scheduled_count_ = static_cast<std::size_t>(in.u64());
  scheduled_profit_ = in.f64();
  const std::uint64_t slot_count = in.count(16);
  std::uint64_t prev_t = 0;
  for (std::uint64_t s = 0; s < slot_count; ++s) {
    const std::uint64_t t = in.u64();
    if (s > 0 && t <= prev_t) in.fail("slot keys out of order");
    prev_t = t;
    DensityWindowIndex& slot = slots_[t];
    const std::uint64_t members = in.count(4);
    for (std::uint64_t k = 0; k < members; ++k) {
      const JobId job = in.job_id();
      if (!info_[job].arrived || info_[job].alloc.n == 0 ||
          !(info_[job].v > 0.0) || slot.contains(job)) {
        in.fail("slot " + std::to_string(t) + " references invalid job");
      }
      slot.insert(job, info_[job].v, info_[job].alloc.n);
    }
  }
}

Time ProfitScheduler::next_wakeup(const EngineContext& ctx) const {
  const auto slot = static_cast<std::uint64_t>(std::floor(ctx.now() + kEps));
  if (options_.work_conserving) {
    // Opportunistic mode can make progress in any slot while a scheduled
    // job remains unfinished: work_order_ holds exactly those jobs.
    if (!work_order_.empty()) return static_cast<Time>(slot + 1);
  }
  // Later slots hold no completed job: completion released them.
  for (auto it = slots_.upper_bound(slot); it != slots_.end(); ++it) {
    if (!it->second.empty()) return static_cast<Time>(it->first);
  }
  return kTimeInfinity;
}

Time ProfitScheduler::chosen_deadline(JobId job) const {
  DS_CHECK(job < info_.size() && info_[job].arrived);
  return info_[job].deadline;
}

const std::vector<std::uint64_t>& ProfitScheduler::assigned_slots(
    JobId job) const {
  DS_CHECK(job < info_.size() && info_[job].arrived);
  return info_[job].assigned;
}

const JobAllocation* ProfitScheduler::allocation_of(JobId job) const {
  if (job >= info_.size() || !info_[job].arrived) return nullptr;
  return &info_[job].alloc;
}

Density ProfitScheduler::density_of(JobId job) const {
  DS_CHECK(job < info_.size() && info_[job].scheduled);
  return info_[job].v;
}

double ProfitScheduler::slot_window_load(std::uint64_t slot) const {
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return 0.0;
  return it->second.max_window_load(options_.params.c);
}

std::vector<JobId> ProfitScheduler::slot_jobs(std::uint64_t slot) const {
  std::vector<JobId> jobs;
  const auto it = slots_.find(slot);
  if (it != slots_.end()) {
    it->second.for_each_served([&jobs](JobId job) {
      jobs.push_back(job);
      return true;
    });
  }
  return jobs;
}

std::size_t ProfitScheduler::memory_bytes() const {
  // Per-slot maps dominate: one tree node per slot (key + index header)
  // plus each slot's index arrays; then the work-conserving order set,
  // per-job info, the search window, and assigned-slot lists.
  std::size_t bytes = 0;
  const auto slot_bytes = [](const DensityWindowIndex& slot) {
    return sizeof(std::uint64_t) + sizeof(DensityWindowIndex) +
           4 * sizeof(void*) + slot.memory_bytes();
  };
  for (const auto& [slot, slot_info] : slots_) bytes += slot_bytes(slot_info);
  for (const SlotMap::node_type& node : spare_slots_) {
    bytes += slot_bytes(node.mapped());
  }
  bytes += spare_slots_.capacity() * sizeof(SlotMap::node_type);
  bytes += work_order_.size() *
           (sizeof(std::pair<Density, JobId>) + 4 * sizeof(void*));
  bytes += info_.capacity() * sizeof(JobInfo) +
           window_.capacity() * sizeof(WindowSlot) +
           window_break_.capacity() * sizeof(Density);
  for (const JobInfo& info : info_) {
    bytes += info.assigned.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace dagsched

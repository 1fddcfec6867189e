#include "core/profit_scheduler.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "obs/sink.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

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
  info_.clear();
  work_order_.clear();
  cap_ = 0.0;
  scheduled_count_ = 0;
  scheduled_profit_ = 0.0;
}

void ProfitScheduler::insert_slot_job(SlotInfo& slot, JobId job) {
  const auto pos = std::lower_bound(
      slot.jobs.begin(), slot.jobs.end(), job, [this](JobId lhs, JobId rhs) {
        return DensityDescIdAsc{}({info_[lhs].v, lhs}, {info_[rhs].v, rhs});
      });
  slot.jobs.insert(pos, job);
}

void ProfitScheduler::release_slots(JobId job, std::uint64_t from) {
  for (const std::uint64_t t : info_[job].assigned) {
    if (t < from) continue;
    const auto it = slots_.find(t);
    if (it == slots_.end()) continue;
    it->second.index.erase(job);
    std::erase(it->second.jobs, job);
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
  std::uint64_t d_hi = options_.max_search_slots;
  if (profit.support_end() < kTimeInfinity) {
    d_hi = std::min(d_hi, static_cast<std::uint64_t>(
                              std::floor(profit.support_end() + kEps)));
  }

  // The window's slot indexes, resolved once per arrival and extended as
  // the deadline grows: window_[t - first_slot] is slot t's index with its
  // admits() cursor.  Map nodes stay put and the indexes unchanged during
  // the search, and v only falls as D grows, so a slot's cursor keeps its
  // answer until v, c*v or v/c passes one of the slot's jobs.
  window_.clear();
  auto next_slot = slots_.lower_bound(first_slot);
  const double c = options_.params.c;
  const auto admits = [&](std::uint64_t t, Density v) {
    WindowSlot& slot = window_[t - first_slot];
    // Empty slot: only the job's own window matters.
    if (slot.index == nullptr) return static_cast<double>(n) <= cap_;
    return slot.index->admits(v, n, c, cap_, slot.cursor);
  };

  std::vector<std::uint64_t> assignable;
  Profit last_profit = -1.0;
  std::uint64_t scanned_until = first_slot;  // exclusive end of last scan
  Profit p_at_d = profit.at(static_cast<Time>(d_lo));
  Profit p_next = 0.0;
  for (std::uint64_t d = d_lo; d <= d_hi; ++d, p_at_d = p_next) {
    if (!(p_at_d > 0.0)) break;  // zero profit => zero density => stop
    p_next = d < d_hi ? profit.at(static_cast<Time>(d + 1)) : 0.0;
    const Density v = p_at_d / xn;
    // Absolute end (exclusive) of the window [r, r + d).
    const auto end_slot = static_cast<std::uint64_t>(
        std::floor(view.release() + static_cast<double>(d) + kEps));
    if (end_slot <= first_slot) continue;
    while (first_slot + window_.size() < end_slot) {
      const std::uint64_t t = first_slot + window_.size();
      if (next_slot != slots_.end() && next_slot->first == t) {
        window_.push_back({&next_slot->second.index, {}});
        ++next_slot;
      } else {
        window_.push_back({nullptr, {}});
      }
    }

    // Density unchanged: the previous scan is still valid; only the newly
    // exposed slots need checking.  Density changed: rescan the whole
    // window under the new density.
    std::uint64_t scan = scanned_until;
    if (!approx_eq(p_at_d, last_profit)) {
      assignable.clear();
      scan = first_slot;
    }
    // When the next deadline rescans anyway (or this is the last one), this
    // list is never read again, so the scan stops once even an all-admitting
    // remainder could not reach `needed`.
    const bool list_dies = d == d_hi || !approx_eq(p_next, p_at_d);
    for (; scan < end_slot; ++scan) {
      if (list_dies && assignable.size() + (end_slot - scan) < needed) break;
      if (admits(scan, v)) assignable.push_back(scan);
    }
    last_profit = p_at_d;
    scanned_until = end_slot;

    if (assignable.size() >= needed) {
      // Minimal valid deadline found: pin the job.
      info.deadline = static_cast<Time>(d);
      info.v = v;
      info.assigned = std::move(assignable);
      info.scheduled = true;
      ++scheduled_count_;
      scheduled_profit_ += p_at_d;
      for (const std::uint64_t t : info.assigned) {
        SlotInfo& slot = slots_[t];
        slot.index.insert(job, v, n);
        insert_slot_job(slot, job);
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
    while (!slot.jobs.empty() &&
           approx_gt(slot.index.max_window_load(options_.params.c), cap_)) {
      // Shed the lowest-density job (ties: the later arrival) -- the inverse
      // of the density order decide() serves in, i.e. the back of the
      // (density desc, id asc)-sorted slot list.
      unschedule(slot.jobs.back(), "window-over-cap");
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
  // Prune history so the map stays proportional to the lookahead.
  slots_.erase(slots_.begin(), slots_.lower_bound(slot));

  const auto it = slots_.find(slot);

  ProcCount free = ctx.num_procs();
  if (it != slots_.end()) {
    // Highest-density-first among jobs assigned to this slot: the slot list
    // is maintained in that order, so no per-decision sort.  A completed
    // job's later slots were released, so every listed job is unfinished.
    for (const JobId job : it->second.jobs) {
      if (free == 0) break;
      const JobInfo& info = info_[job];
      if (info.alloc.n <= free) {
        out.add(job, info.alloc.n);
        free -= info.alloc.n;
      }
    }
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
  // Each slot's job list is saved in its maintained (density desc, id asc)
  // order; the per-slot window index and work_order_ are functions of the
  // saved state and are rebuilt on load.
  out.u64(slots_.size());
  for (const auto& [t, slot] : slots_) {
    out.u64(t);
    out.u64(slot.jobs.size());
    for (const JobId job : slot.jobs) out.u32(job);
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
    SlotInfo& slot = slots_[t];
    const std::uint64_t members = in.count(4);
    slot.jobs.resize(static_cast<std::size_t>(members));
    for (JobId& job : slot.jobs) {
      job = in.job_id();
      if (!info_[job].arrived || info_[job].alloc.n == 0 ||
          !(info_[job].v > 0.0) || slot.index.contains(job)) {
        in.fail("slot " + std::to_string(t) + " references invalid job");
      }
      slot.index.insert(job, info_[job].v, info_[job].alloc.n);
    }
  }
}

Time ProfitScheduler::next_wakeup(const EngineContext& ctx) const {
  const auto slot = static_cast<std::uint64_t>(std::floor(ctx.now() + kEps));
  if (options_.work_conserving) {
    // Opportunistic mode can make progress in any slot while a scheduled
    // job remains unfinished.
    for (const JobInfo& info : info_) {
      if (info.scheduled && !info.completed) {
        return static_cast<Time>(slot + 1);
      }
    }
  }
  // Later slots hold no completed job: completion released them.
  for (auto it = slots_.upper_bound(slot); it != slots_.end(); ++it) {
    if (!it->second.jobs.empty()) return static_cast<Time>(it->first);
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
  return it->second.index.max_window_load(options_.params.c);
}

const std::vector<JobId>* ProfitScheduler::slot_jobs(
    std::uint64_t slot) const {
  const auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.jobs;
}

std::size_t ProfitScheduler::memory_bytes() const {
  // Per-slot maps dominate: one tree node per slot (key + SlotInfo header)
  // plus each slot's job vector and window index; then the work-conserving
  // order set, per-job info, the search window, and assigned-slot lists.
  std::size_t bytes = 0;
  for (const auto& [slot, slot_info] : slots_) {
    bytes += sizeof(std::uint64_t) + sizeof(SlotInfo) + 4 * sizeof(void*) +
             slot_info.jobs.capacity() * sizeof(JobId) +
             slot_info.index.memory_bytes();
  }
  bytes += work_order_.size() *
           (sizeof(std::pair<Density, JobId>) + 4 * sizeof(void*));
  bytes += info_.capacity() * sizeof(JobInfo) +
           window_.capacity() * sizeof(WindowSlot);
  for (const JobInfo& info : info_) {
    bytes += info.assigned.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace dagsched

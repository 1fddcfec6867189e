// Work-conserving extension of the Section-5 scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "sim/kernel/engine_factory.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

SimResult run(const JobSet& jobs, bool work_conserving, ProcCount m) {
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5),
                             .work_conserving = work_conserving});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  return run_simulation(EngineKind::kSlot, jobs, scheduler, *selector, options);
}

TEST(ProfitWorkConserving, RescuesJobThatLostItsSlots) {
  // Two identical jobs with exponential decay: the second is pinned to
  // later slots.  With work conservation it can also use idle capacity in
  // earlier slots (the machine has room: m=16, each n~13 -> one at a time
  // assigned, 3 procs idle... too few).  Use jobs with n ~ m/3 so two fit
  // physically but slot assignment staggers them.
  const ProcCount m = 16;
  auto dag = share(make_parallel_block(12, 1.0));  // n ~ 5
  const Time plateau = 8.0;
  JobSet jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.add(Job(dag, 0.0,
                 ProfitFn::plateau_exponential(5.0, plateau, 0.2)));
  }
  jobs.finalize();
  const SimResult plain = run(jobs, false, m);
  const SimResult wc = run(jobs, true, m);
  EXPECT_EQ(wc.jobs_completed, 3u);
  // Work conservation never completes later in aggregate.
  Time plain_total = 0.0, wc_total = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (plain.outcomes[i].completed) {
      plain_total += plain.outcomes[i].completion_time;
    }
    if (wc.outcomes[i].completed) wc_total += wc.outcomes[i].completion_time;
  }
  EXPECT_LE(wc_total, plain_total + 1e-9);
  EXPECT_GE(wc.total_profit, plain.total_profit - 1e-9);
}

TEST(ProfitWorkConserving, NeverWorseOnScenarioWorkloads) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    WorkloadConfig config =
        scenario_profit(0.5, 0.9, 8, ProfitPolicy::Shape::kPlateauExp);
    config.horizon = 80.0;
    const JobSet jobs = generate_workload(rng, config);
    const SimResult plain = run(jobs, false, 8);
    const SimResult wc = run(jobs, true, 8);
    // Not a theorem, but opportunistic extra work should not lose profit
    // beyond noise on these benign instances.
    EXPECT_GE(wc.total_profit, 0.95 * plain.total_profit) << seed;
    EXPECT_GE(wc.jobs_completed + 1, plain.jobs_completed) << seed;
  }
}

/// Drives a ProfitScheduler and, at every decision and after every
/// completion, compares its next_wakeup() with one derived from the jobs'
/// pinnings: the next slot while a pinned job is unfinished under work
/// conservation, otherwise the first later slot a pinned, unfinished job is
/// assigned to, or infinity.
class WakeupProbe final : public SchedulerBase {
 public:
  explicit WakeupProbe(ProfitScheduler& inner, bool work_conserving)
      : inner_(inner), work_conserving_(work_conserving) {}

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void on_arrival(const EngineContext& ctx, JobId job) override {
    inner_.on_arrival(ctx, job);
    if (inner_.chosen_deadline(job) < kTimeInfinity) pinned_.push_back(job);
  }
  void on_completion(const EngineContext& ctx, JobId job) override {
    inner_.on_completion(ctx, job);
    std::erase(pinned_, job);
    check(ctx);
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    check(ctx);
    inner_.decide(ctx, out);
  }
  Time next_wakeup(const EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }

  std::size_t next_slot_answers = 0;
  std::size_t pinned_slot_answers = 0;
  std::size_t infinite_answers = 0;

 private:
  void check(const EngineContext& ctx) {
    const auto slot = static_cast<std::uint64_t>(std::floor(ctx.now() + kEps));
    Time want = kTimeInfinity;
    if (work_conserving_ && !pinned_.empty()) {
      want = static_cast<Time>(slot + 1);
      ++next_slot_answers;
    } else {
      for (const JobId job : pinned_) {
        const std::vector<std::uint64_t>& slots = inner_.assigned_slots(job);
        const auto later = std::upper_bound(slots.begin(), slots.end(), slot);
        if (later != slots.end()) {
          want = std::min(want, static_cast<Time>(*later));
        }
      }
      ++(want < kTimeInfinity ? pinned_slot_answers : infinite_answers);
    }
    EXPECT_EQ(inner_.next_wakeup(ctx), want) << "t=" << ctx.now();
  }

  ProfitScheduler& inner_;
  bool work_conserving_;
  std::vector<JobId> pinned_;  // scheduled and not yet completed
};

TEST(ProfitWorkConserving, NextWakeupFollowsUnfinishedPinnedJobs) {
  // Three jobs released together and one later, each pinned to its own
  // slots: the probe sees pinned jobs unfinished, then none.
  const ProcCount m = 16;
  auto dag = share(make_parallel_block(12, 1.0));
  JobSet jobs;
  for (const Time release : {0.0, 0.0, 0.0, 30.0}) {
    jobs.add(Job(dag, release, ProfitFn::plateau_exponential(5.0, 8.0, 0.2)));
  }
  jobs.finalize();
  for (const bool work_conserving : {true, false}) {
    ProfitScheduler scheduler({.params = Params::from_epsilon(0.5),
                               .work_conserving = work_conserving});
    WakeupProbe probe(scheduler, work_conserving);
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = m;
    const SimResult result =
        run_simulation(EngineKind::kSlot, jobs, probe, *selector, options);
    EXPECT_EQ(result.jobs_completed, 4u) << work_conserving;
    EXPECT_GT(probe.infinite_answers, 0u) << work_conserving;
    if (work_conserving) {
      EXPECT_GT(probe.next_slot_answers, 0u);
    } else {
      EXPECT_GT(probe.pinned_slot_answers, 0u);
    }
  }
}

TEST(ProfitWorkConserving, NameReflectsOption) {
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5),
                             .work_conserving = true});
  EXPECT_NE(scheduler.name().find("work-conserving"), std::string::npos);
}

}  // namespace
}  // namespace dagsched

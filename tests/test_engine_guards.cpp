// Engine defense: illegal allocations are rejected with a structured
// SimFailureKind::kBadAllocation (the kernel finalizes outcomes and returns
// cleanly -- no process abort), while contract violations that indicate
// mis-wired *code* (clairvoyance peeks, wrong engine, unfinalized job sets)
// still abort loudly.  These are the contract checks EXTENDING.md promises.
#include <gtest/gtest.h>

#include <memory>

#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/kernel/engine_factory.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

JobSet two_jobs() {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(4, 1.0)), 0.0, 50.0,
                              1.0));
  jobs.add(Job::with_deadline(share(make_parallel_block(4, 1.0)), 10.0, 50.0,
                              1.0));
  jobs.finalize();
  return jobs;
}

/// Misbehaving scheduler driven by a mode switch.
class RogueScheduler final : public SchedulerBase {
 public:
  enum class Mode {
    kOverAllocate,   // > m processors total
    kDuplicate,      // same job twice
    kZeroProcs,      // 0-processor entry
    kUnarrived,      // allocates to a job not yet released
    kUnknown,        // allocates to an out-of-range job id
  };
  explicit RogueScheduler(Mode mode) : mode_(mode) {}
  std::string name() const override { return "rogue"; }
  void decide(const EngineContext& ctx, Assignment& out) override {
    if (ctx.active_jobs().empty()) return;
    const JobId job = ctx.active_jobs().front();
    switch (mode_) {
      case Mode::kOverAllocate:
        out.add(job, ctx.num_procs() + 1);
        break;
      case Mode::kDuplicate:
        out.add(job, 1);
        out.add(job, 1);
        break;
      case Mode::kZeroProcs:
        out.add(job, 0);
        break;
      case Mode::kUnarrived:
        out.add(1, 1);  // job 1 releases at t=10
        break;
      case Mode::kUnknown:
        out.add(777, 1);
        break;
    }
  }

 private:
  Mode mode_;
};

class EngineGuardRejection
    : public ::testing::TestWithParam<RogueScheduler::Mode> {};

TEST_P(EngineGuardRejection, IllegalAllocationRejectedStructurally) {
  // The malformed allocation must surface as kBadAllocation on *both*
  // stepping drivers (the validation lives once, in the kernel), with
  // outcomes finalized so the caller can still report partial results.
  const JobSet jobs = two_jobs();
  for (const EngineKind kind : {EngineKind::kEvent, EngineKind::kSlot}) {
    RogueScheduler scheduler(GetParam());
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 2;
    const SimResult result =
        run_simulation(kind, jobs, scheduler, *selector, options);
    EXPECT_TRUE(result.failed()) << engine_kind_name(kind);
    EXPECT_EQ(result.failure, SimFailureKind::kBadAllocation)
        << engine_kind_name(kind);
    EXPECT_FALSE(result.failure_message.empty()) << engine_kind_name(kind);
    EXPECT_EQ(result.outcomes.size(), jobs.size()) << engine_kind_name(kind);
    EXPECT_EQ(result.jobs_completed, 0u) << engine_kind_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineGuardRejection,
    ::testing::Values(RogueScheduler::Mode::kOverAllocate,
                      RogueScheduler::Mode::kDuplicate,
                      RogueScheduler::Mode::kZeroProcs,
                      RogueScheduler::Mode::kUnarrived,
                      RogueScheduler::Mode::kUnknown));

TEST(EngineGuards, SemiNonClairvoyantPeekAborts) {
  // A scheduler that claims to be semi-non-clairvoyant but touches DAG
  // structure must die at the gated accessor.
  class Peeker final : public SchedulerBase {
   public:
    std::string name() const override { return "peeker"; }
    void decide(const EngineContext& ctx, Assignment& out) override {
      if (!ctx.active_jobs().empty()) {
        (void)ctx.dag_of(ctx.active_jobs().front());  // forbidden
        out.add(ctx.active_jobs().front(), 1);
      }
    }
  };
  const JobSet jobs = two_jobs();
  Peeker scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 2;
  EventEngine engine(jobs, scheduler, *selector, options);
  EXPECT_DEATH(engine.run(), "peeked");
}

TEST(EngineGuards, ProfitSchedulerRefusesEventEngine) {
  // Fractional node works make the event engine hit decide() at fractional
  // times; the slot scheduler must refuse rather than mis-map slots.
  JobSet jobs;
  jobs.add(Job(share(make_parallel_block(6, 0.7)), 0.0,
               ProfitFn::plateau_linear(2.0, 6.0, 18.0)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  EventEngine engine(jobs, scheduler, *selector, options);
  EXPECT_DEATH(engine.run(), "SlotEngine");
}

TEST(EngineGuards, UnsortedJobSetRejected) {
  // Engines require finalize(); hand-built unsorted sets abort.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 5.0, 2.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 1.0, 2.0, 1.0));
  // no finalize()
  class Idle final : public SchedulerBase {
   public:
    std::string name() const override { return "idle"; }
    void decide(const EngineContext&, Assignment&) override {}
  };
  Idle scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  EXPECT_DEATH(EventEngine(jobs, scheduler, *selector, options),
               "not finalized");
}

}  // namespace
}  // namespace dagsched

// Allocation-validation fuzz: a hostile scheduler that mixes legal
// allocations with every class of malformed one (overcommit, duplicate job,
// unarrived job, completed job, out-of-range job, zero processors) must be
// rejected with a structured SimFailureKind::kBadAllocation on both stepping
// drivers -- never a DS_CHECK process abort, never a corrupted result.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dag/generators.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

JobSet fuzz_jobs(Rng& rng) {
  JobSet jobs;
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < n; ++i) {
    const auto width = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const double work = rng.uniform(0.5, 3.0);
    const double release = rng.uniform(0.0, 8.0);
    jobs.add(Job::with_deadline(share(make_parallel_block(width, work)),
                                release, release + rng.uniform(5.0, 30.0),
                                rng.uniform(1.0, 4.0)));
  }
  jobs.finalize();
  return jobs;
}

/// Behaves like a greedy FCFS scheduler except that, at one randomly chosen
/// decision, it emits one randomly chosen malformed allocation.
class HostileScheduler final : public SchedulerBase {
 public:
  HostileScheduler(std::uint64_t seed, std::size_t strike_decision)
      : rng_(seed), strike_decision_(strike_decision) {}

  std::string name() const override { return "hostile"; }

  bool struck() const { return struck_; }

  void decide(const EngineContext& ctx, Assignment& out) override {
    const auto active = ctx.active_jobs();
    if (decision_++ == strike_decision_) {
      struck_ = true;
      emit_malformed(ctx, out);
      return;
    }
    ProcCount left = ctx.num_procs();
    for (const JobId job : active) {
      if (left == 0) break;
      const ProcCount grant = static_cast<ProcCount>(
          rng_.uniform_int(1, static_cast<std::int64_t>(left)));
      out.add(job, grant);
      left -= grant;
    }
  }

  void reset() override {
    decision_ = 0;
    struck_ = false;
  }

 private:
  void emit_malformed(const EngineContext& ctx, Assignment& out) {
    const auto active = ctx.active_jobs();
    // With no active job some attack shapes are unavailable; fall back to
    // the out-of-range one, which is always expressible.
    const std::int64_t shape =
        active.empty() ? 4 : rng_.uniform_int(0, 5);
    const JobId victim = active.empty() ? 0 : active.front();
    switch (shape) {
      case 0:  // overcommit: one entry above m
        out.add(victim, ctx.num_procs() + 1);
        break;
      case 1:  // overcommit: entries summing above m
        if (active.size() >= 2) {
          for (const JobId job : active) out.add(job, ctx.num_procs());
        } else {
          out.add(victim, ctx.num_procs() + 1);
        }
        break;
      case 2:  // duplicate job
        out.add(victim, 1);
        out.add(victim, 1);
        break;
      case 3:  // zero processors
        out.add(victim, 0);
        break;
      case 4:  // out-of-range job id
        out.add(static_cast<JobId>(ctx.num_jobs() + 7), 1);
        break;
      case 5: {  // unarrived or completed job (a retired job, past its
                 // deadline but incomplete, is a legal target)
        for (JobId job = 0; job < ctx.num_jobs(); ++job) {
          const JobView view = ctx.view(job);
          if (!view.arrived() || view.completed()) {
            out.add(job, 1);
            return;
          }
        }
        out.add(victim, 0);  // every job runnable: degrade to zero-procs
        break;
      }
      default: break;
    }
  }

  Rng rng_;
  std::size_t strike_decision_ = 0;
  std::size_t decision_ = 0;
  bool struck_ = false;
};

TEST(AllocFuzz, MalformedAllocationsRejectedNotAborted) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const JobSet jobs = fuzz_jobs(rng);
    const auto strike = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (const EngineKind kind : {EngineKind::kEvent, EngineKind::kSlot}) {
      HostileScheduler scheduler(seed * 977 + 3, strike);
      auto selector = make_selector(SelectorKind::kFifo);
      SimOptions options;
      options.num_procs = static_cast<ProcCount>(rng.uniform_int(2, 6));
      const SimResult result =
          run_simulation(kind, jobs, scheduler, *selector, options);
      const std::string label = std::string(engine_kind_name(kind)) +
                                " seed=" + std::to_string(seed);
      if (scheduler.struck()) {
        // The hostile decision happened: it must have been rejected with a
        // structured failure and finalized outcomes.
        EXPECT_EQ(result.failure, SimFailureKind::kBadAllocation) << label;
        EXPECT_FALSE(result.failure_message.empty()) << label;
        EXPECT_EQ(result.outcomes.size(), jobs.size()) << label;
      } else {
        // The run quiesced before the strike decision was reached; it must
        // have completed normally.
        EXPECT_EQ(result.failure, SimFailureKind::kNone) << label;
      }
    }
  }
}

TEST(AllocFuzz, CompletedJobAllocationRejected) {
  // Deterministic direct case for the "allocate to a completed job" class,
  // which the fuzz loop only hits probabilistically: run one tiny job to
  // completion, then keep allocating to it.
  class Necromancer final : public SchedulerBase {
   public:
    std::string name() const override { return "necromancer"; }
    void decide(const EngineContext& ctx, Assignment& out) override {
      // Job 0 completes after one unit of work; afterwards it leaves the
      // active list, but we keep allocating to it anyway.
      out.add(0, 1);
      (void)ctx;
    }
  };
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 50.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(5.0)), 0.0, 50.0, 1.0));
  jobs.finalize();
  for (const EngineKind kind : {EngineKind::kEvent, EngineKind::kSlot}) {
    Necromancer scheduler;
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 2;
    const SimResult result =
        run_simulation(kind, jobs, scheduler, *selector, options);
    EXPECT_EQ(result.failure, SimFailureKind::kBadAllocation)
        << engine_kind_name(kind);
    // Job 0 did complete before the rejection.
    EXPECT_TRUE(result.outcomes[0].completed) << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace dagsched

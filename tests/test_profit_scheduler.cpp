// The Section-5 profit scheduler: deadline search, slot assignment,
// Lemmas 14-15 as run-time invariants, and end-to-end profit on the
// slot engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "job/job.h"
#include "sim/kernel/engine_factory.h"
#include "util/float_cmp.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

Time plateau_for(const Dag& dag, ProcCount m, double eps) {
  return (1.0 + eps) *
         ((dag.total_work() - dag.span()) / static_cast<double>(m) +
          dag.span());
}

SimResult run_slotted(const JobSet& jobs, ProfitScheduler& scheduler,
                      ProcCount m, double speed = 1.0) {
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  return run_simulation(EngineKind::kSlot, jobs, scheduler, *sel, options);
}

TEST(ProfitScheduler, SingleJobScheduledWithMinimalSlots) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag dag = make_parallel_block(30, 1.0);
  const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 2.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(5.0, plateau, plateau * 4.0)));
  jobs.finalize();

  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);

  ASSERT_TRUE(result.outcomes[0].completed);
  const JobAllocation* alloc = scheduler.allocation_of(0);
  ASSERT_NE(alloc, nullptr);
  ASSERT_GE(alloc->n, 1u);
  // Lemma 14: x (1+2delta) <= x*.
  EXPECT_LE(alloc->x * (1.0 + 2.0 * scheduler.params().delta),
            plateau + 1e-9);
  // Minimal valid deadline on an empty machine: |I| == ceil((1+delta) x).
  const auto needed = static_cast<std::size_t>(
      std::ceil((1.0 + scheduler.params().delta) * alloc->x - 1e-9));
  EXPECT_EQ(scheduler.assigned_slots(0).size(), needed);
  EXPECT_EQ(scheduler.scheduled_count(), 1u);
  // Completed within the chosen deadline.
  EXPECT_LE(result.outcomes[0].completion_time,
            scheduler.chosen_deadline(0) + 1e-9);
}

TEST(ProfitScheduler, CompletionWithinPlateauEarnsPeak) {
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag dag = make_parallel_block(24, 1.0);
  // Generous plateau: the minimal valid deadline fits inside it.
  const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 6.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(3.0, plateau, plateau * 5.0)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  ASSERT_TRUE(result.outcomes[0].completed);
  EXPECT_DOUBLE_EQ(result.total_profit, 3.0);
  // Chosen deadline stayed within the plateau (minimality).
  EXPECT_LE(scheduler.chosen_deadline(0), plateau + 1e-9);
}

TEST(ProfitScheduler, InfeasiblePlateauLeavesJobUnscheduled) {
  const ProcCount m = 4;
  Dag dag = make_chain(10, 1.0);  // W = L = 10
  JobSet jobs;
  // Plateau below (1+eps)L: the Theorem-3 assumption is violated.
  jobs.add(Job(share(std::move(dag)), 0.0,
               ProfitFn::plateau_linear(1.0, 10.5, 40.0)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  EXPECT_FALSE(result.outcomes[0].completed);
  EXPECT_EQ(scheduler.scheduled_count(), 0u);
}

TEST(ProfitScheduler, SlotWindowInvariantLemma15) {
  // Several simultaneous jobs; after all arrivals every occupied slot's
  // density windows stay within b*m.
  const ProcCount m = 16;
  const double eps = 0.5;
  JobSet jobs;
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    Dag dag = make_parallel_block(
        static_cast<std::size_t>(rng.uniform_int(10, 40)), 1.0);
    const Time plateau = std::ceil(plateau_for(dag, m, eps)) + 4.0;
    jobs.add(Job(share(std::move(dag)), 0.0,
                 ProfitFn::plateau_linear(rng.uniform(1.0, 5.0), plateau,
                                          plateau * 6.0)));
  }
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  (void)result;
  // Inspect all slots any job was assigned to.
  const double cap = scheduler.params().b * static_cast<double>(m);
  for (JobId j = 0; j < jobs.size(); ++j) {
    if (scheduler.allocation_of(j) == nullptr) continue;
    for (const std::uint64_t slot : scheduler.assigned_slots(j)) {
      EXPECT_LE(scheduler.slot_window_load(slot), cap + 1e-9)
          << "slot " << slot;
    }
  }
}

TEST(ProfitScheduler, LaterDeadlineWhenSlotsCongested) {
  // Fill the machine with one job, then submit an identical one: its
  // chosen deadline must be at least as late (it needs slots further out).
  const ProcCount m = 16;
  const double eps = 0.5;
  Dag d1 = make_parallel_block(30, 1.0);
  Dag d2 = make_parallel_block(30, 1.0);
  const Time plateau = std::ceil(plateau_for(d1, m, eps)) + 2.0;
  JobSet jobs;
  jobs.add(Job(share(std::move(d1)), 0.0,
               ProfitFn::plateau_exponential(5.0, plateau, 0.05)));
  jobs.add(Job(share(std::move(d2)), 0.0,
               ProfitFn::plateau_exponential(5.0, plateau, 0.05)));
  jobs.finalize();
  ProfitScheduler scheduler({.params = Params::from_epsilon(eps)});
  const SimResult result = run_slotted(jobs, scheduler, m);
  ASSERT_EQ(scheduler.scheduled_count(), 2u);
  EXPECT_GE(scheduler.chosen_deadline(1), scheduler.chosen_deadline(0));
  // Both eventually complete (exponential support never runs out).
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_GT(result.total_profit, 0.0);
}

TEST(ProfitScheduler, CompletedJobsEarnAtLeastDeadlineProfit) {
  Rng rng(99);
  WorkloadConfig config = scenario_profit(0.5, 0.6, 8,
                                          ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = 120.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 3u);
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run_slotted(jobs, scheduler, 8);
  for (JobId j = 0; j < jobs.size(); ++j) {
    if (!result.outcomes[j].completed) continue;
    if (scheduler.chosen_deadline(j) == kTimeInfinity) continue;
    const Profit at_deadline =
        jobs[j].profit().at(scheduler.chosen_deadline(j));
    EXPECT_GE(result.outcomes[j].profit, at_deadline - 1e-9)
        << "job " << j;
  }
  EXPECT_GT(result.total_profit, 0.0);
}

TEST(ProfitScheduler, SlotReleaseAblationBothWork) {
  Rng rng(123);
  WorkloadConfig config = scenario_profit(0.5, 0.8, 8,
                                          ProfitPolicy::Shape::kPlateauExp);
  config.horizon = 80.0;
  const JobSet jobs = generate_workload(rng, config);
  ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
  const SimResult result = run_slotted(jobs, scheduler, 8);
  EXPECT_GE(result.total_profit, 0.0);
  EXPECT_LE(result.total_profit, jobs.total_peak_profit() + 1e-9);
}

// ---- Search oracle ---------------------------------------------------------
//
// The minimal-valid-deadline search, written out literally: every slot check
// looks the slot up by key and tests condition (2) over all of J(t) + {J_i}
// by brute force, and every change of p_i(D) rescans the whole window.  The
// scheduler's search (resolved window, pruned rescans, cached window loads)
// must choose the same deadline and the same slots for every job.

struct SearchChoice {
  Time deadline = kTimeInfinity;
  std::vector<std::uint64_t> slots;
};

bool literal_slot_admits(const ProfitScheduler& scheduler, std::uint64_t t,
                         Density v, ProcCount n, double cap) {
  const std::vector<JobId>* jobs = scheduler.slot_jobs(t);
  std::vector<std::pair<Density, double>> members;
  if (jobs != nullptr) {
    for (const JobId job : *jobs) {
      const double n_job =
          static_cast<double>(scheduler.allocation_of(job)->n);
      members.emplace_back(scheduler.density_of(job), n_job);
    }
  }
  members.emplace_back(v, static_cast<double>(n));
  const double c = scheduler.params().c;
  for (const auto& [vj, nj] : members) {
    (void)nj;
    double load = 0.0;
    for (const auto& [vk, nk] : members) {
      if (vk >= vj && vk < c * vj) load += nk;
    }
    if (load > cap) return false;
  }
  return true;
}

SearchChoice literal_search(const ProfitScheduler& scheduler,
                            const EngineContext& ctx, JobId job,
                            std::uint64_t max_search_slots) {
  const Params& params = scheduler.params();
  const JobView view = ctx.view(job);
  const ProfitFn& profit = view.profit();
  const JobAllocation alloc =
      compute_profit_allocation(view.work(), view.span(), profit.plateau_end(),
                                params, ctx.speed());
  if (alloc.n == 0) return {};
  const double cap = params.b * static_cast<double>(ctx.num_procs());
  const double xn = alloc.x * static_cast<double>(alloc.n);
  const auto needed = static_cast<std::uint64_t>(
      std::ceil((1.0 + params.delta) * alloc.x - kEps));
  const auto first_slot = static_cast<std::uint64_t>(
      std::max(std::ceil(view.release() - kEps), std::floor(ctx.now() + kEps)));
  const double d_min_time =
      (1.0 + params.epsilon) * (view.span() / ctx.speed());
  std::uint64_t d_lo = static_cast<std::uint64_t>(std::floor(d_min_time)) + 1;
  d_lo = std::max<std::uint64_t>(std::max(d_lo, needed), 1);
  std::uint64_t d_hi = max_search_slots;
  if (profit.support_end() < kTimeInfinity) {
    d_hi = std::min(d_hi, static_cast<std::uint64_t>(
                              std::floor(profit.support_end() + kEps)));
  }

  std::vector<std::uint64_t> assignable;
  Profit last_profit = -1.0;
  std::uint64_t scanned_until = first_slot;
  for (std::uint64_t d = d_lo; d <= d_hi; ++d) {
    const Profit p = profit.at(static_cast<Time>(d));
    if (!(p > 0.0)) break;
    const Density v = p / xn;
    const auto end_slot = static_cast<std::uint64_t>(
        std::floor(view.release() + static_cast<double>(d) + kEps));
    if (end_slot <= first_slot) continue;
    std::uint64_t from = scanned_until;
    if (!approx_eq(p, last_profit)) {
      assignable.clear();
      from = first_slot;
    }
    for (std::uint64_t t = from; t < end_slot; ++t) {
      if (literal_slot_admits(scheduler, t, v, alloc.n, cap)) {
        assignable.push_back(t);
      }
    }
    last_profit = p;
    scanned_until = end_slot;
    if (assignable.size() >= needed) {
      return {static_cast<Time>(d), std::move(assignable)};
    }
  }
  return {};
}

/// Drives a ProfitScheduler and, before each arrival reaches it, runs the
/// literal search against the scheduler's current slots; the scheduler's
/// choice must match it.
class SearchOracle final : public SchedulerBase {
 public:
  explicit SearchOracle(ProfitScheduler& inner, std::uint64_t max_search_slots)
      : inner_(inner), max_search_slots_(max_search_slots) {}

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void on_arrival(const EngineContext& ctx, JobId job) override {
    const SearchChoice want =
        literal_search(inner_, ctx, job, max_search_slots_);
    inner_.on_arrival(ctx, job);
    ++arrivals;
    if (want.deadline < kTimeInfinity) ++scheduled;
    EXPECT_EQ(inner_.chosen_deadline(job), want.deadline) << "job " << job;
    EXPECT_EQ(inner_.assigned_slots(job), want.slots) << "job " << job;
  }
  void on_completion(const EngineContext& ctx, JobId job) override {
    inner_.on_completion(ctx, job);
  }
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override {
    ++capacity_changes;
    inner_.on_capacity_change(ctx, old_m, new_m);
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    inner_.decide(ctx, out);
  }
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override {
    return inner_.shed_load(ctx, max_jobs);
  }
  Time next_wakeup(const EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }

  std::size_t arrivals = 0;
  std::size_t scheduled = 0;
  std::size_t capacity_changes = 0;

 private:
  ProfitScheduler& inner_;
  std::uint64_t max_search_slots_;
};

/// Replaces each job's decay with a staircase after its plateau: levels one
/// to three slots wide, so single-slot decays alternate with flat runs and
/// an equal-profit step often follows a decaying one.
JobSet with_piecewise_profits(const JobSet& jobs, Rng& rng) {
  JobSet out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    Profit p = job.profit().peak();
    Time t = job.profit().plateau_end();
    std::vector<std::pair<Time, Profit>> levels = {{t, p}};
    for (int k = 0; k < 12; ++k) {
      t += static_cast<Time>(rng.uniform_int(1, 3));
      p *= rng.uniform(0.6, 0.95);
      levels.emplace_back(t, p);
    }
    out.add(Job(job.dag_ptr(), job.release(),
                ProfitFn::piecewise(std::move(levels))));
  }
  out.finalize();
  return out;
}

struct OracleCase {
  const char* name;
  ProfitPolicy::Shape shape;
  bool piecewise;
  bool churn;
};

void PrintTo(const OracleCase& param, std::ostream* os) { *os << param.name; }

class ProfitSearchOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ProfitSearchOracle, MatchesLiteralSearch) {
  const OracleCase& param = GetParam();
  const ProcCount m = 16;
  Rng rng(21);
  WorkloadConfig config = scenario_profit(0.5, 2.5, m, param.shape);
  config.horizon = 200.0;
  JobSet jobs = generate_workload(rng, config);
  if (param.piecewise) jobs = with_piecewise_profits(jobs, rng);

  FaultPlanConfig fault_config;
  fault_config.seed = 9;
  fault_config.mtbf = 45.0;
  fault_config.mttr = 15.0;
  fault_config.horizon = 200.0;
  fault_config.min_procs = 4;
  fault_config.integral_times = true;
  fault_config.restart = RestartPolicy::kRestartFromZero;
  const FaultInjector injector(build_fault_plan(fault_config, m));

  const ProfitSchedulerOptions options{.params = Params::from_epsilon(0.5)};
  ProfitScheduler scheduler(options);
  SearchOracle oracle(scheduler, options.max_search_slots);
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions sim;
  sim.num_procs = m;
  if (param.churn) sim.faults = &injector;
  const SimResult result =
      run_simulation(EngineKind::kSlot, jobs, oracle, *sel, sim);

  EXPECT_EQ(oracle.arrivals, jobs.size());
  // Overloaded: the search both succeeds and, where the profit support is
  // finite, runs out of deadlines.
  EXPECT_GT(oracle.scheduled, 0u);
  if (param.shape != ProfitPolicy::Shape::kPlateauExp) {
    EXPECT_LT(oracle.scheduled, oracle.arrivals);
  }
  EXPECT_EQ(oracle.capacity_changes > 0, param.churn);
  EXPECT_GT(result.total_profit, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProfitSearchOracle,
    ::testing::Values(
        OracleCase{"step", ProfitPolicy::Shape::kStep, false, false},
        OracleCase{"plateau_linear", ProfitPolicy::Shape::kPlateauLinear,
                   false, false},
        OracleCase{"plateau_exp", ProfitPolicy::Shape::kPlateauExp, false,
                   false},
        OracleCase{"piecewise", ProfitPolicy::Shape::kPlateauLinear, true,
                   false},
        OracleCase{"plateau_linear_churn", ProfitPolicy::Shape::kPlateauLinear,
                   false, true}),
    [](const ::testing::TestParamInfo<OracleCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dagsched

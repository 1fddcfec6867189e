// Deterministic adversarial instances: the preemption trap's guaranteed
// separation and the clogger/flat stream shapes.
#include <gtest/gtest.h>

#include <memory>

#include "core/deadline_scheduler.h"
#include "sim/event_engine.h"
#include "workload/adversarial.h"

namespace dagsched {
namespace {

SimResult run(const JobSet& jobs, bool admission, ProcCount m) {
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5),
                               .enforce_admission = admission});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  return simulate(jobs, scheduler, *selector, options);
}

class TrapSeparation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrapSeparation, AdmissionCompletesHalfNoAdmissionOne) {
  const std::size_t waves = GetParam();
  const ProcCount m = 16;
  const JobSet trap = make_preemption_trap(m, 0.5, waves);
  ASSERT_EQ(trap.size(), waves);

  const SimResult with = run(trap, true, m);
  const SimResult without = run(trap, false, m);
  EXPECT_EQ(with.jobs_completed, waves / 2);
  EXPECT_EQ(without.jobs_completed, 1u);
  EXPECT_GT(with.total_profit, without.total_profit);
}

INSTANTIATE_TEST_SUITE_P(Waves, TrapSeparation,
                         ::testing::Values(4u, 8u, 16u, 32u));

TEST(Trap, DensitiesStrictlyIncreaseWithinWindowFactor) {
  const JobSet trap = make_preemption_trap(16, 0.5, 16);
  const double first = trap[0].peak_profit();
  const double last = trap[trap.size() - 1].peak_profit();
  // Spread must stay inside the c window so all waves share windows.
  EXPECT_LT(last / first, Params::from_epsilon(0.5).c);
  for (std::size_t i = 1; i < trap.size(); ++i) {
    EXPECT_GT(trap[i].peak_profit(), trap[i - 1].peak_profit());
    EXPECT_GT(trap[i].release(), trap[i - 1].release());
  }
}

TEST(Trap, RejectsDegenerateParameters) {
  EXPECT_DEATH(make_preemption_trap(2, 0.5, 8), "m >= 4");
  EXPECT_DEATH(make_preemption_trap(16, 0.5, 1), "waves");
  // Too many waves: density spread escapes the window factor.
  EXPECT_DEATH(make_preemption_trap(16, 0.5, 400, 0.05), "spread");
}

TEST(Streams, CloggerAndFlatShapes) {
  const ProcCount m = 16;
  const Dag clog = make_clogger_dag(m);
  const Dag flat = make_flat_dag(m);
  EXPECT_DOUBLE_EQ(clog.total_work(), flat.total_work());
  EXPECT_DOUBLE_EQ(clog.span(), 1.5 * static_cast<double>(m));
  EXPECT_DOUBLE_EQ(flat.span(), 1.0);
}

TEST(Streams, OverloadStreamDeadlinesAndProfits) {
  const ProcCount m = 16;
  auto dag = std::make_shared<const Dag>(make_flat_dag(m));
  const JobSet stream = make_overload_stream(dag, m, 0.5, 10, 2.0, 3.0);
  ASSERT_EQ(stream.size(), 10u);
  const double greedy =
      (dag->total_work() - dag->span()) / static_cast<double>(m) +
      dag->span();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_DOUBLE_EQ(stream[i].release(), 3.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(stream[i].relative_deadline(), 1.5 * greedy);
    EXPECT_DOUBLE_EQ(stream[i].peak_profit(), 2.0 * dag->total_work());
  }
}

}  // namespace
}  // namespace dagsched

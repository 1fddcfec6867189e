// Workload (de)serialization: round trips, schedule-equivalence of loaded
// instances, malformed-input errors.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "workload/scenarios.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

void expect_jobsets_equal(const JobSet& a, const JobSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].release(), b[i].release()) << "job " << i;
    EXPECT_DOUBLE_EQ(a[i].work(), b[i].work()) << "job " << i;
    EXPECT_DOUBLE_EQ(a[i].span(), b[i].span()) << "job " << i;
    EXPECT_EQ(a[i].dag().num_nodes(), b[i].dag().num_nodes());
    EXPECT_EQ(a[i].dag().num_edges(), b[i].dag().num_edges());
    EXPECT_DOUBLE_EQ(a[i].peak_profit(), b[i].peak_profit());
    // Sample the profit functions on a grid.
    for (double t = 0.0; t < 50.0; t += 0.7) {
      EXPECT_NEAR(a[i].profit().at(t), b[i].profit().at(t), 1e-9)
          << "job " << i << " t " << t;
    }
  }
}

JobSet round_trip(const JobSet& jobs) {
  std::stringstream buffer;
  write_workload(buffer, jobs);
  return read_workload(buffer);
}

TEST(WorkloadIo, RoundTripStepJobs) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_fig1_dag(4, 3, 1.0)), 0.5, 10.0, 2.0));
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_chain(5, 0.75)), 3.0, 8.0, 1.5));
  jobs.finalize();
  expect_jobsets_equal(jobs, round_trip(jobs));
}

TEST(WorkloadIo, RoundTripAllProfitShapes) {
  auto dag = std::make_shared<const Dag>(make_parallel_block(4, 1.0));
  JobSet jobs;
  jobs.add(Job(dag, 0.0, ProfitFn::step(2.0, 5.0)));
  jobs.add(Job(dag, 1.0, ProfitFn::plateau_linear(3.0, 4.0, 12.0)));
  jobs.add(Job(dag, 2.0, ProfitFn::plateau_exponential(1.5, 6.0, 0.25)));
  jobs.add(Job(dag, 3.0,
               ProfitFn::piecewise({{2.0, 5.0}, {4.0, 3.0}, {9.0, 1.0}})));
  jobs.finalize();
  expect_jobsets_equal(jobs, round_trip(jobs));
}

TEST(WorkloadIo, RoundTripGeneratedWorkload) {
  Rng rng(314);
  const JobSet jobs = generate_workload(rng, scenario_thm2(0.5, 0.8, 8));
  ASSERT_GT(jobs.size(), 5u);
  expect_jobsets_equal(jobs, round_trip(jobs));
}

TEST(WorkloadIo, LoadedInstanceSchedulesIdentically) {
  Rng rng(141);
  const JobSet original = generate_workload(rng, scenario_thm2(0.5, 0.9, 4));
  const JobSet loaded = round_trip(original);

  auto run = [](const JobSet& jobs) {
    ListScheduler scheduler({ListPolicy::kEdf, false, true});
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 4;
    return simulate(jobs, scheduler, *selector, options).total_profit;
  };
  EXPECT_DOUBLE_EQ(run(original), run(loaded));
}

TEST(WorkloadIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dagsched_io_test.wl";
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(2.0)), 0.0, 4.0, 1.0));
  jobs.finalize();
  save_workload(path, jobs);
  expect_jobsets_equal(jobs, load_workload(path));
  std::remove(path.c_str());
}

TEST(WorkloadIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "dagsched-workload 1\n"
      "\n"
      "job 0\n"
      "# profit next\n"
      "profit step 1 4\n"
      "nodes 2\n"
      "1.0 2.0\n"
      "edges 1\n"
      "0 1\n"
      "end\n");
  const JobSet jobs = read_workload(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].work(), 3.0);
  EXPECT_DOUBLE_EQ(jobs[0].span(), 3.0);
}

TEST(WorkloadIo, MalformedInputsThrowWithLineNumbers) {
  const char* bad_inputs[] = {
      "",                                       // empty
      "not-a-workload 1\n",                     // bad magic
      "dagsched-workload 99\n",                 // bad version
      "dagsched-workload 1\njob zero\n",        // bad release
      "dagsched-workload 1\njob 0\nprofit step 1\n",  // truncated profit
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 0\n",  // 0 nodes
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 2\n1.0\n",  // few
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 1\n1\nedges 1\n",
  };
  for (const char* text : bad_inputs) {
    std::stringstream in(text);
    EXPECT_THROW(read_workload(in), std::runtime_error) << text;
  }
}

TEST(WorkloadIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_workload("/nonexistent/definitely/missing.wl"),
               std::runtime_error);
}

}  // namespace
}  // namespace dagsched

// Job and JobSet semantics.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "dag/generators.h"
#include "job/job.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> block_dag() {
  return std::make_shared<const Dag>(make_parallel_block(8, 1.0));
}

TEST(JobTest, BasicAccessors) {
  const Job job = Job::with_deadline(block_dag(), 2.0, 5.0, 3.0);
  EXPECT_DOUBLE_EQ(job.release(), 2.0);
  EXPECT_DOUBLE_EQ(job.work(), 8.0);
  EXPECT_DOUBLE_EQ(job.span(), 1.0);
  EXPECT_TRUE(job.has_deadline());
  EXPECT_DOUBLE_EQ(job.relative_deadline(), 5.0);
  EXPECT_DOUBLE_EQ(job.absolute_deadline(), 7.0);
  EXPECT_DOUBLE_EQ(job.peak_profit(), 3.0);
}

TEST(JobTest, ExecutionTimeBounds) {
  const Job job = Job::with_deadline(block_dag(), 0.0, 5.0, 1.0);
  // W=8, L=1, m=4: min time = max(1, 2) = 2; greedy = 7/4 + 1 = 2.75.
  EXPECT_DOUBLE_EQ(job.min_execution_time(4), 2.0);
  EXPECT_DOUBLE_EQ(job.greedy_execution_time(4), 2.75);
  // m=16: min = max(1, 0.5) = 1; greedy = 7/16 + 1.
  EXPECT_DOUBLE_EQ(job.min_execution_time(16), 1.0);
  EXPECT_DOUBLE_EQ(job.greedy_execution_time(16), 7.0 / 16.0 + 1.0);
  // Greedy bound always >= ideal bound.
  for (ProcCount m = 1; m <= 32; m *= 2) {
    EXPECT_GE(job.greedy_execution_time(m), job.min_execution_time(m) - 1e-12);
  }
}

TEST(JobTest, RejectsInvalid) {
  EXPECT_THROW(Job(nullptr, 0.0, ProfitFn::step(1.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(Job(block_dag(), -1.0, ProfitFn::step(1.0, 1.0)),
               std::invalid_argument);
}

TEST(JobSetTest, FinalizeSortsByRelease) {
  JobSet jobs;
  jobs.add(Job::with_deadline(block_dag(), 5.0, 1.0, 1.0));
  jobs.add(Job::with_deadline(block_dag(), 1.0, 1.0, 2.0));
  jobs.add(Job::with_deadline(block_dag(), 3.0, 1.0, 3.0));
  EXPECT_FALSE(jobs.sorted_by_release());
  jobs.finalize();
  EXPECT_TRUE(jobs.sorted_by_release());
  EXPECT_DOUBLE_EQ(jobs[0].release(), 1.0);
  EXPECT_DOUBLE_EQ(jobs[2].release(), 5.0);
}

TEST(JobSetTest, Aggregates) {
  JobSet jobs;
  jobs.add(Job::with_deadline(block_dag(), 0.0, 4.0, 2.0));
  jobs.add(Job::with_deadline(block_dag(), 10.0, 6.0, 3.0));
  jobs.finalize();
  EXPECT_DOUBLE_EQ(jobs.total_peak_profit(), 5.0);
  // Total work 16 over m=2, horizon=20: load = 16/40.
  EXPECT_DOUBLE_EQ(jobs.utilization(2, 20.0), 0.4);
  EXPECT_DOUBLE_EQ(jobs.profit_horizon(), 16.0);
}

TEST(JobSetTest, ProfitHorizonInfiniteForExpDecay) {
  JobSet jobs;
  jobs.add(Job(block_dag(), 0.0, ProfitFn::plateau_exponential(1.0, 2.0, 0.1)));
  jobs.finalize();
  EXPECT_EQ(jobs.profit_horizon(), kTimeInfinity);
}

TEST(JobSetTest, SharedDagAcrossJobs) {
  auto dag = block_dag();
  JobSet jobs;
  jobs.add(Job::with_deadline(dag, 0.0, 1.0, 1.0));
  jobs.add(Job::with_deadline(dag, 1.0, 1.0, 1.0));
  jobs.finalize();
  EXPECT_EQ(&jobs[0].dag(), &jobs[1].dag());
}

TEST(JobSetTest, InputBytesCountsEachSharedDagOnce) {
  auto shared = block_dag();
  auto own = block_dag();
  JobSet jobs;
  jobs.add(Job::with_deadline(shared, 0.0, 1.0, 1.0));
  jobs.add(Job::with_deadline(own, 0.5, 1.0, 1.0));
  jobs.add(Job::with_deadline(shared, 1.0, 1.0, 1.0));
  jobs.finalize();
  EXPECT_EQ(jobs.input_bytes(), jobs.jobs().capacity() * sizeof(Job) +
                                    shared->memory_bytes() +
                                    own->memory_bytes());
}

}  // namespace
}  // namespace dagsched

// E15 -- The real-time viewpoint: acceptance ratio vs. achieved deadlines.
//
// The paper positions itself against the real-time literature ("tests to
// determine if a given set of reoccurring jobs can ALL be completed by
// their deadline, in contrast to optimizing throughput").  This experiment
// makes that contrast concrete, RTSS-style:
//
//  * acceptance ratio of the classic tests (federated clusters, GEDF
//    capacity augmentation, and the paper-S admission snapshot) as the
//    task-set utilization grows, and
//  * the *simulated* fraction of deadlines actually met by the matching
//    online schedulers on the released job streams -- showing the tests'
//    pessimism and where throughput-oriented S keeps earning after the
//    all-deadlines regime collapses.
#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "bench_util.h"
#include "rt/schedulability.h"

namespace {

using namespace dagsched;

double met_fraction(const JobSet& jobs, SchedulerBase& scheduler,
                    ProcCount m) {
  RunConfig run;
  run.m = m;
  const RunMetrics metrics = run_workload(jobs, scheduler, run);
  return jobs.empty() ? 1.0
                      : static_cast<double>(metrics.completed) /
                            static_cast<double>(jobs.size());
}

}  // namespace

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched::bench;
  print_header("E15: real-time schedulability vs throughput",
               "Acceptance ratios of the classic tests and measured "
               "deadline-met fractions of the matching schedulers.");

  const dagsched::ProcCount m = 16;
  const dagsched::Params params = dagsched::Params::from_epsilon(0.5);
  dagsched::TextTable table(
      {"util/m", "acc_federated", "acc_gedf", "acc_paperS", "met_federated",
       "met_edf", "met_S", "profit_S"});
  for (const double norm_util :
       {0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0}) {
    dagsched::RunningStats acc_fed, acc_gedf, acc_s, met_fed, met_edf, met_s,
        profit_s;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      dagsched::Rng rng(7000 + seed * 131 +
                        static_cast<std::uint64_t>(norm_util * 1000));
      dagsched::TaskGenConfig config;
      config.num_tasks = 8;
      config.total_utilization = norm_util * static_cast<double>(m);
      const dagsched::TaskSet tasks =
          dagsched::generate_task_set(rng, config);

      acc_fed.add(
          dagsched::federated_schedulable(tasks, m).schedulable ? 1.0 : 0.0);
      acc_gedf.add(
          dagsched::gedf_capacity_schedulable(tasks, m) ? 1.0 : 0.0);
      acc_s.add(dagsched::paper_admission_snapshot(tasks, m, params).admissible
                    ? 1.0
                    : 0.0);

      dagsched::Rng release_rng = rng.split(9);
      const dagsched::JobSet jobs =
          dagsched::release_jobs(tasks, 120.0, release_rng, 0.2);
      if (jobs.empty()) continue;
      dagsched::FederatedScheduler federated_scheduler;
      met_fed.add(met_fraction(jobs, federated_scheduler, m));
      dagsched::ListScheduler edf(
          {dagsched::ListPolicy::kEdf, false});
      met_edf.add(met_fraction(jobs, edf, m));
      dagsched::DeadlineScheduler s({.params = params});
      dagsched::RunConfig run;
      run.m = m;
      const dagsched::RunMetrics sm = dagsched::run_workload(jobs, s, run);
      met_s.add(static_cast<double>(sm.completed) /
                static_cast<double>(jobs.size()));
      profit_s.add(sm.fraction);
    }
    table.add_row({dagsched::TextTable::num(norm_util),
                   dagsched::TextTable::num(acc_fed.mean(), 3),
                   dagsched::TextTable::num(acc_gedf.mean(), 3),
                   dagsched::TextTable::num(acc_s.mean(), 3),
                   dagsched::TextTable::num(met_fed.mean(), 3),
                   dagsched::TextTable::num(met_edf.mean(), 3),
                   dagsched::TextTable::num(met_s.mean(), 3),
                   dagsched::TextTable::num(profit_s.mean(), 3)});
  }
  csv.emit("e15_rt", table);
  std::cout << "\nShape check: acceptance ratios fall off a cliff well "
               "before the simulated schedulers start missing deadlines "
               "(the tests' pessimism); EDF meets the most deadlines at "
               "feasible utilizations while S degrades gracefully by "
               "profit once overloaded.\n";
  return 0;
}

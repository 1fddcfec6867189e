// Sporadic real-time server: periodic sensing/able pipelines with hard
// deadlines -- the recurrent-task setting of the real-time literature the
// paper builds on (src/rt).
//
// The example designs a task system, runs the classic offline
// schedulability tests, then simulates three regimes online:
//  * nominal load (every test passes; everyone meets all deadlines),
//  * a rogue high-rate task pushing the system past its analysis bounds,
//  * and the overloaded system under S vs EDF vs federated -- showing how
//    the throughput view (shed the right jobs) replaces the all-deadlines
//    view once guarantees are impossible.
#include <iostream>
#include <memory>

#include "baselines/federated.h"
#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "rt/schedulability.h"
#include "rt/task.h"
#include "sim/kernel/engine_factory.h"
#include "util/table.h"

namespace {

using namespace dagsched;

SporadicTask make_pipeline(std::size_t stages, std::size_t width,
                           Time period, double deadline_fraction,
                           Profit profit) {
  SporadicTask task;
  task.dag = std::make_shared<const Dag>(
      make_fork_join(stages, width, 1.0, 0.25));
  task.period = period;
  task.relative_deadline = deadline_fraction * period;
  task.profit = profit;
  task.validate();
  return task;
}

void report_tests(const TaskSet& tasks, ProcCount m) {
  const auto federated = federated_schedulable(tasks, m);
  std::cout << "  utilization: " << tasks.total_utilization() << " / " << m
            << "\n  federated test: "
            << (federated.schedulable ? "PASS" : "fail") << " (needs "
            << federated.total << " cores)"
            << "\n  GEDF capacity bound: "
            << (gedf_capacity_schedulable(tasks, m) ? "PASS" : "fail")
            << "\n  paper-S admission snapshot: "
            << (paper_admission_snapshot(tasks, m,
                                         Params::from_epsilon(0.5))
                        .admissible
                    ? "PASS"
                    : "fail")
            << "\n";
}

void simulate_all(const TaskSet& tasks, ProcCount m, std::uint64_t seed) {
  Rng rng(seed);
  const JobSet jobs = release_jobs(tasks, 300.0, rng, 0.2);
  TextTable table({"scheduler", "deadlines met", "profit fraction"});
  struct Entry {
    const char* label;
    std::unique_ptr<SchedulerBase> scheduler;
  };
  Entry entries[3] = {
      {"paper S", std::make_unique<DeadlineScheduler>(
                      DeadlineSchedulerOptions{
                          .params = Params::from_epsilon(0.5)})},
      {"EDF", std::make_unique<ListScheduler>(
                  ListSchedulerOptions{.policy = ListPolicy::kEdf})},
      {"federated", std::make_unique<FederatedScheduler>()},
  };
  for (Entry& entry : entries) {
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = m;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, *entry.scheduler, *selector,
                       options);
    table.add_row(
        {entry.label,
         TextTable::num(static_cast<long long>(result.jobs_completed)) +
             "/" + TextTable::num(static_cast<long long>(jobs.size())),
         TextTable::num(profit_fraction(result, jobs), 3)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  const ProcCount m = 16;
  std::cout << "Sporadic sensing server on " << m << " cores\n\n";

  TaskSet nominal;
  nominal.add(make_pipeline(2, 8, 20.0, 0.8, 10.0));   // camera fusion
  nominal.add(make_pipeline(3, 4, 40.0, 0.9, 6.0));    // lidar clustering
  nominal.add(make_pipeline(1, 12, 15.0, 0.7, 8.0));   // radar filter
  nominal.add(make_pipeline(4, 2, 80.0, 1.0, 3.0));    // diagnostics

  std::cout << "[1] Nominal task system:\n";
  report_tests(nominal, m);
  simulate_all(nominal, m, 42);

  // The rogue tasks keep Theorem-2-compatible deadlines (otherwise S
  // rejects them outright -- see E4 for that regime) but flood the machine
  // with volume: total utilization ~19 on 16 cores.
  std::cout << "\n[2] Rogue tasks flood the server to ~2x capacity, most "
               "of it low-value spam:\n";
  TaskSet overloaded = nominal;
  for (int i = 0; i < 6; ++i) {
    overloaded.add(make_pipeline(1, 16, 4.4, 0.9, 1.0));  // spam tier
  }
  overloaded.add(make_pipeline(1, 16, 4.4, 0.9, 40.0));   // precious burst
  overloaded.add(make_pipeline(1, 16, 4.4, 0.9, 35.0));
  report_tests(overloaded, m);
  simulate_all(overloaded, m, 42);

  std::cout << "\nOnce all-deadlines guarantees are impossible, the "
               "throughput view decides *which*\njobs to shed: S sheds "
               "low-density jobs by design, EDF sheds whatever happens to\n"
               "be latest, federated sheds whatever arrives after capacity "
               "is committed.\n";
  return 0;
}

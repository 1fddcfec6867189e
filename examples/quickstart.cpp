// Quickstart: build a DAG job, schedule it online with the paper's
// algorithm, and read the outcome.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "core/deadline_scheduler.h"
#include "dag/builder.h"
#include "sim/event_engine.h"

int main() {
  using namespace dagsched;

  // 1. Describe a parallel program as a DAG: a source that fans out into
  //    four parallel tasks joined by a sink (a tiny map-reduce).
  DagBuilder builder;
  const NodeId source = builder.add_node(1.0);  // 1.0 time units of work
  const NodeId sink = builder.add_node(1.0);
  for (int i = 0; i < 4; ++i) {
    const NodeId task = builder.add_node(4.0);
    builder.add_edge(source, task);
    builder.add_edge(task, sink);
  }
  auto dag = std::make_shared<const Dag>(std::move(builder).build());
  std::cout << "job: W = " << dag->total_work() << ", L = " << dag->span()
            << "\n";

  // 2. Wrap it as an online job: released at t = 0, worth 10 profit if it
  //    completes within a deadline of 14.  Theorem 2 asks for deadlines of
  //    at least (1+eps)((W-L)/m + L) = 1.5 * 9 = 13.5 here -- S may park a
  //    tighter job in its waiting queue P forever.
  JobSet jobs;
  jobs.add(Job::with_deadline(dag, /*release=*/0.0, /*deadline=*/14.0,
                              /*profit=*/10.0));
  jobs.finalize();

  // 3. Pick the paper's scheduler S with slack parameter eps = 0.5 and run
  //    it on a simulated 4-processor machine.  The FIFO node selector plays
  //    the "machine picks arbitrary ready nodes" role -- S itself never
  //    sees the DAG's structure (it is semi-non-clairvoyant).
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  const SimResult result = simulate(jobs, scheduler, *selector, options);

  // 4. Inspect the outcome.
  const JobOutcome& outcome = result.outcomes[0];
  std::cout << "completed: " << (outcome.completed ? "yes" : "no")
            << "\ncompletion time: " << outcome.completion_time
            << "\nprofit earned: " << outcome.profit
            << "\nprocessors S reserved (n_i): "
            << scheduler.allocation_of(0)->n
            << "\nguaranteed bound (x_i): " << scheduler.allocation_of(0)->x
            << "\n";
  return 0;
}

// Walk-through of the paper's two lower-bound constructions (Section 4)
// with a step-by-step narration of what the machine does.
//
// Part 1 (Figure 1 / Theorem 1): the same DAG executed twice -- once with
// an adversarial ready-node selector (the semi-non-clairvoyant worst case)
// and once with clairvoyant critical-path-first selection.
//
// Part 2 (the preemption trap): why scheduler S refuses work -- a live
// demonstration of admission condition (2) defeating a cascade that
// destroys the admission-free variant.
#include <iostream>
#include <memory>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/gantt.h"
#include "workload/adversarial.h"

namespace {

using namespace dagsched;

void run_fig1(ProcCount m) {
  const std::size_t chain = 2 * static_cast<std::size_t>(m);
  auto dag = std::make_shared<const Dag>(make_fig1_dag(m, chain, 1.0));
  std::cout << "Figure-1 DAG with m = " << m << ": W = " << dag->total_work()
            << ", L = " << dag->span() << " (note W = m*L)\n";

  for (const auto& [kind, label] :
       {std::pair{SelectorKind::kAdversarial, "adversarial machine"},
        std::pair{SelectorKind::kCriticalPath, "clairvoyant machine"}}) {
    JobSet jobs;
    jobs.add(Job::with_deadline(dag, 0.0, 1e9, 1.0));
    jobs.finalize();
    ListScheduler greedy({ListPolicy::kFcfs, false});
    auto selector = make_selector(kind);
    SimOptions options;
    options.num_procs = m;
    options.record_trace = (m == 4);  // show a Gantt for the small case
    const SimResult result = simulate(jobs, greedy, *selector, options);
    std::cout << "  " << label << ": finished at t = "
              << result.outcomes[0].completion_time << "\n";
    if (options.record_trace) {
      std::cout << to_ascii_gantt(result.trace, m);
    }
  }
  const double ratio = 2.0 - 1.0 / static_cast<double>(m);
  std::cout << "  ratio = " << ratio << " = 2 - 1/m -> any semi-non-"
            << "clairvoyant scheduler needs that much speed (Theorem 1)\n\n";
}

void run_trap() {
  const ProcCount m = 16;
  const std::size_t waves = 16;
  const JobSet trap = make_preemption_trap(m, 0.5, waves);
  std::cout << "Preemption trap: " << waves << " waves of ever-denser jobs, "
            << "each arriving halfway through the previous.\n";

  for (const bool admission : {true, false}) {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5),
                                 .enforce_admission = admission});
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = m;
    const SimResult result = simulate(trap, scheduler, *selector, options);
    std::cout << "  condition (2) " << (admission ? "ON " : "OFF")
              << ": completed " << result.jobs_completed << "/" << waves
              << " jobs, profit " << result.total_profit << "\n";
  }
  std::cout << "  With admission, S *rejects* each incoming wave while one "
               "runs (their shared\n  density window would exceed b*m), so "
               "alternating waves finish. Without it,\n  every wave is "
               "preempted by the next denser one and misses its deadline.\n";
}

}  // namespace

int main() {
  std::cout << "== Part 1: Theorem 1 lower bound ==\n";
  for (const ProcCount m : {2u, 4u, 16u}) run_fig1(m);

  std::cout << "== Part 2: what admission condition (2) is for ==\n";
  run_trap();
  return 0;
}

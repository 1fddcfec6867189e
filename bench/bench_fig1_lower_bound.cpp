// E1 -- Theorem 1 / Figure 1.
//
// Paper claim: on the Figure-1 DAG (a chain of span L next to an independent
// parallel block, total work W = m*L), any semi-non-clairvoyant scheduler
// can be forced to take (W-L)/m + L = (2 - 1/m) L, while a clairvoyant
// scheduler finishes in W/m = L.  Hence speed augmentation 2 - 1/m is
// necessary for O(1)-competitiveness.
//
// This binary measures, for each m:
//   * the adversarial-execution makespan (block-first node selection),
//   * the clairvoyant makespan (critical-path-first selection),
//   * their ratio (should be exactly 2 - 1/m),
//   * the minimum speed (found by bisection) at which the adversarial
//     execution still meets a deadline of L (should also be 2 - 1/m).
#include <memory>

#include "baselines/list_scheduler.h"
#include "bench_util.h"
#include "dag/generators.h"
#include "sim/event_engine.h"

namespace {

using namespace dagsched;

double makespan(const std::shared_ptr<const Dag>& dag, ProcCount m,
                double speed, SelectorKind selector) {
  JobSet jobs;
  jobs.add(Job::with_deadline(dag, 0.0, 1e9, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false});
  auto sel = make_selector(selector);
  SimOptions options;
  options.num_procs = m;
  options.speed = speed;
  const SimResult result = simulate(jobs, scheduler, *sel, options);
  return result.outcomes[0].completion_time;
}

/// Smallest speed for which the adversarial execution meets deadline L.
double threshold_speed(const std::shared_ptr<const Dag>& dag, ProcCount m,
                       double deadline) {
  double lo = 1.0, hi = 3.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double time = makespan(dag, m, mid, SelectorKind::kAdversarial);
    if (time <= deadline + 1e-9) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using dagsched::bench::print_header;
  print_header("E1: Theorem 1 / Figure 1 lower bound",
               "Claim: adversarial/clairvoyant makespan ratio = 2 - 1/m; "
               "speed threshold for deadline L is 2 - 1/m.");

  dagsched::TextTable table({"m", "adversarial", "clairvoyant(=L)", "ratio",
                             "2-1/m", "speed*", "speed*-(2-1/m)"});
  for (const dagsched::ProcCount m : {2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
    const std::size_t chain = 2 * static_cast<std::size_t>(m);
    auto dag = std::make_shared<const dagsched::Dag>(
        dagsched::make_fig1_dag(m, chain, 1.0));
    const double L = dag->span();
    const double bad = makespan(dag, m, 1.0, dagsched::SelectorKind::kAdversarial);
    const double good =
        makespan(dag, m, 1.0, dagsched::SelectorKind::kCriticalPath);
    const double target = 2.0 - 1.0 / static_cast<double>(m);
    const double speed_star = threshold_speed(dag, m, L);
    table.add_row({dagsched::TextTable::num(static_cast<long long>(m)),
                   dagsched::TextTable::num(bad),
                   dagsched::TextTable::num(good),
                   dagsched::TextTable::num(bad / good, 6),
                   dagsched::TextTable::num(target, 6),
                   dagsched::TextTable::num(speed_star, 6),
                   dagsched::TextTable::num(speed_star - target, 3)});
  }
  csv.emit("e1_fig1", table);
  std::cout << "\nShape check: ratio and speed* should both track 2 - 1/m.\n";
  return 0;
}

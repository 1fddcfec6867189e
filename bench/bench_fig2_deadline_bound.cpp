// E2 -- Figure 2.
//
// Paper claim: for the chain-then-block DAG with node size eps, even a fully
// clairvoyant scheduler needs (L - eps) + (W - L + eps)/m, which approaches
// (W - L)/m + L as eps -> 0.  This justifies Theorem 2's deadline assumption
// D >= (1+eps)((W-L)/m + L): below (W-L)/m + L, deadlines can be inherently
// unmeetable without clairvoyance about the DAG's future shape.
#include <memory>

#include "baselines/list_scheduler.h"
#include "bench_util.h"
#include "dag/generators.h"
#include "sim/kernel/engine_factory.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  bench::print_header(
      "E2: Figure 2 clairvoyant deadline bound",
      "Claim: clairvoyant makespan -> (W-L)/m + L as node size -> 0.");

  const ProcCount m = 4;
  const Work W = 64.0, L = 8.0;

  TextTable table({"node_size", "nodes", "makespan", "(W-L)/m+L", "gap",
                   "paper_prediction"});
  for (const double g : {2.0, 1.0, 0.5, 0.25, 0.125, 0.0625}) {
    const auto chain_nodes = static_cast<std::size_t>(L / g) - 1;
    // Round the block to a multiple of m so no wave is ragged; the measured
    // makespan then matches the paper's (L-eps) + (W-L+eps)/m exactly.
    auto block_nodes = static_cast<std::size_t>(W / g) - chain_nodes;
    block_nodes -= block_nodes % m;
    auto dag = std::make_shared<const Dag>(
        make_fig2_dag(chain_nodes, block_nodes, g));

    JobSet jobs;
    jobs.add(Job::with_deadline(dag, 0.0, 1e9, 1.0));
    jobs.finalize();
    ListScheduler scheduler({ListPolicy::kFcfs, false});
    auto sel = make_selector(SelectorKind::kCriticalPath);
    SimOptions options;
    options.num_procs = m;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    const double makespan = result.outcomes[0].completion_time;
    // Use the DAG's actual totals (block rounding shifts W slightly).
    const Work w_actual = dag->total_work();
    const Work l_actual = dag->span();
    const double target =
        (w_actual - l_actual) / static_cast<double>(m) + l_actual;
    // Paper's exact expression: (L - g) + (W - L + g)/m.
    const double predicted =
        (l_actual - g) + (w_actual - l_actual + g) / static_cast<double>(m);
    table.add_row({TextTable::num(g),
                   TextTable::num(static_cast<long long>(dag->num_nodes())),
                   TextTable::num(makespan, 6), TextTable::num(target, 6),
                   TextTable::num(target - makespan, 3),
                   TextTable::num(predicted, 6)});
  }
  csv.emit("e2_fig2", table);
  std::cout << "\nShape check: gap shrinks to 0 as node_size -> 0; makespan "
               "matches the paper's (L-eps) + (W-L+eps)/m exactly.\n";
  return 0;
}

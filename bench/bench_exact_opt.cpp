// E13 -- True competitive ratios on chain workloads.
//
// For sequential jobs (chains: span == work) the clairvoyant optimum is
// exactly computable (Horn feasibility via max-flow + branch and bound,
// opt/exact.h).  On these instances the reported OPT/ALG is the *true*
// competitive ratio -- no LP slack -- answering how loose the E3 numbers
// are, and also calibrating the LP bound itself (LP/exact gap).
#include "bench_util.h"
#include "dag/generators.h"
#include "opt/exact.h"
#include "opt/upper_bound.h"
#include "util/stats.h"

namespace {

using namespace dagsched;

JobSet chain_workload(Rng& rng, ProcCount m, double load, double eps,
                      std::size_t max_jobs) {
  JobSet jobs;
  const double mean_work = 5.0;
  const double rate = load * static_cast<double>(m) / mean_work;
  Time t = 0.0;
  while (jobs.size() < max_jobs) {
    t += rng.exponential(rate);
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 8));
    auto dag = std::make_shared<const Dag>(make_chain(nodes, 1.0));
    // Chains have (W-L)/m + L = L: the Theorem-2 slack is (1+eps) L.
    const Time deadline = (1.0 + eps) * dag->span();
    jobs.add(Job::with_deadline(std::move(dag), t, deadline,
                                rng.uniform(0.5, 2.0)));
  }
  jobs.finalize();
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched::bench;
  print_header("E13: exact competitive ratios (chain jobs)",
               "OPT computed exactly (max-flow feasibility + B&B): true "
               "ratios, plus calibration of the LP bound.");

  const dagsched::ProcCount m = 4;
  dagsched::TextTable table({"eps", "load", "S_profit", "exact_OPT",
                             "true_ratio", "LP/exact", "greedyLB/exact"});
  for (const double eps : {0.25, 0.5, 1.0}) {
    for (const double load : {0.8, 1.5}) {
      dagsched::RunningStats ratio, lp_gap, lb_gap, s_profit, opt_value;
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        dagsched::Rng rng(900 + seed);
        const dagsched::JobSet jobs = chain_workload(rng, m, load, eps, 18);
        const auto sequential = dagsched::to_sequential(jobs);
        if (!sequential) continue;
        const dagsched::ExactOptResult exact =
            dagsched::exact_opt_sequential(*sequential, m);
        if (!exact.proven_optimal || exact.value <= 0.0) continue;

        auto scheduler = named("s", eps)();
        dagsched::RunConfig run;
        run.m = m;
        const dagsched::RunMetrics metrics =
            dagsched::run_workload(jobs, *scheduler, run);
        const dagsched::OptBound lp =
            dagsched::compute_opt_upper_bound(jobs, m);
        if (metrics.profit > 0.0) ratio.add(exact.value / metrics.profit);
        lp_gap.add(lp.value() / exact.value);
        lb_gap.add(dagsched::offline_greedy_lower_bound(jobs, m) /
                   exact.value);
        s_profit.add(metrics.profit);
        opt_value.add(exact.value);
      }
      table.add_row({dagsched::TextTable::num(eps),
                     dagsched::TextTable::num(load),
                     dagsched::TextTable::num(s_profit.mean(), 4),
                     dagsched::TextTable::num(opt_value.mean(), 4),
                     dagsched::TextTable::num(ratio.mean(), 3),
                     dagsched::TextTable::num(lp_gap.mean(), 3),
                     dagsched::TextTable::num(lb_gap.mean(), 3)});
    }
  }
  csv.emit("e13_exact", table);
  std::cout << "\nShape check: true_ratio bounded and decreasing in eps; "
               "LP/exact quantifies how pessimistic the E3-style upper "
               "bounds are.\n";
  return 0;
}

// Cloud batch analytics with decaying value: the Section-5 general-profit
// problem.  Report-generation jobs (series-parallel query plans) are worth
// full price if delivered within an SLO window (the plateau x*) and then
// lose value linearly or exponentially -- nobody pays full price for a
// stale report.
//
// Runs the Section-5 slot-assigning scheduler on the discrete engine and
// compares it with the Section-3 reduction (treat the plateau as a hard
// deadline) and EDF.
#include <cmath>
#include <iostream>
#include <memory>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "sim/slot_engine.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace dagsched;

JobSet make_batch(Rng& rng, ProcCount m, double load, Time horizon) {
  JobSet jobs;
  const double rate = load * static_cast<double>(m) / 24.0;
  Time t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= horizon) break;
    // Query plan: random series-parallel DAG with unit-work operators
    // (slot-friendly, as the discrete model expects).
    SeriesParallelParams params;
    params.max_depth = 3;
    params.leaf_work = WorkDist::constant(1.0);
    params.sync_work = 1.0;
    auto dag = std::make_shared<const Dag>(make_series_parallel(rng, params));

    // SLO plateau: 1.6x the greedy bound, then decay.
    const Time plateau = std::ceil(
        1.6 * ((dag->total_work() - dag->span()) / static_cast<double>(m) +
               dag->span()));
    const Profit price = dag->total_work() * rng.uniform(0.8, 1.6);
    ProfitFn fn = rng.bernoulli(0.5)
                      ? ProfitFn::plateau_linear(price, plateau, 3.0 * plateau)
                      : ProfitFn::plateau_exponential(price, plateau,
                                                      1.0 / plateau);
    jobs.add(Job(std::move(dag), std::floor(t), std::move(fn)));
  }
  jobs.finalize();
  return jobs;
}

double run(const JobSet& jobs, SchedulerBase& scheduler, ProcCount m) {
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  SlotEngine engine(jobs, scheduler, *selector, options);
  return engine.run().total_profit;
}

}  // namespace

int main() {
  const ProcCount m = 16;
  std::cout << "Cloud batch reports with decaying value on " << m
            << " cores\n(full price within the SLO plateau, decay after)\n\n";

  dagsched::TextTable table({"load", "jobs", "S5(slots)", "S3(plateau=DL)",
                             "EDF", "S5/S3", "max_price"});
  for (const double load : {0.5, 0.9, 1.4}) {
    dagsched::Rng rng(77);
    const dagsched::JobSet jobs = make_batch(rng, m, load, 300.0);

    dagsched::ProfitScheduler s5(
        {.params = dagsched::Params::from_epsilon(0.6)});
    dagsched::DeadlineScheduler s3(
        {.params = dagsched::Params::from_epsilon(0.6)});
    dagsched::ListScheduler edf({dagsched::ListPolicy::kEdf, false});

    const double p5 = run(jobs, s5, m);
    const double p3 = run(jobs, s3, m);
    const double pe = run(jobs, edf, m);
    table.add_row({dagsched::TextTable::num(load),
                   dagsched::TextTable::num(
                       static_cast<long long>(jobs.size())),
                   dagsched::TextTable::num(p5, 5),
                   dagsched::TextTable::num(p3, 5),
                   dagsched::TextTable::num(pe, 5),
                   dagsched::TextTable::num(p5 / p3, 3),
                   dagsched::TextTable::num(jobs.total_peak_profit(), 5)});
  }
  table.print(std::cout);
  std::cout
      << "\nS5 can schedule jobs past their plateau and harvest decayed "
         "value that the\nhard-deadline reduction (S3) forfeits -- but it "
         "also pins every job to a fixed\nset of slots chosen at arrival, "
         "which costs throughput when the machine has\nidle capacity.  "
         "Which effect wins is workload-dependent; S5's selling point is\n"
         "its worst-case guarantee for *arbitrary* decay shapes "
         "(Theorem 3).\n";
  return 0;
}

// E7 -- Baseline shoot-out.
//
// The paper motivates density-window admission by the failure modes of
// classic policies: EDF/LLF ignore profit entirely, HDF ignores deadlines,
// federated commits the whole machine to early arrivals, FCFS ignores both.
// Under overload with heavy-tailed profits, S should win or tie; at low
// load the work-conserving baselines may edge ahead (S idles b*m slack).
#include "bench_util.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E7: baseline shoot-out (profit fraction earned)",
               "Claim: S dominates under overload with heavy-tailed "
               "profits; work-conserving baselines are fine underloaded. "
               "equi is fully non-clairvoyant.");

  const double eps = 0.5;
  TextTable table({"load", "slack", "S", "edf", "llf", "hdf", "fcfs",
                   "federated", "equi"});
  for (const double load : {0.5, 1.0, 2.0, 3.0}) {
    for (const auto& [lo, hi] : {std::pair{0.3, 0.8}, std::pair{0.8, 2.0}}) {
      TrialConfig config;
      config.workload = scenario_shootout(load, 8, lo, hi);
      config.workload.horizon = 150.0;
      config.run.m = 8;
      config.trials = 5;
      config.base_seed = 2718;

      auto frac = [&config](const SchedulerFactory& factory) {
        return TextTable::num(run_trials(config, factory).fraction.mean(), 3);
      };
      table.add_row(
          {TextTable::num(load),
           TextTable::num(lo, 2) + "-" + TextTable::num(hi, 2),
           frac(named("s", eps)), frac(named("edf")), frac(named("llf")),
           frac(named("hdf")), frac(named("fcfs")), frac(named("federated")),
           frac(named("equi"))});
    }
  }
  csv.emit("e7_baselines", table);
  std::cout << "\nShape check: crossover -- baselines competitive at load "
               "0.5, S (and HDF) ahead of deadline-only policies at 2-3x "
               "overload.\n";
  return 0;
}

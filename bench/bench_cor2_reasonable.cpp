// E5 -- Corollary 2.
//
// Paper claim: for "reasonable" jobs (D >= (W-L)/m + L), S at speed 1+eps
// is O(1/eps^6)-competitive.  Empirically: unlike the tight-deadline E4
// workload, a small speed boost already makes S competitive -- the ramp
// happens within [1, 1.5] instead of around 2.
#include "bench_util.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E5: Corollary 2 reasonable jobs, small augmentation",
               "Claim: with D >= (W-L)/m + L, speed 1+eps suffices (ramp "
               "within [1, 1.5] rather than near 2).");

  const double eps = 0.5;
  TextTable table({"speed", "S_profit_frac", "S_vs_UB(1-speed)",
                   "completed%"});
  for (const double speed : {1.0, 1.1, 1.2, 1.3, 1.4, 1.5}) {
    TrialConfig config;
    config.workload = scenario_reasonable(0.7, 8);
    config.workload.horizon = 150.0;
    config.run.m = 8;
    config.run.speed = speed;
    config.trials = 4;
    config.base_seed = 7;
    config.with_opt = true;
    const TrialStats s = run_trials(config, named("s", eps));
    table.add_row({TextTable::num(speed),
                   TextTable::num(s.fraction.mean(), 3),
                   TextTable::num(s.ratio_ub.mean(), 3),
                   TextTable::num(100.0 * s.completed_frac.mean(), 3)});
  }
  csv.emit("e5_reasonable", table);
  std::cout << "\nShape check: near-full profit fraction already by "
               "speed ~1.3 (contrast with E4's ramp near 2).\n";
  return 0;
}

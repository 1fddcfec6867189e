// E4 -- Corollary 1.
//
// Paper claim: with NO deadline assumption (deadlines as tight as
// max(L, W/m)), S run at speed 2+eps is O(1/eps^6)-competitive against a
// 1-speed OPT.  Empirically: at speed 1, S (or any semi-non-clairvoyant
// policy) completes almost nothing of a tight-deadline workload; as speed
// crosses ~2 the profit fraction jumps and the ratio versus the 1-speed OPT
// upper bound collapses to a small constant.
#include "bench_util.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E4: Corollary 1 speed-augmentation sweep",
               "Claim: tight deadlines need ~2x speed; ratio vs 1-speed OPT "
               "collapses once speed >= 2 + eps.");

  const double eps = 0.5;
  TextTable table({"speed", "S_profit_frac", "S_vs_UB(1-speed)", "edf_frac",
                   "completed%"});
  for (const double speed :
       {1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0}) {
    TrialConfig config;
    config.workload = scenario_tight(0.7, 8);
    config.workload.horizon = 150.0;
    config.run.m = 8;
    config.run.speed = speed;
    config.trials = 4;
    config.base_seed = 99;
    config.with_opt = true;  // OPT bracket stays at speed 1
    const TrialStats s = run_trials(config, named("s", eps));
    config.with_opt = false;
    const TrialStats edf = run_trials(config, named("edf"));
    table.add_row({TextTable::num(speed),
                   TextTable::num(s.fraction.mean(), 3),
                   TextTable::num(s.ratio_ub.mean(), 3),
                   TextTable::num(edf.fraction.mean(), 3),
                   TextTable::num(100.0 * s.completed_frac.mean(), 3)});
  }
  csv.emit("e4_speed_sweep", table);
  std::cout << "\nShape check: S_profit_frac ~ 0 at speed 1, ramps across "
               "[1.5, 2.5], flat O(1) ratio beyond 2 + eps.\n";
  return 0;
}

// E3 -- Theorem 2.
//
// Paper claim: when every job's deadline satisfies
// D >= (1+eps)((W-L)/m + L), scheduler S is O(1/eps^6)-competitive for
// throughput.  Empirically: S's profit stays a bounded fraction of the OPT
// upper bound across loads (no degradation as the system saturates), and
// the ratio worsens as eps -> 0 while improving as eps grows -- the shape
// of a 1/poly(eps) bound.  The ratio shown is an upper bound on the true
// competitive ratio (OPT is bracketed by an LP relaxation from above).
#include "bench_util.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E3: Theorem 2 deadline-slack sweep",
               "Claim: with (1+eps) deadline slack, S earns a constant "
               "fraction of OPT; the constant degrades as eps -> 0.");

  TextTable table({"eps", "load", "S_profit_frac", "S_vs_UB", "S_vs_witness",
                   "edf_frac", "completed%"});
  for (const double eps : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    for (const double load : {0.5, 1.0, 1.5}) {
      TrialConfig config;
      config.workload = scenario_thm2(eps, load, 8);
      config.workload.horizon = 150.0;
      config.run.m = 8;
      config.trials = 4;
      config.base_seed = 1234;
      config.with_opt = true;
      const TrialStats s = run_trials(config, named("s", eps));
      config.with_opt = false;
      const TrialStats edf = run_trials(config, named("edf"));
      table.add_row({TextTable::num(eps), TextTable::num(load),
                     TextTable::num(s.fraction.mean(), 3),
                     TextTable::num(s.ratio_ub.mean(), 3),
                     TextTable::num(s.ratio_wit.mean(), 3),
                     TextTable::num(edf.fraction.mean(), 3),
                     TextTable::num(100.0 * s.completed_frac.mean(), 3)});
    }
  }
  csv.emit("e3_eps_sweep", table);
  std::cout << "\nShape check: S_vs_UB bounded in load per eps; decreasing "
               "in eps (larger slack -> closer to OPT).\n";
  return 0;
}

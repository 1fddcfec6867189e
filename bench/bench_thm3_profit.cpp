// E6 -- Theorem 3 / Corollary 3 (general profit functions).
//
// Paper claim: when p_i(t) is flat up to x* >= (1+eps)((W-L)/m + L), the
// Section-5 slot-assigning scheduler is O(1/eps^6)-competitive for general
// profit.  Empirically: on plateau+decay profit functions the profit
// scheduler earns a bounded fraction of the OPT upper bound, and beats both
// the step-function reduction (Section-3 S, which forfeits all post-plateau
// profit) and EDF under load.
#include "bench_util.h"
#include "core/profit_scheduler.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E6: Theorem 3 general profit functions",
               "Claim: the slot-assigning scheduler stays within a constant "
               "of OPT for plateau+decay profits.");

  const double eps = 0.5;
  const SchedulerFactory s5_wc = [] {
    return std::make_unique<ProfitScheduler>(ProfitSchedulerOptions{
        .params = Params::from_epsilon(0.5), .work_conserving = true});
  };
  TextTable table({"shape", "load", "S5_frac", "S5wc_frac", "S5_vs_UB",
                   "S3_frac", "edf_frac"});
  struct ShapeCase {
    ProfitPolicy::Shape shape;
    const char* label;
  };
  for (const ShapeCase sc :
       {ShapeCase{ProfitPolicy::Shape::kPlateauLinear, "plateau+linear"},
        ShapeCase{ProfitPolicy::Shape::kPlateauExp, "plateau+exp"}}) {
    for (const double load : {0.4, 0.8, 1.2}) {
      TrialConfig config;
      config.workload = scenario_profit(eps, load, 8, sc.shape);
      config.workload.horizon = 120.0;
      config.run.m = 8;
      config.run.engine = EngineKind::kSlot;
      config.trials = 3;
      config.base_seed = 31;
      config.with_opt = true;
      const TrialStats s5 = run_trials(config, named("profit", eps));
      config.with_opt = false;
      const TrialStats s5wc = run_trials(config, s5_wc);
      const TrialStats s3 = run_trials(config, named("s", eps));
      const TrialStats edf = run_trials(config, named("edf"));
      table.add_row({sc.label, TextTable::num(load),
                     TextTable::num(s5.fraction.mean(), 3),
                     TextTable::num(s5wc.fraction.mean(), 3),
                     TextTable::num(s5.ratio_ub.mean(), 3),
                     TextTable::num(s3.fraction.mean(), 3),
                     TextTable::num(edf.fraction.mean(), 3)});
    }
  }
  csv.emit("e6_profit", table);
  std::cout << "\nShape check: S5_vs_UB bounded across load; S5 >= S3 "
               "(slot scheduler can harvest post-plateau profit).\n";
  return 0;
}

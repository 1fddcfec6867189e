// E14 -- Preemption behaviour (the paper's future-work axis).
//
// The conclusion asks for schedulers that are "work-conserving and require
// fewer preemptions".  This bench quantifies where today's policies sit:
// node/job preemption counts per completed job, across the scheduler zoo,
// including the fully non-clairvoyant EQUI (the conclusion's other open
// question -- what does knowing (W, L) buy?).
#include "baselines/equi.h"
#include "bench_util.h"
#include "sim/event_engine.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E14: preemptions and the non-clairvoyant probe",
               "Counts per completed job; EQUI is fully non-clairvoyant "
               "(knows neither W nor L).");

  const double eps = 0.5;
  struct Entry {
    const char* label;
    SchedulerFactory factory;
  };
  const Entry entries[] = {
      {"S(paper)", named("s", eps)},
      {"S(work-conserving)",
       paper_s_options({.params = Params::from_epsilon(eps),
                        .work_conserving = true})},
      {"edf", named("edf")},
      {"llf", named("llf")},
      {"hdf", named("hdf")},
      {"federated", named("federated")},
      {"equi", [] { return std::make_unique<EquiScheduler>(); }},
      {"equi(profit)", [] {
         return std::make_unique<EquiScheduler>(
             EquiOptions{.weight_by_profit = true});
       }},
  };

  for (const double load : {0.8, 2.0}) {
    std::cout << "load = " << load << ":\n";
    TextTable table({"scheduler", "profit_frac", "completed%",
                     "node_preempt/job", "job_preempt/job"});
    for (const Entry& entry : entries) {
      RunningStats frac, completed, node_rate, job_rate;
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(4000 + seed);
        WorkloadConfig config = scenario_shootout(load, 8, 0.4, 1.2);
        config.horizon = 150.0;
        const JobSet jobs = generate_workload(rng, config);
        if (jobs.empty()) continue;
        auto scheduler = entry.factory();
        auto selector = make_selector(SelectorKind::kFifo);
        SimOptions options;
        options.num_procs = 8;
        const SimResult result =
            simulate(jobs, *scheduler, *selector, options);
        frac.add(profit_fraction(result, jobs));
        completed.add(100.0 * static_cast<double>(result.jobs_completed) /
                      static_cast<double>(jobs.size()));
        const double done =
            std::max<double>(1.0, static_cast<double>(result.jobs_completed));
        node_rate.add(static_cast<double>(result.node_preemptions) / done);
        job_rate.add(static_cast<double>(result.job_preemptions) / done);
      }
      table.add_row({entry.label, TextTable::num(frac.mean(), 3),
                     TextTable::num(completed.mean(), 3),
                     TextTable::num(node_rate.mean(), 3),
                     TextTable::num(job_rate.mean(), 3)});
    }
    csv.emit("e14_preempt_load" + std::to_string(static_cast<int>(load * 10)), table);
    std::cout << "\n";
  }
  std::cout << "Shape check: S preempts rarely (fixed n_i, admission-gated); "
               "LLF/EQUI thrash; the S-vs-EQUI profit gap is the empirical "
               "price of full non-clairvoyance.\n";
  return 0;
}

// Realtime video analytics: the workload the paper's introduction
// motivates -- parallelizable jobs (per-segment encode/analyze pipelines)
// arriving online, each worth revenue only if finished by a latency
// deadline.
//
// Streams submit a fork-join pipeline per video segment:
//   demux -> [decode tile 1..T] -> analyze -> [encode tile 1..T] -> mux
// Premium streams pay more and tolerate less latency.  The example runs the
// paper's scheduler S against EDF under increasing overload and prints the
// revenue each policy retains.
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "dag/builder.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace dagsched;

/// One video segment: demux -> T decode tiles -> analyze -> T encode tiles
/// -> mux.  Tiles are the parallelizable part.
std::shared_ptr<const Dag> make_segment_pipeline(Rng& rng,
                                                 std::size_t tiles) {
  DagBuilder b;
  const NodeId demux = b.add_node(0.5);
  const NodeId analyze = b.add_node(1.0);
  const NodeId mux = b.add_node(0.5);
  for (std::size_t i = 0; i < tiles; ++i) {
    const NodeId decode = b.add_node(rng.uniform(1.0, 2.0));
    const NodeId encode = b.add_node(rng.uniform(1.5, 3.0));
    b.add_edge(demux, decode);
    b.add_edge(decode, analyze);
    b.add_edge(analyze, encode);
    b.add_edge(encode, mux);
  }
  return std::make_shared<const Dag>(std::move(b).build());
}

JobSet make_stream_mix(Rng& rng, ProcCount m, double load, Time horizon) {
  JobSet jobs;
  // Offered load controls the arrival rate; segments average ~28 work.
  const double rate = load * static_cast<double>(m) / 28.0;
  Time t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= horizon) break;
    const bool premium = rng.bernoulli(0.25);
    auto dag = make_segment_pipeline(rng, premium ? 12 : 8);
    // Premium: 5x revenue, 1.5x the minimum latency; standard: 2.5x slack.
    const double slack = premium ? 1.5 : 2.5;
    const Time deadline =
        slack * ((dag->total_work() - dag->span()) / static_cast<double>(m) +
                 dag->span());
    const Profit revenue = (premium ? 5.0 : 1.0) * dag->total_work();
    jobs.add(Job::with_deadline(std::move(dag), t, deadline, revenue));
  }
  jobs.finalize();
  return jobs;
}

double revenue(const JobSet& jobs, SchedulerBase& scheduler, ProcCount m) {
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  return run_simulation(EngineKind::kEvent, jobs, scheduler, *selector,
                        options).total_profit;
}

}  // namespace

int main() {
  const ProcCount m = 16;
  std::cout << "Realtime video analytics on " << m << " cores\n"
            << "(premium segments: 5x revenue, tight latency)\n\n";

  dagsched::TextTable table(
      {"load", "segments", "revenue@S", "revenue@EDF", "S/EDF",
       "max_revenue"});
  for (const double load : {0.6, 1.0, 1.6, 2.4}) {
    dagsched::Rng rng(2025);
    const dagsched::JobSet jobs = make_stream_mix(rng, m, load, 400.0);

    dagsched::DeadlineScheduler paper_s(
        {.params = dagsched::Params::from_epsilon(0.5)});
    dagsched::ListScheduler edf(
        {dagsched::ListPolicy::kEdf, false});
    const double s_rev = revenue(jobs, paper_s, m);
    const double edf_rev = revenue(jobs, edf, m);
    table.add_row({dagsched::TextTable::num(load),
                   dagsched::TextTable::num(
                       static_cast<long long>(jobs.size())),
                   dagsched::TextTable::num(s_rev, 5),
                   dagsched::TextTable::num(edf_rev, 5),
                   dagsched::TextTable::num(s_rev / edf_rev, 3),
                   dagsched::TextTable::num(jobs.total_peak_profit(), 5)});
  }
  table.print(std::cout);
  std::cout << "\nUnder overload, S's profit-density admission protects the "
               "premium segments\nthat deadline-only EDF sacrifices.\n";
  return 0;
}

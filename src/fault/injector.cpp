#include "fault/injector.h"

#include <algorithm>
#include <utility>

namespace dagsched {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  transitions_.reserve(plan_.down_intervals().size() * 2);
  for (const DownInterval& iv : plan_.down_intervals()) {
    transitions_.push_back({iv.begin, iv.proc, false});
    transitions_.push_back({iv.end, iv.proc, true});
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const ProcTransition& a, const ProcTransition& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.up != b.up) return a.up;  // recoveries first
              return a.proc < b.proc;
            });
}

std::vector<Work> FaultInjector::scaled_works(JobId job,
                                              const Dag& dag) const {
  if (!scales_work()) return {};
  std::vector<Work> works(dag.num_nodes());
  bool any_scaled = false;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    const double multiplier = plan_.work_multiplier(job, v);
    works[v] = dag.node_work(v) * multiplier;
    if (multiplier != 1.0) any_scaled = true;
  }
  if (!any_scaled) return {};
  return works;
}

std::optional<FaultInjector> make_fault_injector(const std::string& spec,
                                                 ProcCount m,
                                                 std::string& error) {
  const std::optional<FaultPlanConfig> config = parse_fault_spec(spec, &error);
  if (!config) return std::nullopt;
  if (config->min_procs > m) {
    error = "min-procs exceeds the machine size m=" + std::to_string(m);
    return std::nullopt;
  }
  return FaultInjector(build_fault_plan(*config, m));
}

}  // namespace dagsched

#include "sim/kernel/engine_factory.h"

#include "sim/kernel/kernel.h"

namespace dagsched {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kEvent: return "event";
    case EngineKind::kSlot: return "slot";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  if (name == "event") return EngineKind::kEvent;
  if (name == "slot") return EngineKind::kSlot;
  return std::nullopt;
}

SimResult run_simulation(EngineKind kind, const JobSet& jobs,
                         SchedulerBase& scheduler, NodeSelector& selector,
                         const SimOptions& options) {
  return SimKernel(jobs, scheduler, selector, options).run(kind);
}

}  // namespace dagsched

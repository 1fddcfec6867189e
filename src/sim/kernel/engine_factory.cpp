#include "sim/kernel/engine_factory.h"

#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/check.h"

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
  switch (kind) {
    case EngineKind::kEvent:
      return EventEngine(jobs, scheduler, selector, options).run();
    case EngineKind::kSlot:
      return SlotEngine(jobs, scheduler, selector, options).run();
  }
  DS_CHECK_MSG(false, "unreachable engine kind");
  return SimResult{};
}

}  // namespace dagsched

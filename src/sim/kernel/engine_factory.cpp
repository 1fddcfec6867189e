#include "sim/kernel/engine_factory.h"

#include <utility>

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
    case EngineKind::kEvent: {
      EngineOptions eo;
      eo.num_procs = options.num_procs;
      eo.speed = options.speed;
      eo.record_trace = options.record_trace;
      eo.max_decisions = options.max_decisions;
      eo.observer = options.observer;
      eo.obs = options.obs;
      eo.faults = options.faults;
      eo.telemetry = options.telemetry;
      eo.checkpoint = options.checkpoint;
      eo.resume = options.resume;
      eo.die_at_decision = options.die_at_decision;
      eo.decide_budget_ns = options.decide_budget_ns;
      eo.overload_shed_max = options.overload_shed_max;
      eo.overload_probe = options.overload_probe;
      EventEngine engine(jobs, scheduler, selector, std::move(eo));
      return engine.run();
    }
    case EngineKind::kSlot: {
      SlotEngineOptions so;
      so.num_procs = options.num_procs;
      so.speed = options.speed;
      so.record_trace = options.record_trace;
      so.max_slots = options.max_slots;
      so.observer = options.observer;
      so.obs = options.obs;
      so.faults = options.faults;
      so.telemetry = options.telemetry;
      so.checkpoint = options.checkpoint;
      so.resume = options.resume;
      so.die_at_decision = options.die_at_decision;
      so.decide_budget_ns = options.decide_budget_ns;
      so.overload_shed_max = options.overload_shed_max;
      so.overload_probe = options.overload_probe;
      SlotEngine engine(jobs, scheduler, selector, std::move(so));
      return engine.run();
    }
  }
  DS_CHECK_MSG(false, "unreachable engine kind");
  return SimResult{};
}

}  // namespace dagsched

// Kernel-backed engine factory: one seam through which callers (the
// experiment runner, the CLI, benchmarks) construct either stepping driver
// without including engine headers or hardcoding an engine type.
//
// Both engines execute the same SimKernel (sim/kernel/kernel.h); the
// EngineKind only selects the time-stepping discipline laid on top of it.
#pragma once

#include <optional>
#include <string_view>

#include "fault/injector.h"
#include "job/job.h"
#include "obs/sink.h"
#include "sim/node_selector.h"
#include "sim/options.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"

namespace dagsched {

enum class EngineKind {
  kEvent,  // continuous event-to-event stepping (EventEngine)
  kSlot,   // discrete unit time slots, the paper's native model (SlotEngine)
};

/// "event" or "slot" -- stable names used by CLI flags and run reports.
const char* engine_kind_name(EngineKind kind);

/// Inverse of engine_kind_name; nullopt on unknown names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// Constructs the requested stepping driver over the shared kernel and runs
/// it to completion.
SimResult run_simulation(EngineKind kind, const JobSet& jobs,
                         SchedulerBase& scheduler, NodeSelector& selector,
                         const SimOptions& options);

}  // namespace dagsched

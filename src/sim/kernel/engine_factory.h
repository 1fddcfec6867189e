// EngineKind and run_simulation(): the one entry point through which callers
// (the experiment runner, the CLI, benchmarks, tests) start a simulation.
//
// Both kinds run the same SimKernel (sim/kernel/kernel.h); the EngineKind
// only selects which of its two private stepping loops lays time over it.
#pragma once

#include <optional>
#include <string_view>

#include "job/job.h"
#include "sim/node_selector.h"
#include "sim/options.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"

namespace dagsched {

enum class EngineKind {
  kEvent,  // continuous event-to-event steps
  kSlot,   // discrete unit time slots, the paper's native model
};

/// "event" or "slot" -- stable names used by CLI flags and run reports.
const char* engine_kind_name(EngineKind kind);

/// Inverse of engine_kind_name; nullopt on unknown names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// SimKernel(jobs, scheduler, selector, options).run(kind): simulates to
/// quiescence and returns per-job outcomes.  Callers that re-run one
/// instance keep a SimKernel instead, so warm capacity is reused.
SimResult run_simulation(EngineKind kind, const JobSet& jobs,
                         SchedulerBase& scheduler, NodeSelector& selector,
                         const SimOptions& options);

}  // namespace dagsched

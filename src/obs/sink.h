// ObsSink: the bundle of observability outputs a run may be wired to.
//
// Engines and schedulers receive a `const ObsSink*` (nullptr = off, the
// default) and null-check before every emission, so an uninstrumented run
// takes exactly the seed code path.  The struct is plain pointers; the
// caller owns the registries and decides which of the two channels are
// active (e.g. `--events` without `--obs` enables the event log only).
// A decision is recorded once, as an event; its counters are derived from
// it (count_event, obs/counters.h).
#pragma once

#include <initializer_list>
#include <string_view>
#include <utility>

#include "obs/counters.h"
#include "obs/event_log.h"
#include "util/types.h"

namespace dagsched {

struct ObsSink {
  MetricRegistry* metrics = nullptr;
  EventLog* events = nullptr;

  bool enabled() const { return metrics != nullptr || events != nullptr; }

  /// Records a decision event: counts it if metrics are attached, appends
  /// it if the log is attached.  Only the log copies `reason` and `detail`,
  /// so a run with just a registry allocates nothing per event.
  void event(Time time, JobId job, ObsEventKind kind,
             std::string_view reason = {},
             std::initializer_list<std::pair<std::string_view, double>>
                 detail = {}) const {
    if (metrics != nullptr) count_event(*metrics, kind, reason);
    if (events != nullptr) events->emit(time, job, kind, reason, detail);
  }
};

}  // namespace dagsched

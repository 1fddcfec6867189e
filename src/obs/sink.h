// ObsSink: the bundle of observability outputs a run may be wired to.
//
// Engines and schedulers receive a `const ObsSink*` (nullptr = off, the
// default) and null-check before every emission, so an uninstrumented run
// takes exactly the seed code path.  The struct is plain pointers; the
// caller owns the registries and decides which of the two channels are
// active (e.g. `--events` without `--obs` enables the event log only).
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/event_log.h"
#include "util/types.h"

namespace dagsched {

struct ObsSink {
  MetricRegistry* metrics = nullptr;
  EventLog* events = nullptr;

  bool enabled() const { return metrics != nullptr || events != nullptr; }

  /// Convenience: bump a named counter if metrics are attached.  Hot paths
  /// should resolve Counter* once instead; this is for event-frequency call
  /// sites (arrivals, admissions) where a map lookup is irrelevant.
  void count(std::string_view name, double delta = 1.0) const {
    if (metrics != nullptr) metrics->counter(name)->add(delta);
  }

  /// Convenience: append a decision event if the log is attached.
  void event(Time time, JobId job, ObsEventKind kind,
             std::string reason = {},
             std::vector<std::pair<std::string, double>> detail = {}) const {
    if (events != nullptr) {
      events->emit(time, job, kind, std::move(reason), std::move(detail));
    }
  }
};

}  // namespace dagsched

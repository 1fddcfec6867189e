// Structured decision event log: an audit trail of every scheduling
// decision a run makes, with the decision-maker's stated reason.
//
// Engines emit lifecycle events (arrival, complete, expire, preempt);
// schedulers emit policy events (admit, defer, drop, schedule) carrying a
// machine-checkable reason slug plus the numeric facts behind the decision
// (density v, requirement n, ...).  For the paper's Section-3 scheduler the
// admit/defer events carry exactly the quantities of admission condition
// (2), so a consumer can replay the density-window test against the log --
// tests/test_obs_events.cpp does precisely that.
//
// Serialization is JSONL (one compact JSON object per line), the format
// production schedulers such as DAGPS use for per-decision telemetry; the
// parser reuses util/json.h so emit -> parse round-trips exactly.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/types.h"

namespace dagsched {

enum class ObsEventKind {
  kArrival,   // engine: job released
  kAdmit,     // scheduler: job entered the served set
  kDefer,     // scheduler: job parked in a waiting queue
  kDrop,      // scheduler: job abandoned (reason says why)
  kSchedule,  // scheduler: job pinned to future slots (Section-5)
  kComplete,  // engine: all nodes of the job finished
  kExpire,    // engine: deadline passed without completion
  kPreempt,   // engine: job lost all processors while unfinished
  // Fault-injection events (src/fault/); job is kInvalidJob for the
  // processor-level ones.
  kProcDown,     // injector: a processor failed
  kProcUp,       // injector: a failed processor recovered
  kNodeRestart,  // engine: in-flight node lost its progress to a failure
  kWorkOverrun,  // engine: node's actual work exceeds its declared work
  kReadmitFail,  // scheduler: job lost admission after a capacity shrink
  kEngineAbort,  // engine/crash hook: run terminated abnormally
  kOverload,     // kernel: decide() latency budget breached / recovered
                 // (reason "overload.breach" or "overload.recovered"; the
                 // jobs shed in response are kDrop events with
                 // `overload.shed.*` slugs)
};

const char* obs_event_kind_name(ObsEventKind kind);
std::optional<ObsEventKind> obs_event_kind_from_name(std::string_view name);

struct DecisionEvent {
  Time time = 0.0;
  JobId job = kInvalidJob;
  ObsEventKind kind = ObsEventKind::kArrival;
  /// Machine-checkable slug ("window-full", "not-delta-good", "stale", ...);
  /// empty for plain lifecycle events.
  std::string reason;
  /// Numeric facts behind the decision, e.g. {{"v", 1.5}, {"n", 2}}.
  std::vector<std::pair<std::string, double>> detail;

  double detail_value(std::string_view key, double fallback = 0.0) const;

  friend bool operator==(const DecisionEvent& lhs, const DecisionEvent& rhs) {
    return lhs.time == rhs.time && lhs.job == rhs.job &&
           lhs.kind == rhs.kind && lhs.reason == rhs.reason &&
           lhs.detail == rhs.detail;
  }
};

/// Writes one event as a compact JSON object followed by '\n', with one
/// out.write per line.  Both EventLog::write_jsonl and the streaming path
/// below go through this, so a streamed log is byte-identical to a
/// write-at-end one.  The bytes are those of a JsonValue object holding
/// t, job, kind, then reason and detail when non-empty; the line is
/// formatted directly, through util/json.h's number and string encoders.
void write_event_jsonl(std::ostream& out, const DecisionEvent& event);

class EventLog {
 public:
  /// Appends an event that owns copies of `reason` and `detail`.
  void emit(Time time, JobId job, ObsEventKind kind,
            std::string_view reason = {},
            std::initializer_list<std::pair<std::string_view, double>>
                detail = {}) {
    DecisionEvent& event = events_.emplace_back();
    event.time = time;
    event.job = job;
    event.kind = kind;
    event.reason = reason;
    event.detail.reserve(detail.size());
    for (const auto& [key, value] : detail) {
      event.detail.emplace_back(key, value);
    }
    if (stream_ != nullptr) write_event_jsonl(*stream_, event);
  }

  /// Streaming mode: every emit() additionally appends its JSONL line to
  /// `out` immediately, so a killed process loses at most the OS-buffered
  /// tail instead of the whole log.  Pass nullptr to detach.  The in-memory
  /// vector is still kept (reports and crash dumps read it).
  void stream_to(std::ostream* out) { stream_ = out; }
  std::ostream* stream() const { return stream_; }

  const std::vector<DecisionEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// One compact JSON object per line:
  ///   {"t":3,"job":17,"kind":"drop","reason":"stale","detail":{"v":1.5}}
  void write_jsonl(std::ostream& out) const;

  /// Parses a JSONL stream produced by write_jsonl.  Returns std::nullopt
  /// (with the position and message in `error` if non-null) on the first
  /// malformed line.
  static std::optional<std::vector<DecisionEvent>> parse_jsonl(
      std::istream& in, JsonlError* error = nullptr);

 private:
  std::vector<DecisionEvent> events_;
  std::ostream* stream_ = nullptr;
};

}  // namespace dagsched

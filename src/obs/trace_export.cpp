#include "obs/trace_export.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "obs/telemetry/telemetry.h"
#include "util/check.h"

namespace dagsched {

namespace {

constexpr int kMachinePid = 1;
constexpr int kJobsPid = 2;

double to_micros(Time t) { return t * kTraceMicrosPerTimeUnit; }

JsonValue metadata_event(const char* name, int pid, int tid,
                         std::string value) {
  JsonValue event = JsonValue::object();
  event.set("name", JsonValue(name));
  event.set("ph", JsonValue("M"));
  event.set("pid", JsonValue(pid));
  event.set("tid", JsonValue(tid));
  JsonValue args = JsonValue::object();
  args.set("name", JsonValue(std::move(value)));
  event.set("args", std::move(args));
  return event;
}

struct TimelineEvent {
  double ts = 0.0;
  int order = 0;  // tie-break so begins precede instants precede ends
  JsonValue json;
};

void push_event(std::vector<TimelineEvent>& out, double ts, int order,
                JsonValue json) {
  out.push_back({ts, order, std::move(json)});
}

/// Complete ("X") slice on a machine processor track.
JsonValue exec_slice(const TraceInterval& interval) {
  JsonValue event = JsonValue::object();
  event.set("name", JsonValue("J" + std::to_string(interval.job) + "/N" +
                              std::to_string(interval.node)));
  event.set("cat", JsonValue("exec"));
  event.set("ph", JsonValue("X"));
  event.set("ts", JsonValue(to_micros(interval.start)));
  event.set("dur", JsonValue(to_micros(interval.end - interval.start)));
  event.set("pid", JsonValue(kMachinePid));
  event.set("tid", JsonValue(static_cast<double>(interval.proc)));
  JsonValue args = JsonValue::object();
  args.set("job", JsonValue(static_cast<double>(interval.job)));
  args.set("node", JsonValue(static_cast<double>(interval.node)));
  event.set("args", std::move(args));
  return event;
}

JsonValue async_event(const char* ph, JobId job, Time t, JsonValue args) {
  JsonValue event = JsonValue::object();
  event.set("name", JsonValue("J" + std::to_string(job)));
  event.set("cat", JsonValue("job"));
  event.set("ph", JsonValue(ph));
  event.set("id", JsonValue(static_cast<double>(job)));
  event.set("ts", JsonValue(to_micros(t)));
  event.set("pid", JsonValue(kJobsPid));
  event.set("tid", JsonValue(static_cast<double>(job)));
  if (!args.is_null()) event.set("args", std::move(args));
  return event;
}

/// Instant event; scope "t" (thread) for job/processor-attributed events,
/// "g" (global) for engine-level ones.
JsonValue instant_event(std::string name, const char* cat, const char* scope,
                        int pid, double tid, Time t, JsonValue args) {
  JsonValue event = JsonValue::object();
  event.set("name", JsonValue(std::move(name)));
  event.set("cat", JsonValue(cat));
  event.set("ph", JsonValue("i"));
  event.set("s", JsonValue(scope));
  event.set("ts", JsonValue(to_micros(t)));
  event.set("pid", JsonValue(pid));
  event.set("tid", JsonValue(tid));
  if (!args.is_null()) event.set("args", std::move(args));
  return event;
}

JsonValue detail_args(const DecisionEvent& event) {
  if (event.detail.empty()) return JsonValue();
  JsonValue args = JsonValue::object();
  for (const auto& [key, value] : event.detail) {
    args.set(key, JsonValue(value));
  }
  return args;
}

/// End-of-life per job: completion if completed, first expiry event if the
/// log recorded one, else the end of the run (clamped to the arrival so a
/// job released after an aborted run gets an empty span, not a negative
/// one).
std::vector<Time> job_track_ends(const TraceExportInputs& inputs) {
  const JobSet& jobs = *inputs.jobs;
  const SimResult& result = *inputs.result;
  std::vector<Time> ends(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ends[i] = result.outcomes[i].completed
                  ? result.outcomes[i].completion_time
                  : std::max(jobs[i].release(), result.end_time);
  }
  if (inputs.events != nullptr) {
    for (const DecisionEvent& event : inputs.events->events()) {
      if (event.kind == ObsEventKind::kExpire && event.job < jobs.size() &&
          !result.outcomes[event.job].completed) {
        ends[event.job] = std::min(ends[event.job], event.time);
      }
    }
  }
  return ends;
}

}  // namespace

JsonValue export_chrome_trace(const TraceExportInputs& inputs) {
  DS_CHECK_MSG(inputs.jobs != nullptr && inputs.result != nullptr,
               "trace export requires jobs and result");
  const JobSet& jobs = *inputs.jobs;
  const SimResult& result = *inputs.result;

  std::vector<TimelineEvent> timeline;
  timeline.reserve(result.trace.size() + 2 * jobs.size() +
                   (inputs.events != nullptr ? inputs.events->size() : 0));

  // Machine tracks: coalesce abutting intervals of the same node on the
  // same processor (the slot engine records one interval per slot) so the
  // exported slice count stays proportional to the schedule's structure.
  std::vector<TraceInterval> intervals(result.trace.intervals());
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const TraceInterval& a, const TraceInterval& b) {
                     if (a.proc != b.proc) return a.proc < b.proc;
                     return a.start < b.start;
                   });
  std::size_t exec_slices = 0;
  for (std::size_t i = 0; i < intervals.size();) {
    TraceInterval merged = intervals[i];
    std::size_t j = i + 1;
    while (j < intervals.size() && intervals[j].proc == merged.proc &&
           intervals[j].job == merged.job &&
           intervals[j].node == merged.node &&
           intervals[j].start <= merged.end + 1e-9) {
      merged.end = std::max(merged.end, intervals[j].end);
      ++j;
    }
    push_event(timeline, to_micros(merged.start), 1, exec_slice(merged));
    ++exec_slices;
    i = j;
  }

  // Job tracks: async begin at arrival, async end at complete/expire/run
  // end.
  const std::vector<Time> ends = job_track_ends(inputs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobId id = static_cast<JobId>(i);
    JsonValue begin_args = JsonValue::object();
    begin_args.set("work", JsonValue(jobs[i].work()));
    begin_args.set("span", JsonValue(jobs[i].span()));
    begin_args.set("peak_profit", JsonValue(jobs[i].peak_profit()));
    if (jobs[i].has_deadline()) {
      begin_args.set("deadline", JsonValue(jobs[i].absolute_deadline()));
    }
    push_event(timeline, to_micros(jobs[i].release()), 0,
               async_event("b", id, jobs[i].release(),
                           std::move(begin_args)));
    JsonValue end_args = JsonValue::object();
    end_args.set("completed", JsonValue(result.outcomes[i].completed));
    end_args.set("profit", JsonValue(result.outcomes[i].profit));
    push_event(timeline, to_micros(ends[i]), 3,
               async_event("e", id, ends[i], std::move(end_args)));
  }

  // Decision / fault instants from the event log.
  if (inputs.events != nullptr) {
    for (const DecisionEvent& event : inputs.events->events()) {
      const char* kind = obs_event_kind_name(event.kind);
      std::string name = event.reason.empty()
                             ? std::string(kind)
                             : std::string(kind) + ":" + event.reason;
      switch (event.kind) {
        case ObsEventKind::kArrival:
        case ObsEventKind::kComplete:
        case ObsEventKind::kExpire:
          // Already represented by the async job span boundaries.
          break;
        case ObsEventKind::kProcDown:
        case ObsEventKind::kProcUp:
          push_event(timeline, to_micros(event.time), 2,
                     instant_event(std::move(name), "fault", "t", kMachinePid,
                                   event.detail_value("proc"), event.time,
                                   detail_args(event)));
          break;
        case ObsEventKind::kEngineAbort:
          push_event(timeline, to_micros(event.time), 2,
                     instant_event(std::move(name), "engine", "g",
                                   kMachinePid, 0.0, event.time,
                                   detail_args(event)));
          break;
        default:
          // Job-attributed decision (admit/defer/drop/schedule/preempt,
          // node-restart, work-overrun, readmit-fail).
          push_event(timeline, to_micros(event.time), 2,
                     instant_event(std::move(name), "decision", "t",
                                   kJobsPid,
                                   static_cast<double>(event.job), event.time,
                                   detail_args(event)));
          break;
      }
    }
  }

  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.order < b.order;
                   });

  JsonValue trace_events = JsonValue::array();
  // Metadata prelude: process and thread names.
  trace_events.push_back(
      metadata_event("process_name", kMachinePid, 0, "machine"));
  trace_events.push_back(metadata_event("process_name", kJobsPid, 0, "jobs"));
  for (ProcCount p = 0; p < inputs.m; ++p) {
    trace_events.push_back(metadata_event("thread_name", kMachinePid,
                                          static_cast<int>(p),
                                          "proc " + std::to_string(p)));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    trace_events.push_back(metadata_event("thread_name", kJobsPid,
                                          static_cast<int>(i),
                                          "J" + std::to_string(i)));
  }
  for (TimelineEvent& event : timeline) {
    trace_events.push_back(std::move(event.json));
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", JsonValue("ms"));
  JsonValue other = JsonValue::object();
  other.set("schema", JsonValue("dagsched.trace_export/1"));
  if (!inputs.label.empty()) other.set("label", JsonValue(inputs.label));
  other.set("m", JsonValue(static_cast<double>(inputs.m)));
  other.set("jobs", JsonValue(jobs.size()));
  other.set("end_time", JsonValue(result.end_time));
  other.set("exec_slices", JsonValue(exec_slices));
  other.set("micros_per_time_unit", JsonValue(kTraceMicrosPerTimeUnit));
  if (inputs.telemetry != nullptr) {
    // Wall-clock aggregates, not simulation-time events.
    other.set("telemetry", telemetry_to_json(*inputs.telemetry));
  }
  doc.set("otherData", std::move(other));
  return doc;
}

// ---------------------------------------------------------------------------
// Event-log diff
// ---------------------------------------------------------------------------

namespace {

bool is_policy_decision(ObsEventKind kind) {
  switch (kind) {
    case ObsEventKind::kAdmit:
    case ObsEventKind::kDefer:
    case ObsEventKind::kDrop:
    case ObsEventKind::kSchedule:
      return true;
    default:
      return false;
  }
}

std::string describe_event(const DecisionEvent& event, bool with_time) {
  std::ostringstream out;
  if (with_time) out << "t=" << event.time << ' ';
  out << obs_event_kind_name(event.kind);
  if (event.job != kInvalidJob) out << " J" << event.job;
  if (!event.reason.empty()) out << " (" << event.reason << ')';
  return out.str();
}

/// Equality under the chosen mode: policy comparisons ignore timestamps and
/// numeric detail (engines agree on the decision, not on when their clocks
/// delivered it); full comparisons are exact.
bool events_equal(const DecisionEvent& lhs, const DecisionEvent& rhs,
                  bool decisions_only) {
  if (decisions_only) {
    return lhs.kind == rhs.kind && lhs.job == rhs.job &&
           lhs.reason == rhs.reason;
  }
  return lhs == rhs;
}

}  // namespace

EventLogDiff diff_event_logs(const std::vector<DecisionEvent>& lhs,
                             const std::vector<DecisionEvent>& rhs,
                             const EventLogDiffOptions& options) {
  std::vector<const DecisionEvent*> a, b;
  for (const DecisionEvent& event : lhs) {
    if (!options.decisions_only || is_policy_decision(event.kind)) {
      a.push_back(&event);
    }
  }
  for (const DecisionEvent& event : rhs) {
    if (!options.decisions_only || is_policy_decision(event.kind)) {
      b.push_back(&event);
    }
  }

  EventLogDiff diff;
  diff.lhs_events = a.size();
  diff.rhs_events = b.size();

  std::map<std::string, std::pair<std::size_t, std::size_t>> kinds;
  for (const DecisionEvent* event : a) {
    ++kinds[obs_event_kind_name(event->kind)].first;
  }
  for (const DecisionEvent* event : b) {
    ++kinds[obs_event_kind_name(event->kind)].second;
  }
  for (const auto& [kind, counts] : kinds) {
    diff.kind_deltas.push_back({kind, counts.first, counts.second});
  }

  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!events_equal(*a[i], *b[i], options.decisions_only)) {
      diff.first_divergence = i;
      diff.description = "event " + std::to_string(i) + ": " +
                         describe_event(*a[i], !options.decisions_only) +
                         " vs " +
                         describe_event(*b[i], !options.decisions_only);
      return diff;
    }
  }
  if (a.size() == b.size()) return diff;

  // Length mismatch: the longer log continues past the shorter one.
  const auto& longer = a.size() > b.size() ? a : b;
  bool tail_all_drops = true;
  for (std::size_t i = common; i < longer.size(); ++i) {
    if (longer[i]->kind != ObsEventKind::kDrop) {
      tail_all_drops = false;
      break;
    }
  }
  if (options.decisions_only && tail_all_drops) {
    diff.forgiven_tail = longer.size() - common;
    return diff;
  }
  diff.first_divergence = common;
  diff.description =
      (a.size() < b.size() ? "lhs" : "rhs") + std::string(" ends after ") +
      std::to_string(common) + " events; the other continues with " +
      describe_event(*longer[common], !options.decisions_only);
  return diff;
}

std::string format_event_log_diff(const EventLogDiff& diff,
                                  std::string_view lhs_name,
                                  std::string_view rhs_name) {
  std::ostringstream out;
  out << "comparing " << lhs_name << " (" << diff.lhs_events << " events) vs "
      << rhs_name << " (" << diff.rhs_events << " events)\n";
  if (!diff.diverged()) {
    out << "no divergence";
    if (diff.forgiven_tail > 0) {
      out << " (ignored " << diff.forgiven_tail << " trailing end-of-run "
          << "drop events)";
    }
    out << "\n";
  } else {
    out << "first divergence at " << diff.description << "\n";
  }
  out << "per-kind counts (lhs/rhs):\n";
  for (const EventLogDiff::KindDelta& delta : diff.kind_deltas) {
    out << "  " << delta.kind << ": " << delta.lhs << "/" << delta.rhs;
    if (delta.lhs != delta.rhs) out << "  <-- differs";
    out << "\n";
  }
  return out.str();
}

}  // namespace dagsched

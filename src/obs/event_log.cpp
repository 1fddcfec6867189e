#include "obs/event_log.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/json.h"

namespace dagsched {

const char* obs_event_kind_name(ObsEventKind kind) {
  switch (kind) {
    case ObsEventKind::kArrival: return "arrival";
    case ObsEventKind::kAdmit: return "admit";
    case ObsEventKind::kDefer: return "defer";
    case ObsEventKind::kDrop: return "drop";
    case ObsEventKind::kSchedule: return "schedule";
    case ObsEventKind::kComplete: return "complete";
    case ObsEventKind::kExpire: return "expire";
    case ObsEventKind::kPreempt: return "preempt";
    case ObsEventKind::kProcDown: return "proc-down";
    case ObsEventKind::kProcUp: return "proc-up";
    case ObsEventKind::kNodeRestart: return "node-restart";
    case ObsEventKind::kWorkOverrun: return "work-overrun";
    case ObsEventKind::kReadmitFail: return "readmit-fail";
    case ObsEventKind::kEngineAbort: return "engine-abort";
    case ObsEventKind::kOverload: return "overload";
  }
  return "?";
}

std::optional<ObsEventKind> obs_event_kind_from_name(std::string_view name) {
  if (name == "arrival") return ObsEventKind::kArrival;
  if (name == "admit") return ObsEventKind::kAdmit;
  if (name == "defer") return ObsEventKind::kDefer;
  if (name == "drop") return ObsEventKind::kDrop;
  if (name == "schedule") return ObsEventKind::kSchedule;
  if (name == "complete") return ObsEventKind::kComplete;
  if (name == "expire") return ObsEventKind::kExpire;
  if (name == "preempt") return ObsEventKind::kPreempt;
  if (name == "proc-down") return ObsEventKind::kProcDown;
  if (name == "proc-up") return ObsEventKind::kProcUp;
  if (name == "node-restart") return ObsEventKind::kNodeRestart;
  if (name == "work-overrun") return ObsEventKind::kWorkOverrun;
  if (name == "readmit-fail") return ObsEventKind::kReadmitFail;
  if (name == "engine-abort") return ObsEventKind::kEngineAbort;
  if (name == "overload") return ObsEventKind::kOverload;
  return std::nullopt;
}

double DecisionEvent::detail_value(std::string_view key,
                                   double fallback) const {
  for (const auto& [name, value] : detail) {
    if (name == key) return value;
  }
  return fallback;
}

namespace {

void append_event_jsonl(std::string& out, const DecisionEvent& event) {
  // The bytes JsonValue::write gives an object built with set() in this
  // order, without building it.
  out += "{\"t\":";
  append_json_number(out, event.time);
  out += ",\"job\":";
  append_json_number(out, static_cast<double>(event.job));
  out += ",\"kind\":";
  append_json_string(out, obs_event_kind_name(event.kind));
  if (!event.reason.empty()) {
    out += ",\"reason\":";
    append_json_string(out, event.reason);
  }
  if (!event.detail.empty()) {
    out += ",\"detail\":{";
    const auto& detail = event.detail;
    bool first = true;
    for (std::size_t i = 0; i < detail.size(); ++i) {
      const std::string& key = detail[i].first;
      // set() on a repeated key keeps the first position and the last
      // value: skip later repeats, and write the last value at the first.
      const auto is_key = [&key](const auto& entry) {
        return entry.first == key;
      };
      if (std::any_of(detail.begin(),
                      detail.begin() + static_cast<std::ptrdiff_t>(i),
                      is_key)) {
        continue;
      }
      const auto last = std::find_if(detail.rbegin(), detail.rend(), is_key);
      if (!first) out += ',';
      first = false;
      append_json_string(out, key);
      out += ':';
      append_json_number(out, last->second);
    }
    out += '}';
  }
  out += "}\n";
}

}  // namespace

void write_event_jsonl(std::ostream& out, const DecisionEvent& event) {
  // One reused buffer per thread (sweep workers write logs concurrently)
  // and one stream write per line.
  thread_local std::string line;
  line.clear();
  append_event_jsonl(line, event);
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void EventLog::write_jsonl(std::ostream& out) const {
  for (const DecisionEvent& event : events_) write_event_jsonl(out, event);
}

std::optional<std::vector<DecisionEvent>> EventLog::parse_jsonl(
    std::istream& in, JsonlError* error) {
  std::vector<DecisionEvent> events;
  std::string line;
  std::size_t line_number = 0;
  auto fail = [&](std::string message, std::size_t column = 1) {
    if (error != nullptr) *error = {line_number, column, std::move(message)};
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const JsonParseResult parsed = json_parse(line);
    if (!parsed.ok) return fail(parsed.error, parsed.offset + 1);
    const JsonValue& doc = parsed.value;
    if (!doc.is_object()) return fail("event is not a JSON object");
    const JsonValue* t = doc.find("t");
    const JsonValue* job = doc.find("job");
    const JsonValue* kind = doc.find("kind");
    if (t == nullptr || !t->is_number() || job == nullptr ||
        !job->is_number() || kind == nullptr || !kind->is_string()) {
      return fail("missing or mistyped t/job/kind");
    }
    const auto parsed_kind = obs_event_kind_from_name(kind->as_string());
    if (!parsed_kind) return fail("unknown kind '" + kind->as_string() + "'");

    DecisionEvent event;
    event.time = t->as_number();
    event.job = static_cast<JobId>(job->as_number());
    event.kind = *parsed_kind;
    if (const JsonValue* reason = doc.find("reason")) {
      if (!reason->is_string()) return fail("reason is not a string");
      event.reason = reason->as_string();
    }
    if (const JsonValue* detail = doc.find("detail")) {
      if (!detail->is_object()) return fail("detail is not an object");
      for (const auto& [key, value] : detail->members()) {
        if (!value.is_number()) return fail("detail value is not a number");
        event.detail.emplace_back(key, value.as_number());
      }
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace dagsched

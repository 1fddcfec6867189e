// Decision event log: JSONL round-trips, cross-engine event-sequence
// equivalence, and an offline replay of the Section-3 admission condition
// (2) against the logged decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/deadline_scheduler.h"
#include "core/density_index.h"
#include "dag/generators.h"
#include "job/job.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/trace_export.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/json.h"
#include "util/rng.h"

namespace dagsched {
namespace {

TEST(ObsEventKind, NamesRoundTrip) {
  const ObsEventKind kinds[] = {
      ObsEventKind::kArrival,  ObsEventKind::kAdmit, ObsEventKind::kDefer,
      ObsEventKind::kDrop,     ObsEventKind::kSchedule,
      ObsEventKind::kComplete, ObsEventKind::kExpire, ObsEventKind::kPreempt,
  };
  for (const ObsEventKind kind : kinds) {
    const auto parsed = obs_event_kind_from_name(obs_event_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << obs_event_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs_event_kind_from_name("bogus").has_value());
}

TEST(EventLog, JsonlRoundTripsExactly) {
  EventLog log;
  log.emit(0.0, 0, ObsEventKind::kArrival);
  log.emit(0.0, 0, ObsEventKind::kAdmit, "cond2-ok",
           {{"v", 1.5}, {"n", 2.0}, {"good", 1.0}});
  log.emit(3.25, 7, ObsEventKind::kDefer, "window-full", {{"v", 0.125}});
  log.emit(10.0, 7, ObsEventKind::kDrop, "stale");
  log.emit(12.0, 0, ObsEventKind::kComplete);

  std::stringstream stream;
  log.write_jsonl(stream);

  JsonlError error;
  const auto parsed = EventLog::parse_jsonl(stream, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ((*parsed)[i], log.events()[i]) << "event " << i;
  }
}

TEST(EventLog, ParseRejectsMalformedLines) {
  std::istringstream bad("{\"t\":0,\"job\":1,\"kind\":\"arrival\"}\nnot json\n");
  JsonlError error;
  EXPECT_FALSE(EventLog::parse_jsonl(bad, &error).has_value());
  // The error must locate the offending line (and, for malformed JSON, the
  // column the JSON parser stopped at) for the user.
  EXPECT_EQ(error.line, 2u) << error.message;
  EXPECT_EQ(error.column, 1u) << error.message;
  EXPECT_EQ(error.message.find("line "), std::string::npos) << error.message;

  std::istringstream bad_column(
      "{\"t\":0,\"job\":1,\"kind\":\"arrival\"}\n{\"t\":0,}\n");
  EXPECT_FALSE(EventLog::parse_jsonl(bad_column, &error).has_value());
  EXPECT_EQ(error.line, 2u) << error.message;
  EXPECT_EQ(error.column, 8u) << error.message;  // offset 7, 1-based
  EXPECT_EQ(error.at("e.jsonl").what(),
            "e.jsonl:2:8: " + error.message);

  std::istringstream unknown_kind(
      "{\"t\":0,\"job\":1,\"kind\":\"arrival\"}\n"
      "{\"t\":1,\"job\":1,\"kind\":\"teleport\"}\n");
  EXPECT_FALSE(EventLog::parse_jsonl(unknown_kind, &error).has_value());
  EXPECT_EQ(error.line, 2u) << error.message;
  EXPECT_EQ(error.column, 1u) << error.message;
  EXPECT_NE(error.message.find("teleport"), std::string::npos)
      << error.message;
}

TEST(EventLog, FaultEventKindsRoundTripExactly) {
  // PR-2's fault kinds must survive serialization bit-for-bit: the trace
  // exporter and `trace diff` both consume re-parsed logs.
  EventLog log;
  log.emit(1.0, kInvalidJob, ObsEventKind::kProcDown, "fault",
           {{"proc", 3.0}});
  log.emit(2.0, kInvalidJob, ObsEventKind::kProcUp, "recovered",
           {{"proc", 3.0}});
  log.emit(2.0, 4, ObsEventKind::kNodeRestart, "proc-lost",
           {{"node", 9.0}, {"lost", 0.75}});
  log.emit(3.5, 4, ObsEventKind::kWorkOverrun, "declared-exceeded",
           {{"node", 9.0}, {"factor", 1.5}});
  log.emit(4.0, 5, ObsEventKind::kReadmitFail, "capacity-shrunk",
           {{"v", 2.25}});
  log.emit(9.0, kInvalidJob, ObsEventKind::kEngineAbort, "livelock-guard");

  std::stringstream stream;
  log.write_jsonl(stream);
  JsonlError error;
  const auto parsed = EventLog::parse_jsonl(stream, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ((*parsed)[i], log.events()[i]) << "event " << i;
  }
}

/// The line a JsonValue built field by field writes for `event`: the
/// reference the direct line writer must reproduce byte for byte.
std::string json_value_line(const DecisionEvent& event) {
  JsonValue line = JsonValue::object();
  line.set("t", JsonValue(event.time));
  line.set("job", JsonValue(static_cast<double>(event.job)));
  line.set("kind", JsonValue(obs_event_kind_name(event.kind)));
  if (!event.reason.empty()) line.set("reason", JsonValue(event.reason));
  if (!event.detail.empty()) {
    JsonValue detail = JsonValue::object();
    for (const auto& [key, value] : event.detail) {
      detail.set(key, JsonValue(value));
    }
    line.set("detail", std::move(detail));
  }
  return line.dump() + "\n";
}

TEST(EventLog, LinesEqualTheJsonValueWriterForRandomEvents) {
  const double numbers[] = {
      0.0, -0.0, 1.0, -7.0, 42.0, 123456789012345.0, 1e15, -1e15, 1e20,
      0.5, -2.25, 1.0 / 3.0, 1e-7, -3.5e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max()};
  const std::string keys[] = {"v", "n", "proc", "a\"b", "back\\slash",
                              std::string("nul\0key", 7), "tab\t"};
  Rng rng(17);
  auto pick_number = [&]() -> double {
    if (rng.uniform_int(0, 3) == 0) return rng.uniform(-1e6, 1e6);
    return numbers[rng.uniform_int(0, std::size(numbers) - 1)];
  };
  auto random_text = [&]() {
    std::string text;
    const auto length = rng.uniform_int(0, 12);
    for (std::int64_t i = 0; i < length; ++i) {
      switch (rng.uniform_int(0, 5)) {
        case 0: text += '"'; break;
        case 1: text += '\\'; break;
        case 2: text += static_cast<char>(rng.uniform_int(0, 0x1f)); break;
        default:
          text += static_cast<char>(rng.uniform_int(0x20, 0x7e));
      }
    }
    return text;
  };

  std::vector<DecisionEvent> events;
  for (int i = 0; i < 2000; ++i) {
    DecisionEvent event;
    event.time = pick_number();
    event.job = rng.uniform_int(0, 9) == 0
                    ? kInvalidJob
                    : static_cast<JobId>(rng.uniform_int(0, 1 << 20));
    event.kind = static_cast<ObsEventKind>(
        rng.uniform_int(0, static_cast<std::int64_t>(ObsEventKind::kOverload)));
    event.reason = random_text();
    const auto details = rng.uniform_int(0, 4);
    for (std::int64_t d = 0; d < details; ++d) {
      // Seven keys for up to four entries: repeats are common.
      event.detail.emplace_back(
          rng.uniform_int(0, 3) == 0
              ? random_text()
              : keys[rng.uniform_int(0, std::size(keys) - 1)],
          pick_number());
    }
    events.push_back(std::move(event));
  }
  // The cases above by construction, not by chance.
  events.push_back({-0.0, 3, ObsEventKind::kDrop, "q\"uote\\\x01\x1f\n",
                    {{"v", 1.0}, {"n", 2.0}, {"v", 3.0}}});
  events.push_back({std::numeric_limits<double>::quiet_NaN(), kInvalidJob,
                    ObsEventKind::kOverload, "",
                    {{"x", -std::numeric_limits<double>::infinity()}}});

  std::ostringstream stream;
  std::string expected;
  for (const DecisionEvent& event : events) {
    std::ostringstream one;
    write_event_jsonl(one, event);
    const std::string reference = json_value_line(event);
    ASSERT_EQ(one.str(), reference) << "event " << expected.size();
    write_event_jsonl(stream, event);
    expected += reference;
  }
  ASSERT_EQ(stream.str(), expected);

  // Every line parses back to the event in the writer's normal form: a
  // non-finite number clamped as json_number_to_string clamps it, and a
  // repeated detail key folded into its first position with its last value.
  auto clamp = [](double value) {
    if (std::isnan(value)) return 0.0;
    if (std::isinf(value)) return value > 0 ? 1e308 : -1e308;
    return value;
  };
  std::istringstream in(stream.str());
  JsonlError error;
  const auto parsed = EventLog::parse_jsonl(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    DecisionEvent normal = events[i];
    normal.time = clamp(normal.time);
    normal.detail.clear();
    for (const auto& [key, value] : events[i].detail) {
      auto same = std::find_if(
          normal.detail.begin(), normal.detail.end(),
          [&key](const auto& entry) { return entry.first == key; });
      if (same != normal.detail.end()) {
        same->second = clamp(value);
      } else {
        normal.detail.emplace_back(key, clamp(value));
      }
    }
    EXPECT_EQ((*parsed)[i], normal) << "event " << i;
  }
}

TEST(EventLog, DetailValueLookup) {
  DecisionEvent event;
  event.detail = {{"v", 2.0}, {"n", 3.0}};
  EXPECT_DOUBLE_EQ(event.detail_value("v"), 2.0);
  EXPECT_DOUBLE_EQ(event.detail_value("missing", -1.0), -1.0);
}

// ---------------------------------------------------------------------------
// Engine-integrated logging
// ---------------------------------------------------------------------------

JobSet integer_workload(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  JobSet jobs;
  for (std::size_t i = 0; i < count; ++i) {
    RandomDagParams params;
    params.nodes = static_cast<std::size_t>(rng.uniform_int(4, 16));
    params.edge_prob = 0.15;
    params.work = WorkDist::constant(1.0);
    Dag dag = make_random_dag(rng, params);
    const double release = static_cast<double>(rng.uniform_int(0, 40));
    const double greedy = (dag.total_work() - dag.span()) / 4.0 + dag.span();
    const double deadline = std::ceil(greedy * rng.uniform(1.2, 2.5)) + 2.0;
    jobs.add(Job::with_deadline(std::make_shared<const Dag>(std::move(dag)),
                                release, deadline,
                                std::floor(rng.uniform(1.0, 10.0))));
  }
  jobs.finalize();
  return jobs;
}

class ObsCrossEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObsCrossEngine, EnginesEmitSameDecisionSequence) {
  const JobSet jobs = integer_workload(GetParam(), 14);

  EventLog ev_log;
  ObsSink ev_sink;
  ev_sink.events = &ev_log;
  DeadlineScheduler s1({.params = Params::from_epsilon(0.5)});
  auto sel1 = make_selector(SelectorKind::kFifo);
  SimOptions ev_options;
  ev_options.num_procs = 4;
  ev_options.obs = &ev_sink;
  EventEngine event_engine(jobs, s1, *sel1, ev_options);
  (void)event_engine.run();

  EventLog slot_log;
  ObsSink slot_sink;
  slot_sink.events = &slot_log;
  DeadlineScheduler s2({.params = Params::from_epsilon(0.5)});
  auto sel2 = make_selector(SelectorKind::kFifo);
  SimOptions slot_options;
  slot_options.num_procs = 4;
  slot_options.obs = &slot_sink;
  SlotEngine slot_engine(jobs, s2, *sel2, slot_options);
  (void)slot_engine.run();

  // The engines must agree on every policy decision they both make.  The
  // event engine additionally drains deadline-expiry events after the last
  // unit of work (the slot engine stops stepping once nothing is runnable),
  // so a trailing run of end-of-run drops is forgiven -- diff_event_logs's
  // decisions_only mode encodes exactly this comparison.
  EventLogDiffOptions options;
  options.decisions_only = true;
  const EventLogDiff diff =
      diff_event_logs(ev_log.events(), slot_log.events(), options);
  EXPECT_TRUE(diff.identical())
      << format_event_log_diff(diff, "event-engine", "slot-engine");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsCrossEngine,
                         ::testing::Values(1u, 7u, 23u, 91u));

TEST(ObsReplay, AdmitDeferEventsSatisfyCondition2) {
  // Replay the paper scheduler's density-threshold admission condition
  // against the logged decisions: maintain an independent
  // DensityWindowIndex from the event stream alone and check that every
  // "cond2-ok" admit was indeed admissible and every "window-full" defer
  // indeed was not.
  const JobSet jobs = integer_workload(0xabcdu, 40);
  const ProcCount m = 2;  // tight machine so the window actually fills

  EventLog log;
  ObsSink sink;
  sink.events = &log;
  const Params params = Params::from_epsilon(0.5);
  DeadlineScheduler scheduler({.params = params});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = m;
  options.obs = &sink;
  EventEngine engine(jobs, scheduler, *selector, options);
  (void)engine.run();

  const double cap = params.b * static_cast<double>(m);
  DensityWindowIndex index;
  std::size_t checked = 0;
  std::size_t deferred_full = 0;
  for (const DecisionEvent& event : log.events()) {
    const Density v = event.detail_value("v");
    const auto n = static_cast<ProcCount>(event.detail_value("n"));
    switch (event.kind) {
      case ObsEventKind::kAdmit:
        ASSERT_TRUE(index.admits(v, n, params.c, cap))
            << "logged admit of job " << event.job << " at t=" << event.time
            << " violates condition (2)";
        index.insert(event.job, v, n);
        ++checked;
        break;
      case ObsEventKind::kDefer:
        if (event.reason == "window-full") {
          EXPECT_FALSE(index.admits(v, n, params.c, cap))
              << "job " << event.job << " deferred at t=" << event.time
              << " though condition (2) held";
          ++deferred_full;
        }
        break;
      case ObsEventKind::kComplete:
      case ObsEventKind::kExpire:
        index.erase(event.job);
        break;
      default:
        break;
    }
  }
  EXPECT_GT(checked, 0u) << "workload admitted nothing; test is vacuous";
  EXPECT_GT(deferred_full, 0u)
      << "workload never filled the window; tighten it to exercise (2)";
}

}  // namespace
}  // namespace dagsched

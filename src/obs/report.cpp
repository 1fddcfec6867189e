#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "obs/telemetry/telemetry.h"
#include "util/check.h"

namespace dagsched {

namespace {

/// Resolution of the run report's timeline section.
constexpr std::size_t kTimelineBuckets = 60;

JsonValue sample_set_summary(const SampleSet& samples) {
  JsonValue out = JsonValue::object();
  out.set("count", JsonValue(samples.count()));
  if (samples.count() > 0) {
    out.set("mean", JsonValue(samples.mean()));
    out.set("p50", JsonValue(samples.median()));
    out.set("p99", JsonValue(samples.quantile(0.99)));
    out.set("max", JsonValue(samples.quantile(1.0)));
  }
  return out;
}

JsonValue histogram_to_json(const Histogram& histogram) {
  JsonValue out = JsonValue::object();
  out.set("count", JsonValue(histogram.count()));
  out.set("sum", JsonValue(histogram.sum()));
  out.set("min", JsonValue(histogram.min()));
  out.set("max", JsonValue(histogram.max()));
  // Sparse bucket encoding: only non-empty buckets, keyed by lower bound.
  JsonValue buckets = JsonValue::object();
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (histogram.buckets()[i] == 0) continue;
    buckets.set(json_number_to_string(Histogram::bucket_lower_bound(i)),
                JsonValue(histogram.buckets()[i]));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

/// Mean number of arrived-but-incomplete jobs per timeline bucket, sampled
/// at bucket midpoints (outcome times are exact, so midpoint sampling is a
/// faithful piecewise-constant summary at bucket resolution).
JsonValue active_jobs_timeline(const JobSet& jobs, const SimResult& result,
                               Time horizon) {
  JsonValue out = JsonValue::array();
  if (!(horizon > 0.0)) return out;
  const double width = horizon / static_cast<double>(kTimelineBuckets);
  for (std::size_t b = 0; b < kTimelineBuckets; ++b) {
    const Time t = (static_cast<double>(b) + 0.5) * width;
    std::size_t active = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].release() > t) continue;
      const JobOutcome& outcome = result.outcomes[i];
      if (outcome.completed && outcome.completion_time <= t) continue;
      ++active;
    }
    out.push_back(JsonValue(active));
  }
  return out;
}

}  // namespace

JsonValue build_run_report(const RunReportInputs& inputs) {
  DS_CHECK_MSG(inputs.jobs != nullptr && inputs.result != nullptr,
               "run report requires jobs and result");
  const JobSet& jobs = *inputs.jobs;
  const SimResult& result = *inputs.result;

  JsonValue report = JsonValue::object();
  report.set("schema", JsonValue(std::string(kRunReportSchema)));

  JsonValue run = JsonValue::object();
  run.set("scheduler", JsonValue(inputs.scheduler));
  run.set("engine", JsonValue(inputs.engine));
  run.set("workload", JsonValue(inputs.workload));
  run.set("m", JsonValue(static_cast<double>(inputs.m)));
  run.set("speed", JsonValue(inputs.speed));
  run.set("jobs", JsonValue(jobs.size()));
  report.set("run", std::move(run));

  JsonValue results = JsonValue::object();
  results.set("profit", JsonValue(result.total_profit));
  results.set("peak_profit", JsonValue(jobs.total_peak_profit()));
  results.set("profit_fraction", JsonValue(profit_fraction(result, jobs)));
  results.set("completed", JsonValue(result.jobs_completed));
  results.set("decisions", JsonValue(result.decisions));
  results.set("node_preemptions", JsonValue(result.node_preemptions));
  results.set("job_preemptions", JsonValue(result.job_preemptions));
  results.set("busy_proc_time", JsonValue(result.busy_proc_time));
  results.set("end_time", JsonValue(result.end_time));
  report.set("results", std::move(results));

  if (inputs.metrics != nullptr) {
    JsonValue metrics = JsonValue::object();
    metrics.set("missed", JsonValue(inputs.metrics->missed));
    metrics.set("flow_time", sample_set_summary(inputs.metrics->flow_time));
    metrics.set("stretch", sample_set_summary(inputs.metrics->stretch));
    metrics.set("lateness", sample_set_summary(inputs.metrics->lateness));
    report.set("metrics", std::move(metrics));
  }

  if (inputs.registry != nullptr) {
    JsonValue counters = JsonValue::object();
    for (const auto& [name, value] : inputs.registry->counter_values()) {
      counters.set(name, JsonValue(value));
    }
    report.set("counters", std::move(counters));
    JsonValue histograms = JsonValue::object();
    for (const auto& [name, histogram] : inputs.registry->histogram_values()) {
      histograms.set(name, histogram_to_json(*histogram));
    }
    report.set("histograms", std::move(histograms));
  }

  if (inputs.telemetry != nullptr) {
    report.set("telemetry", telemetry_to_json(*inputs.telemetry));
  }

  // Timeline: utilization requires result->trace (recorded runs),
  // active-jobs only needs outcomes.
  JsonValue timeline = JsonValue::object();
  const Time horizon = result.end_time;
  timeline.set("buckets", JsonValue(kTimelineBuckets));
  timeline.set("horizon", JsonValue(horizon));
  JsonValue utilization = JsonValue::array();
  if (!result.trace.empty() && horizon > 0.0) {
    for (const double value : utilization_profile(result.trace, inputs.m,
                                                  horizon, kTimelineBuckets)) {
      utilization.push_back(JsonValue(value));
    }
  }
  timeline.set("utilization", std::move(utilization));
  timeline.set("active_jobs", active_jobs_timeline(jobs, result, horizon));
  report.set("timeline", std::move(timeline));

  if (inputs.events != nullptr) {
    JsonValue events = JsonValue::object();
    events.set("count", JsonValue(inputs.events->size()));
    if (!inputs.events_path.empty()) {
      events.set("path", JsonValue(inputs.events_path));
    }
    JsonValue by_kind = JsonValue::object();
    std::map<std::string, std::size_t> kind_counts;
    for (const DecisionEvent& event : inputs.events->events()) {
      ++kind_counts[obs_event_kind_name(event.kind)];
    }
    for (const auto& [kind, count] : kind_counts) {
      by_kind.set(kind, JsonValue(count));
    }
    events.set("by_kind", std::move(by_kind));
    report.set("events", std::move(events));
  }

  return report;
}

std::string sparkline(std::span<const double> units) {
  static const char* kBars[] = {" ", ".", ":", "-", "=", "#", "%", "@"};
  std::string out;
  for (const double unit : units) {
    const auto level = static_cast<std::size_t>(
        std::min(7.0, std::max(0.0, unit * 7.999)));
    out += kBars[level];
  }
  return out;
}

namespace {

std::string fixed(double value, int digits = 4) {
  std::ostringstream out;
  out.precision(digits);
  out << value;
  return out.str();
}

void format_number_object(std::ostream& out, const JsonValue& object,
                          const char* indent) {
  if (!object.is_object()) return;
  for (const auto& [key, value] : object.members()) {
    out << indent << key << ": ";
    if (value.is_number()) {
      out << fixed(value.as_number(), 6);
    } else {
      value.write(out);
    }
    out << '\n';
  }
}

/// sparkline() over a JSON array, each number divided by `scale`.
std::string json_sparkline(const JsonValue& values, double scale) {
  std::vector<double> units;
  if (values.is_array()) {
    for (const JsonValue& value : values.items()) {
      const double v = value.is_number() ? value.as_number() : 0.0;
      units.push_back(scale > 0.0 ? v / scale : 0.0);
    }
  }
  return sparkline(units);
}

}  // namespace

std::string format_run_report(const JsonValue& report) {
  std::ostringstream out;
  if (report.contains("schema")) {
    out << "report (" << string_at(report, "schema", "?") << ")\n";
  }
  if (const JsonValue* run = report.find("run")) {
    out << "\n[run]\n";
    format_number_object(out, *run, "  ");
  }
  if (const JsonValue* results = report.find("results")) {
    out << "\n[results]\n";
    format_number_object(out, *results, "  ");
  }
  const JsonValue* metrics = report.find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    out << "\n[metrics]\n";
    for (const auto& [key, value] : metrics->members()) {
      if (value.is_object()) {
        out << "  " << key << ":";
        for (const auto& [stat, stat_value] : value.members()) {
          out << ' ' << stat << '='
              << (stat_value.is_number() ? fixed(stat_value.as_number())
                                         : stat_value.dump());
        }
        out << '\n';
      } else {
        out << "  " << key << ": "
            << (value.is_number() ? fixed(value.as_number()) : value.dump())
            << '\n';
      }
    }
  }
  if (const JsonValue* counters = report.find("counters")) {
    if (counters->size() > 0) {
      out << "\n[counters]\n";
      format_number_object(out, *counters, "  ");
    }
  }
  if (const JsonValue* telemetry = report.find("telemetry")) {
    out << "\n[telemetry]\n";
    if (const JsonValue* wall = telemetry->find("wall_ms")) {
      out << "  wall_ms: "
          << (wall->is_number() ? fixed(wall->as_number(), 6) : wall->dump())
          << '\n';
    }
    for (const char* key : {"decide_ns", "transition_ns", "admission_ns"}) {
      const JsonValue* histogram = telemetry->find(key);
      if (histogram == nullptr || !histogram->is_object()) continue;
      out << "  " << key << ":";
      for (const char* stat : {"count", "p50", "p90", "p99", "p999", "max"}) {
        if (const JsonValue* value = histogram->find(stat)) {
          out << ' ' << stat << '='
              << (value->is_number() ? json_number_to_string(value->as_number())
                                     : value->dump());
        }
      }
      out << '\n';
    }
    const JsonValue* gauges = telemetry->find("gauges");
    if (gauges != nullptr && gauges->is_object()) {
      out << "  gauges:";
      for (const auto& [key, value] : gauges->members()) {
        out << ' ' << key << '='
            << (value.is_number() ? fixed(value.as_number(), 6)
                                  : value.dump());
      }
      out << '\n';
    }
  }
  if (const JsonValue* events = report.find("events")) {
    out << "\n[events]\n";
    format_number_object(out, *events, "  ");
  }
  if (const JsonValue* timeline = report.find("timeline")) {
    const JsonValue* utilization = timeline->find("utilization");
    const double horizon = num_at(*timeline, "horizon", std::nan(""));
    if (utilization != nullptr && utilization->size() > 0) {
      out << "\n[timeline]\n  utilization: ["
          << json_sparkline(*utilization, 1.0) << "] over [0, "
          << (std::isnan(horizon) ? "?" : json_number_to_string(horizon))
          << ")\n";
    }
    const JsonValue* active = timeline->find("active_jobs");
    if (active != nullptr && active->is_array() && active->size() > 0) {
      double peak = 0.0;
      for (const JsonValue& value : active->items()) {
        peak = std::max(peak, value.is_number() ? value.as_number() : 0.0);
      }
      out << "  active jobs: [" << json_sparkline(*active, peak)
          << "] peak " << json_number_to_string(peak) << '\n';
    }
  }
  return out.str();
}

std::string format_bench_report(const JsonValue& report) {
  std::ostringstream out;
  out << "bench report";
  if (report.contains("schema")) {
    out << " (" << string_at(report, "schema", "?") << ")";
  }
  if (report.contains("bench")) out << ": " << string_at(report, "bench", "?");
  out << "\n";
  const JsonValue* measurements = report.find("measurements");
  if (measurements != nullptr && measurements->is_array()) {
    out << "\n[measurements]\n";
    for (const JsonValue& entry : measurements->items()) {
      const JsonValue* real = entry.find("real_time_ns");
      const JsonValue* iterations = entry.find("iterations");
      const JsonValue* aggregate = entry.find("aggregate");
      out << "  " << string_at(entry, "name", "?") << ": ";
      if (real != nullptr && real->is_number()) {
        const double ns = real->as_number();
        if (ns >= 1e6) {
          out << fixed(ns / 1e6) << " ms";
        } else if (ns >= 1e3) {
          out << fixed(ns / 1e3) << " us";
        } else {
          out << fixed(ns) << " ns";
        }
      } else {
        out << "?";
      }
      if (iterations != nullptr && iterations->is_number()) {
        out << " x" << json_number_to_string(iterations->as_number());
      }
      if (aggregate != nullptr && aggregate->is_bool() &&
          aggregate->as_bool()) {
        out << " (aggregate)";
      }
      const JsonValue* counters = entry.find("counters");
      if (counters != nullptr && counters->is_object()) {
        for (const auto& [key, value] : counters->members()) {
          out << "  " << key << '='
              << (value.is_number() ? json_number_to_string(value.as_number())
                                    : value.dump());
        }
      }
      out << '\n';
    }
  }
  return out.str();
}

JsonValue build_bench_report(std::string_view bench_name,
                             const std::vector<BenchMeasurement>& runs) {
  JsonValue report = JsonValue::object();
  report.set("schema", JsonValue(std::string(kBenchReportSchema)));
  report.set("bench", JsonValue(std::string(bench_name)));
  JsonValue measurements = JsonValue::array();
  for (const BenchMeasurement& run : runs) {
    JsonValue entry = JsonValue::object();
    entry.set("name", JsonValue(run.name));
    entry.set("real_time_ns", JsonValue(run.real_time_ns));
    entry.set("cpu_time_ns", JsonValue(run.cpu_time_ns));
    entry.set("iterations", JsonValue(run.iterations));
    entry.set("aggregate", JsonValue(run.aggregate));
    if (!run.counters.empty()) {
      JsonValue counters = JsonValue::object();
      for (const auto& [name, value] : run.counters) {
        counters.set(name, JsonValue(value));
      }
      entry.set("counters", std::move(counters));
    }
    measurements.push_back(std::move(entry));
  }
  report.set("measurements", std::move(measurements));
  return report;
}

}  // namespace dagsched

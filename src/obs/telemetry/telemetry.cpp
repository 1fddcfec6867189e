#include "obs/telemetry/telemetry.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <unistd.h>

namespace dagsched {

TelemetryRecorder::TelemetryRecorder(TelemetryOptions options)
    : options_(options) {}

void TelemetryRecorder::begin_run(double sim_start) {
  run_start_ = Clock::now();
  last_event_ = run_start_;
  next_sim_emit_ = sim_start + options_.sim_interval;
  next_wall_emit_ns_ = options_.wall_interval_ns;
  prev_events_ = 0;
  prev_wall_ns_ = 0;
  run_wall_ns_ = 0;
}

namespace {

std::uint64_t total_events(const TelemetrySample& s) {
  return s.decisions + s.arrivals + s.completions + s.expiries +
         s.transitions;
}

}  // namespace

JsonValue TelemetryRecorder::build_snapshot(const TelemetrySample& sample,
                                            std::uint64_t now_ns) {
  JsonValue snap = JsonValue::object();
  snap.set("schema", std::string(kTelemetrySchema));
  snap.set("seq", static_cast<std::uint64_t>(seq_));
  snap.set("final", sample.final_snapshot);
  snap.set("sim_time", sample.sim_time);
  snap.set("wall_ms", static_cast<double>(now_ns) / 1e6);

  JsonValue counters = JsonValue::object();
  counters.set("decisions", sample.decisions);
  counters.set("arrivals", sample.arrivals);
  counters.set("completions", sample.completions);
  counters.set("expiries", sample.expiries);
  counters.set("transitions", sample.transitions);
  snap.set("counters", std::move(counters));

  const std::size_t tracked_bytes =
      sample.kernel_bytes + sample.unfolding_bytes + sample.scheduler_bytes;
  JsonValue gauges = JsonValue::object();
  gauges.set("jobs_in_flight", static_cast<std::uint64_t>(sample.jobs_in_flight));
  gauges.set("jobs_total", static_cast<std::uint64_t>(sample.jobs_total));
  gauges.set("queue_depth", static_cast<std::uint64_t>(sample.queue_depth));
  gauges.set("kernel_bytes", static_cast<std::uint64_t>(sample.kernel_bytes));
  gauges.set("unfolding_bytes",
             static_cast<std::uint64_t>(sample.unfolding_bytes));
  gauges.set("scheduler_bytes",
             static_cast<std::uint64_t>(sample.scheduler_bytes));
  gauges.set("tracked_bytes", static_cast<std::uint64_t>(tracked_bytes));
  gauges.set("input_bytes", static_cast<std::uint64_t>(sample.input_bytes));
  gauges.set("bytes_per_job",
             static_cast<double>(tracked_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(1, sample.arrivals)));
  gauges.set("rss_bytes", static_cast<std::uint64_t>(
                              options_.include_rss ? read_rss_bytes() : 0));
  snap.set("gauges", std::move(gauges));

  // Rates over the window since the previous snapshot (whole run for the
  // first one).  Sub-microsecond windows are reported as 0 rather than as
  // astronomically extrapolated rates.
  const std::uint64_t events = total_events(sample);
  const std::uint64_t window_ns = now_ns - prev_wall_ns_;
  JsonValue rates = JsonValue::object();
  if (window_ns >= 1000) {
    const double secs = static_cast<double>(window_ns) / 1e9;
    rates.set("events_per_sec",
              static_cast<double>(events - prev_events_) / secs);
    rates.set("decisions_per_sec",
              static_cast<double>(decide_.count()) /
                  (static_cast<double>(now_ns) / 1e9));
  } else {
    rates.set("events_per_sec", 0.0);
    rates.set("decisions_per_sec", 0.0);
  }
  snap.set("rates", std::move(rates));

  snap.set("decide_ns", latency_histogram_to_json(decide_));
  snap.set("transition_ns", latency_histogram_to_json(transition_));
  snap.set("admission_ns", latency_histogram_to_json(admission_));

  prev_events_ = events;
  prev_wall_ns_ = now_ns;
  return snap;
}

void TelemetryRecorder::emit_snapshot(const TelemetrySample& sample) {
  last_sample_ = sample;
  if (options_.out == nullptr) return;
  write_snapshot(sample, wall_ns(Clock::now()));
}

void TelemetryRecorder::write_snapshot(const TelemetrySample& sample,
                                       std::uint64_t now_ns) {
  JsonValue snap = build_snapshot(sample, now_ns);
  snap.write(*options_.out);
  *options_.out << '\n';
  ++seq_;
  // Advance deadlines past `now` so a burst of due checks emits once.
  if (options_.sim_interval > 0.0) {
    while (next_sim_emit_ <= sample.sim_time) {
      next_sim_emit_ += options_.sim_interval;
    }
  }
  if (options_.wall_interval_ns > 0) {
    while (next_wall_emit_ns_ <= now_ns) {
      next_wall_emit_ns_ += options_.wall_interval_ns;
    }
  }
}

void TelemetryRecorder::finish_run(TelemetrySample sample) {
  sample.final_snapshot = true;
  run_wall_ns_ = wall_ns(Clock::now());
  last_sample_ = sample;
  if (options_.out == nullptr) return;
  write_snapshot(sample, run_wall_ns_);
  options_.out->flush();
}

void TelemetryRecorder::reset() {
  decide_.reset();
  transition_.reset();
  admission_.reset();
  seq_ = 0;
  prev_events_ = 0;
  prev_wall_ns_ = 0;
  run_wall_ns_ = 0;
  last_sample_.reset();
}

JsonValue latency_histogram_to_json(const LatencyHistogram& histogram) {
  JsonValue out = JsonValue::object();
  out.set("count", histogram.count());
  out.set("overflow", histogram.overflow_count());
  out.set("min", histogram.min_ns());
  out.set("mean", histogram.mean_ns());
  out.set("max", histogram.max_ns());
  out.set("p50", histogram.percentile_ns(0.50));
  out.set("p90", histogram.percentile_ns(0.90));
  out.set("p99", histogram.percentile_ns(0.99));
  out.set("p999", histogram.percentile_ns(0.999));
  return out;
}

JsonValue telemetry_to_json(const TelemetryRecorder& recorder) {
  JsonValue out = JsonValue::object();
  out.set("wall_ms", static_cast<double>(recorder.run_wall_ns()) / 1e6);
  out.set("decide_ns", latency_histogram_to_json(recorder.decide_histogram()));
  out.set("transition_ns",
          latency_histogram_to_json(recorder.transition_histogram()));
  out.set("admission_ns",
          latency_histogram_to_json(recorder.admission_histogram()));
  out.set("snapshots", static_cast<std::uint64_t>(recorder.snapshots_emitted()));
  if (recorder.has_sample()) {
    const TelemetrySample& s = recorder.last_sample();
    const std::size_t tracked =
        s.kernel_bytes + s.unfolding_bytes + s.scheduler_bytes;
    JsonValue gauges = JsonValue::object();
    gauges.set("jobs_in_flight", static_cast<std::uint64_t>(s.jobs_in_flight));
    gauges.set("queue_depth", static_cast<std::uint64_t>(s.queue_depth));
    gauges.set("kernel_bytes", static_cast<std::uint64_t>(s.kernel_bytes));
    gauges.set("unfolding_bytes",
               static_cast<std::uint64_t>(s.unfolding_bytes));
    gauges.set("scheduler_bytes",
               static_cast<std::uint64_t>(s.scheduler_bytes));
    gauges.set("tracked_bytes", static_cast<std::uint64_t>(tracked));
    gauges.set("input_bytes", static_cast<std::uint64_t>(s.input_bytes));
    gauges.set("bytes_per_job",
               static_cast<double>(tracked) /
                   static_cast<double>(std::max<std::uint64_t>(1, s.arrivals)));
    out.set("gauges", std::move(gauges));
  }
  return out;
}

std::optional<std::vector<JsonValue>> parse_telemetry_jsonl(
    std::istream& in, JsonlError* error) {
  std::vector<JsonValue> snapshots;
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](std::string message, std::size_t column = 1) {
    if (error != nullptr) *error = {line_no, column, std::move(message)};
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonParseResult parsed = json_parse(line);
    if (!parsed.ok) return fail(parsed.error, parsed.offset + 1);
    const JsonValue* schema = parsed.value.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kTelemetrySchema) {
      return fail("missing or unsupported schema (want " +
                  std::string(kTelemetrySchema) + ")");
    }
    snapshots.push_back(std::move(parsed.value));
  }
  return snapshots;
}

std::size_t read_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  std::size_t total_pages = 0;
  std::size_t rss_pages = 0;
  if (!(statm >> total_pages >> rss_pages)) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<std::size_t>(page > 0 ? page : 4096);
}

}  // namespace dagsched

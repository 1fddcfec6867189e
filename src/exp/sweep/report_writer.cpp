#include "exp/sweep/report_writer.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "obs/sweep_report.h"
#include "obs/telemetry/telemetry.h"
#include "sim/kernel/engine_factory.h"
#include "util/check.h"

namespace dagsched {

namespace {

/// A flat name -> value object of counter snapshots.
JsonValue counters_json(
    const std::vector<std::pair<std::string, double>>& counters) {
  JsonValue object = JsonValue::object();
  for (const auto& [name, value] : counters) object.set(name, value);
  return object;
}

}  // namespace

JsonValue sweep_header_json(const SweepResult& sweep) {
  JsonValue header = JsonValue::object();
  header.set("schema", std::string(kSweepReportSchema));
  header.set("kind", "header");
  header.set("cells", static_cast<std::uint64_t>(sweep.cells.size()));
  header.set("threads", static_cast<std::uint64_t>(sweep.threads));
  return header;
}

JsonValue sweep_cell_json(const SweepResult& sweep, std::size_t index) {
  DS_CHECK(index < sweep.cells.size());
  const SweepCellSpec& spec = sweep.cells[index];
  const SweepCellResult& result = sweep.results[index];

  JsonValue cell = JsonValue::object();
  cell.set("kind", "cell");
  cell.set("id", spec.id);
  cell.set("workload", spec.workload_label);
  cell.set("scheduler", spec.scheduler);
  cell.set("engine", engine_kind_name(spec.engine));
  cell.set("m", static_cast<std::uint64_t>(spec.m));
  cell.set("speed", spec.speed);
  cell.set("eps", spec.eps);
  cell.set("fault", spec.fault_label);
  if (!spec.fault_spec.empty()) cell.set("fault_spec", spec.fault_spec);
  cell.set("ok", result.ok());
  if (result.config_failed()) {
    cell.set("error", result.error);
    return cell;
  }
  cell.set("wall_ms", result.wall_ms);

  const RunMetrics& m = result.metrics;
  JsonValue metrics = JsonValue::object();
  metrics.set("profit", m.profit);
  metrics.set("fraction", m.fraction);
  metrics.set("completed", static_cast<std::uint64_t>(m.completed));
  metrics.set("jobs", static_cast<std::uint64_t>(m.num_jobs));
  metrics.set("decisions", static_cast<std::uint64_t>(m.decisions));
  metrics.set("busy_proc_time", m.busy_proc_time);
  metrics.set("end_time", m.end_time);
  metrics.set("lost_work", m.lost_work);
  metrics.set("node_preemptions",
              static_cast<std::uint64_t>(m.node_preemptions));
  metrics.set("job_preemptions",
              static_cast<std::uint64_t>(m.job_preemptions));
  metrics.set("overload_breaches",
              static_cast<std::uint64_t>(m.overload_breaches));
  metrics.set("overload_sheds", static_cast<std::uint64_t>(m.overload_sheds));
  metrics.set("overload_recoveries",
              static_cast<std::uint64_t>(m.overload_recoveries));
  cell.set("metrics", std::move(metrics));
  cell.set("failure", sim_failure_kind_name(m.failure));
  if (!m.failure_message.empty()) {
    cell.set("failure_message", m.failure_message);
  }
  cell.set("decide_ns", latency_histogram_to_json(result.decide));
  cell.set("transition_ns", latency_histogram_to_json(result.transition));
  cell.set("admission_ns", latency_histogram_to_json(result.admission));
  if (!result.counters.empty()) {
    cell.set("counters", counters_json(result.counters));
  }
  return cell;
}

JsonValue sweep_summary_json(const SweepResult& sweep) {
  JsonValue summary = JsonValue::object();
  summary.set("kind", "summary");
  summary.set("cells", static_cast<std::uint64_t>(sweep.cells.size()));
  summary.set("ok_cells", static_cast<std::uint64_t>(sweep.cells.size() -
                                                     sweep.failed_cells));
  summary.set("failed_cells", static_cast<std::uint64_t>(sweep.failed_cells));
  summary.set("threads", static_cast<std::uint64_t>(sweep.threads));
  summary.set("wall_ms", sweep.wall_ms);
  summary.set("serial_wall_ms", sweep.serial_wall_ms);
  summary.set("speedup", sweep.speedup());
  summary.set("cells_per_sec",
              sweep.wall_ms > 0.0
                  ? static_cast<double>(sweep.cells.size()) /
                        (sweep.wall_ms / 1e3)
                  : 0.0);
  summary.set("decide_ns", latency_histogram_to_json(sweep.decide));
  summary.set("transition_ns", latency_histogram_to_json(sweep.transition));
  summary.set("admission_ns", latency_histogram_to_json(sweep.admission));

  JsonValue rollups = JsonValue::object();
  std::uint64_t jobs = 0, completed = 0, decisions = 0;
  std::uint64_t node_preemptions = 0, job_preemptions = 0;
  std::uint64_t breaches = 0, sheds = 0, recoveries = 0;
  double profit = 0.0, lost_work = 0.0;
  std::map<std::string, std::uint64_t> failures;
  std::uint64_t config_errors = 0;
  for (const SweepCellResult& result : sweep.results) {
    if (result.config_failed()) {
      ++config_errors;
      continue;
    }
    const RunMetrics& m = result.metrics;
    jobs += m.num_jobs;
    completed += m.completed;
    decisions += m.decisions;
    node_preemptions += m.node_preemptions;
    job_preemptions += m.job_preemptions;
    breaches += m.overload_breaches;
    sheds += m.overload_sheds;
    recoveries += m.overload_recoveries;
    profit += m.profit;
    lost_work += m.lost_work;
    if (m.failure != SimFailureKind::kNone) {
      ++failures[sim_failure_kind_name(m.failure)];
    }
  }
  rollups.set("jobs", jobs);
  rollups.set("jobs_completed", completed);
  rollups.set("decisions", decisions);
  rollups.set("profit", profit);
  rollups.set("lost_work", lost_work);
  rollups.set("node_preemptions", node_preemptions);
  rollups.set("job_preemptions", job_preemptions);
  rollups.set("overload_breaches", breaches);
  rollups.set("overload_sheds", sheds);
  rollups.set("overload_recoveries", recoveries);
  rollups.set("config_errors", config_errors);
  JsonValue failure_counts = JsonValue::object();
  for (const auto& [kind, count] : failures) {
    failure_counts.set(kind, count);
  }
  rollups.set("sim_failures", std::move(failure_counts));
  summary.set("rollups", std::move(rollups));

  if (!sweep.counters.empty()) {
    summary.set("counters", counters_json(sweep.counters));
  }

  // Slowest-cell attribution: where did the sweep's serial time go?
  std::vector<std::size_t> order(sweep.results.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&sweep](std::size_t a, std::size_t b) {
    if (sweep.results[a].wall_ms != sweep.results[b].wall_ms) {
      return sweep.results[a].wall_ms > sweep.results[b].wall_ms;
    }
    return a < b;
  });
  JsonValue slowest = JsonValue::array();
  for (std::size_t rank = 0; rank < std::min<std::size_t>(5, order.size());
       ++rank) {
    JsonValue entry = JsonValue::object();
    entry.set("id", sweep.cells[order[rank]].id);
    entry.set("wall_ms", sweep.results[order[rank]].wall_ms);
    slowest.push_back(std::move(entry));
  }
  summary.set("slowest_cells", std::move(slowest));
  return summary;
}

void write_sweep_report(std::ostream& out, const SweepResult& sweep) {
  sweep_header_json(sweep).write(out);
  out << '\n';
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    sweep_cell_json(sweep, i).write(out);
    out << '\n';
  }
  sweep_summary_json(sweep).write(out);
  out << '\n';
}

}  // namespace dagsched

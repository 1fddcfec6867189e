#include "obs/sweep_report.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <sstream>

#include "util/parse_error.h"

namespace dagsched {

namespace {

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out.precision(digits);
  out << std::fixed << value;
  return out.str();
}

std::string percent(double delta) {
  std::ostringstream out;
  out.precision(1);
  out << std::fixed << (delta >= 0 ? "+" : "") << delta * 100.0 << "%";
  return out.str();
}

}  // namespace

std::optional<SweepReportDoc> parse_sweep_report(std::istream& in,
                                                 JsonlError* error) {
  auto fail = [error](std::size_t line, std::string message,
                      std::size_t column = 1) {
    if (error != nullptr) *error = {line, column, std::move(message)};
    return std::nullopt;
  };

  SweepReportDoc doc;
  std::string line;
  std::size_t line_number = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    JsonParseResult parsed = json_parse(line);
    if (!parsed.ok) return fail(line_number, parsed.error, parsed.offset + 1);
    if (!parsed.value.is_object()) {
      return fail(line_number, "expected a JSON object");
    }
    if (!have_header) {
      const std::string schema = string_at(parsed.value, "schema");
      if (schema != kSweepReportSchema) {
        return fail(line_number, "expected schema '" +
                                     std::string(kSweepReportSchema) +
                                     "', got '" + schema + "'");
      }
      if (string_at(parsed.value, "kind") != "header") {
        return fail(line_number, "first line must have kind 'header'");
      }
      doc.header = std::move(parsed.value);
      have_header = true;
      continue;
    }
    const std::string kind = string_at(parsed.value, "kind");
    if (kind == "cell") {
      doc.cells.push_back(std::move(parsed.value));
    } else if (kind == "summary") {
      doc.summary = std::move(parsed.value);
    }
    // Unknown kinds: skipped so newer writers render on older binaries.
  }
  if (!have_header) return fail(1, "empty stream (no header line)");
  return doc;
}

namespace {

std::string histogram_line(const JsonValue& owner, std::string_view key) {
  const JsonValue* histogram = owner.find(key);
  if (histogram == nullptr || num_at(*histogram, "count") == 0.0) return {};
  std::ostringstream out;
  out << key << ": count "
      << static_cast<std::uint64_t>(num_at(*histogram, "count")) << "  p50 "
      << static_cast<std::uint64_t>(num_at(*histogram, "p50")) << "  p90 "
      << static_cast<std::uint64_t>(num_at(*histogram, "p90")) << "  p99 "
      << static_cast<std::uint64_t>(num_at(*histogram, "p99")) << "  p999 "
      << static_cast<std::uint64_t>(num_at(*histogram, "p999")) << "  max "
      << static_cast<std::uint64_t>(num_at(*histogram, "max"));
  return out.str();
}

}  // namespace

std::string format_sweep_report(const SweepReportDoc& doc) {
  std::ostringstream out;
  out << "sweep report: "
      << static_cast<std::uint64_t>(num_at(doc.header, "cells")) << " cells on "
      << static_cast<std::uint64_t>(num_at(doc.header, "threads"))
      << " threads\n";
  if (doc.has_summary()) {
    const JsonValue& s = doc.summary;
    out << "  wall " << fixed(num_at(s, "wall_ms"), 1) << " ms, serial "
        << fixed(num_at(s, "serial_wall_ms"), 1) << " ms, speedup "
        << fixed(num_at(s, "speedup"), 2) << "x, "
        << fixed(num_at(s, "cells_per_sec"), 1) << " cells/s\n"
        << "  cells: "
        << static_cast<std::uint64_t>(num_at(s, "ok_cells")) << " ok, "
        << static_cast<std::uint64_t>(num_at(s, "failed_cells"))
        << " failed\n";
    for (const char* key : {"decide_ns", "transition_ns", "admission_ns"}) {
      const std::string line = histogram_line(s, key);
      if (!line.empty()) out << "  merged " << line << "\n";
    }
    const JsonValue* rollups = s.find("rollups");
    if (rollups != nullptr) {
      out << "  rollups: jobs "
          << static_cast<std::uint64_t>(num_at(*rollups, "jobs"))
          << ", completed "
          << static_cast<std::uint64_t>(num_at(*rollups, "jobs_completed"))
          << ", profit " << fixed(num_at(*rollups, "profit"), 2)
          << ", lost work " << fixed(num_at(*rollups, "lost_work"), 2) << "\n"
          << "  overload: "
          << static_cast<std::uint64_t>(num_at(*rollups, "overload_breaches"))
          << " breaches, "
          << static_cast<std::uint64_t>(num_at(*rollups, "overload_sheds"))
          << " sheds, "
          << static_cast<std::uint64_t>(
                 num_at(*rollups, "overload_recoveries"))
          << " recoveries\n";
      const JsonValue* failures = rollups->find("sim_failures");
      if (failures != nullptr && failures->is_object() &&
          !failures->members().empty()) {
        out << "  sim failures:";
        for (const auto& [kind, count] : failures->members()) {
          out << " " << kind << "="
              << static_cast<std::uint64_t>(
                     count.is_number() ? count.as_number() : 0.0);
        }
        out << "\n";
      }
    }
    const JsonValue* slowest = s.find("slowest_cells");
    if (slowest != nullptr && slowest->is_array() && slowest->size() > 0) {
      out << "  slowest cells:\n";
      for (const JsonValue& cell : slowest->items()) {
        out << "    " << string_at(cell, "id") << "  "
            << fixed(num_at(cell, "wall_ms"), 1) << " ms\n";
      }
    }
  } else {
    out << "  (no summary line -- sweep did not finish)\n";
  }

  if (!doc.cells.empty()) {
    out << "  cells:\n";
    std::size_t width = 4;
    for (const JsonValue& cell : doc.cells) {
      width = std::max(width, string_at(cell, "id").size());
    }
    for (const JsonValue& cell : doc.cells) {
      std::string id = string_at(cell, "id");
      id.resize(width, ' ');
      out << "    " << id;
      const std::string error = string_at(cell, "error");
      if (!error.empty()) {
        out << "  CONFIG ERROR: " << error << "\n";
        continue;
      }
      const std::string failure = string_at(cell, "failure");
      out << "  profit " << fixed(nested_num(cell, "metrics", "profit"), 2)
          << "  completed "
          << static_cast<std::uint64_t>(
                 nested_num(cell, "metrics", "completed"))
          << "/"
          << static_cast<std::uint64_t>(nested_num(cell, "metrics", "jobs"))
          << "  decisions "
          << static_cast<std::uint64_t>(
                 nested_num(cell, "metrics", "decisions"))
          << "  wall " << fixed(num_at(cell, "wall_ms"), 1) << " ms"
          << "  p99 "
          << static_cast<std::uint64_t>(nested_num(cell, "decide_ns", "p99"))
          << " ns";
      if (!failure.empty() && failure != "none") {
        out << "  FAILED: " << failure;
      }
      out << "\n";
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

const char* sweep_diff_class_name(SweepDiffClass klass) {
  switch (klass) {
    case SweepDiffClass::kOk: return "ok";
    case SweepDiffClass::kImproved: return "improved";
    case SweepDiffClass::kPerfRegression: return "regression";
    case SweepDiffClass::kSemanticChange: return "semantic-change";
    case SweepDiffClass::kNew: return "new";
    case SweepDiffClass::kGone: return "gone";
  }
  return "?";
}

namespace {

/// Noise floors for sweep cells: baselines below these do not classify.
constexpr double kWallFloorMs = 1.0;
constexpr double kP99FloorNs = 1000.0;

void tally(SweepDiff& diff, SweepDiffRow row) {
  switch (row.klass) {
    case SweepDiffClass::kPerfRegression: ++diff.regressions; break;
    case SweepDiffClass::kSemanticChange: ++diff.semantic_changes; break;
    case SweepDiffClass::kImproved: ++diff.improved; break;
    default: break;
  }
  diff.rows.push_back(std::move(row));
}

/// Compares one scalar time-like measurement; appends a detail fragment
/// and upgrades `klass` when the delta crosses the threshold.
void classify_time(double base, double current, double floor,
                   double threshold, std::string_view label,
                   std::string_view unit, SweepDiffClass& klass,
                   std::string& detail) {
  if (base < floor || current < 0.0) return;
  if (base <= 0.0) return;
  const double delta = (current - base) / base;
  if (delta > threshold) {
    // A regression on either measurement outranks an improvement on the
    // other (classify_time only ever sees kOk/kImproved/kPerfRegression).
    klass = SweepDiffClass::kPerfRegression;
    if (!detail.empty()) detail += "; ";
    detail += std::string(label) + " " + fixed(base, 1) + unit.data() +
              " -> " + fixed(current, 1) + unit.data() + " (" +
              percent(delta) + ")";
  } else if (delta < -threshold) {
    if (klass == SweepDiffClass::kOk) klass = SweepDiffClass::kImproved;
    if (!detail.empty()) detail += "; ";
    detail += std::string(label) + " " + fixed(base, 1) + unit.data() +
              " -> " + fixed(current, 1) + unit.data() + " (" +
              percent(delta) + ")";
  }
}

}  // namespace

SweepDiff diff_sweep_reports(const SweepReportDoc& baseline,
                             const SweepReportDoc& current,
                             const SweepDiffOptions& options) {
  SweepDiff diff;
  std::map<std::string, const JsonValue*> current_by_id;
  for (const JsonValue& cell : current.cells) {
    current_by_id[string_at(cell, "id")] = &cell;
  }

  std::map<std::string, bool> seen;
  for (const JsonValue& base_cell : baseline.cells) {
    const std::string id = string_at(base_cell, "id");
    seen[id] = true;
    const auto found = current_by_id.find(id);
    if (found == current_by_id.end()) {
      tally(diff, {id, SweepDiffClass::kGone, "only in baseline"});
      continue;
    }
    const JsonValue& cur_cell = *found->second;

    SweepDiffRow row;
    row.id = id;

    // Semantic identity first: deterministic cells must agree exactly on
    // what happened; any drift outranks a perf delta.
    std::string semantic;
    for (const char* key : {"decisions", "completed", "jobs"}) {
      const double base_value = nested_num(base_cell, "metrics", key, -1.0);
      const double cur_value = nested_num(cur_cell, "metrics", key, -1.0);
      if (base_value != cur_value) {
        if (!semantic.empty()) semantic += "; ";
        semantic += std::string(key) + " " +
                    std::to_string(static_cast<long long>(base_value)) +
                    " -> " +
                    std::to_string(static_cast<long long>(cur_value));
      }
    }
    const double base_profit = nested_num(base_cell, "metrics", "profit");
    const double cur_profit = nested_num(cur_cell, "metrics", "profit");
    if (base_profit != cur_profit) {
      if (!semantic.empty()) semantic += "; ";
      semantic += "profit " + fixed(base_profit, 4) + " -> " +
                  fixed(cur_profit, 4);
    }
    const std::string base_failure = string_at(base_cell, "failure");
    const std::string cur_failure = string_at(cur_cell, "failure");
    if (base_failure != cur_failure) {
      if (!semantic.empty()) semantic += "; ";
      semantic += "failure '" + base_failure + "' -> '" + cur_failure + "'";
    }
    if (!semantic.empty()) {
      row.klass = SweepDiffClass::kSemanticChange;
      row.detail = semantic;
      tally(diff, std::move(row));
      continue;
    }

    classify_time(num_at(base_cell, "wall_ms"), num_at(cur_cell, "wall_ms"),
                  kWallFloorMs, options.threshold, "wall", " ms",
                  row.klass, row.detail);
    classify_time(nested_num(base_cell, "decide_ns", "p99"),
                  nested_num(cur_cell, "decide_ns", "p99"),
                  kP99FloorNs, options.threshold, "decide p99",
                  " ns", row.klass, row.detail);
    tally(diff, std::move(row));
  }
  for (const JsonValue& cell : current.cells) {
    const std::string id = string_at(cell, "id");
    if (!seen.count(id)) {
      tally(diff, {id, SweepDiffClass::kNew, "only in current"});
    }
  }
  return diff;
}

namespace {

/// The bench gate's measurement extraction: {name: real_time_ns} for
/// non-aggregate rows plus "name:counter" for counters ending in _ns.
std::vector<std::pair<std::string, double>> bench_measurements(
    const JsonValue& doc) {
  std::vector<std::pair<std::string, double>> out;
  const JsonValue* measurements = doc.find("measurements");
  if (measurements == nullptr || !measurements->is_array()) return out;
  for (const JsonValue& row : measurements->items()) {
    const JsonValue* aggregate = row.find("aggregate");
    if (aggregate != nullptr && aggregate->is_bool() && aggregate->as_bool()) {
      continue;
    }
    const std::string name = string_at(row, "name");
    const JsonValue* real = row.find("real_time_ns");
    if (name.empty() || real == nullptr || !real->is_number()) continue;
    out.emplace_back(name, real->as_number());
    const JsonValue* counters = row.find("counters");
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [counter, value] : counters->members()) {
        if (counter.size() > 3 &&
            counter.compare(counter.size() - 3, 3, "_ns") == 0 &&
            value.is_number()) {
          out.emplace_back(name + ":" + counter, value.as_number());
        }
      }
    }
  }
  return out;
}

}  // namespace

SweepDiff diff_bench_reports(const JsonValue& baseline,
                             const JsonValue& current,
                             const SweepDiffOptions& options) {
  SweepDiff diff;
  const auto base_rows = bench_measurements(baseline);
  const auto cur_rows = bench_measurements(current);
  const char* const no_rows = "bench report has no non-aggregate measurements";
  if (base_rows.empty()) throw ParseError("baseline", 1, 1, no_rows);
  if (cur_rows.empty()) throw ParseError("current", 1, 1, no_rows);
  std::map<std::string, double> cur_by_name(cur_rows.begin(), cur_rows.end());
  std::map<std::string, double> base_by_name(base_rows.begin(),
                                             base_rows.end());

  for (const auto& [name, base_value] : base_rows) {
    const auto found = cur_by_name.find(name);
    if (found == cur_by_name.end()) {
      tally(diff, {name, SweepDiffClass::kGone, "only in baseline"});
      continue;
    }
    SweepDiffRow row;
    row.id = name;
    classify_time(base_value, found->second, 0.0, options.threshold, "time",
                  " ns", row.klass, row.detail);
    tally(diff, std::move(row));
  }
  for (const auto& [name, value] : cur_rows) {
    (void)value;
    if (!base_by_name.count(name)) {
      tally(diff, {name, SweepDiffClass::kNew, "only in current"});
    }
  }
  return diff;
}

std::string format_sweep_diff(const SweepDiff& diff,
                              std::string_view baseline_label,
                              std::string_view current_label,
                              const SweepDiffOptions& options) {
  std::ostringstream out;
  out << "sweep diff: " << baseline_label << " -> " << current_label
      << " (threshold " << percent(options.threshold) << ")\n";
  std::size_t width = 4;
  for (const SweepDiffRow& row : diff.rows) {
    width = std::max(width, row.id.size());
  }
  std::size_t ok = 0;
  for (const SweepDiffRow& row : diff.rows) {
    if (row.klass == SweepDiffClass::kOk) {
      ++ok;
      continue;  // quiet rows keep 93-cell diffs readable
    }
    std::string id = row.id;
    id.resize(width, ' ');
    out << "  " << id << "  " << sweep_diff_class_name(row.klass);
    if (!row.detail.empty()) out << ": " << row.detail;
    out << "\n";
  }
  out << "  " << diff.rows.size() << " compared: " << ok << " ok, "
      << diff.improved << " improved, " << diff.regressions
      << " regressions, " << diff.semantic_changes << " semantic changes\n";
  return out.str();
}

}  // namespace dagsched

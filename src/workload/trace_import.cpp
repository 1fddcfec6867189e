#include "workload/trace_import.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "dag/builder.h"
#include "util/csv.h"
#include "util/float_cmp.h"
#include "util/parse_error.h"

namespace dagsched {

namespace {

/// Trims surrounding spaces/tabs, adjusting the recorded column so
/// diagnostics still point at the first retained character.
CsvCell trimmed(const CsvCell& cell) {
  const auto first = cell.text.find_first_not_of(" \t");
  if (first == std::string::npos) return {std::string{}, cell.column};
  const auto last = cell.text.find_last_not_of(" \t");
  return {cell.text.substr(first, last - first + 1), cell.column + first};
}

double parse_number(const std::string& source, std::size_t line,
                    const CsvCell& cell, const char* what) {
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(cell.text, &used);
  } catch (const std::exception&) {
    throw ParseError(source, line, cell.column,
                     std::string("bad ") + what + " '" + cell.text + "'");
  }
  if (used != cell.text.size()) {
    throw ParseError(source, line, cell.column,
                     std::string("trailing junk in ") + what + " '" +
                         cell.text + "'");
  }
  if (!std::isfinite(value)) {
    throw ParseError(source, line, cell.column,
                     std::string(what) + " must be finite, got '" + cell.text +
                         "'");
  }
  return value;
}

/// A Figure-1-style DAG with total work ~W and span ~L (exact up to node
/// rounding): a chain realizing the span beside an independent block, in
/// nodes of span/ceil(span) work so the span is met exactly.
std::shared_ptr<const Dag> synthesize_dag(Work work, Work span) {
  const auto chain_nodes =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(span)));
  const double node = span / static_cast<double>(chain_nodes);
  DagBuilder b;
  b.add_chain(chain_nodes, node);
  Work remaining = work - span;
  while (remaining > 1e-9) {
    const Work chunk = std::min(remaining, node);
    b.add_node(chunk);
    remaining -= chunk;
  }
  return std::make_shared<const Dag>(std::move(b).build());
}

}  // namespace

JobSet import_trace_csv(std::istream& is, const std::string& source) {
  std::string line;
  std::size_t lineno = 0;

  // Header.
  if (!std::getline(is, line)) throw ParseError(source, 1, 1, "empty input");
  ++lineno;
  {
    const auto header = split_csv_line(line);
    const std::vector<std::string> expected = {"release", "work", "span",
                                               "deadline", "profit"};
    bool ok = header.size() == expected.size();
    std::size_t bad_column = 1;
    for (std::size_t i = 0; ok && i < expected.size(); ++i) {
      if (trimmed(header[i]).text != expected[i]) {
        ok = false;
        bad_column = header[i].column;
      }
    }
    if (!ok) {
      throw ParseError(
          source, lineno, bad_column,
          "bad header (expected 'release,work,span,deadline,profit')");
    }
  }

  JobSet jobs;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line[0] == '#') continue;
    const auto raw_cells = split_csv_line(line);
    if (raw_cells.size() != 5) {
      throw ParseError(source, lineno, 1,
                       "expected 5 fields, got " +
                           std::to_string(raw_cells.size()));
    }
    CsvCell cells[5];
    for (std::size_t i = 0; i < 5; ++i) cells[i] = trimmed(raw_cells[i]);
    const double release = parse_number(source, lineno, cells[0], "release");
    const double work = parse_number(source, lineno, cells[1], "work");
    const double span = parse_number(source, lineno, cells[2], "span");
    const double deadline = parse_number(source, lineno, cells[3], "deadline");
    const double profit = parse_number(source, lineno, cells[4], "profit");
    if (release < 0.0) {
      throw ParseError(source, lineno, cells[0].column, "negative release");
    }
    if (!(work > 0.0)) {
      throw ParseError(source, lineno, cells[1].column, "non-positive work");
    }
    if (!(span > 0.0)) {
      throw ParseError(source, lineno, cells[2].column, "non-positive span");
    }
    if (span > work + 1e-9) {
      throw ParseError(source, lineno, cells[2].column,
                       "span " + cells[2].text + " exceeds work " +
                           cells[1].text);
    }
    if (!(deadline > 0.0)) {
      throw ParseError(source, lineno, cells[3].column,
                       "non-positive deadline");
    }
    if (!(profit > 0.0)) {
      throw ParseError(source, lineno, cells[4].column, "non-positive profit");
    }
    jobs.add(Job::with_deadline(synthesize_dag(work, span), release, deadline,
                                profit));
  }
  jobs.finalize();
  return jobs;
}

JobSet load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return import_trace_csv(in, path);
}

void export_trace_csv(std::ostream& os, const JobSet& jobs) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "release,work,span,deadline,profit\n";
  for (const Job& job : jobs.jobs()) {
    os << job.release() << ',' << job.work() << ',' << job.span() << ','
       << job.profit().plateau_end() << ',' << job.peak_profit() << '\n';
  }
}

}  // namespace dagsched

#include "sim/gantt.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace dagsched {

namespace {

constexpr std::size_t kAsciiWidth = 100;  // character columns
constexpr double kSvgWidth = 960.0;        // pixels
constexpr double kSvgRowHeight = 22.0;     // pixels per processor row

/// Trace extent [lo, hi); falls back to [0, 1) for empty traces.
std::pair<Time, Time> extent(const Trace& trace) {
  Time lo = kTimeInfinity, hi = 0.0;
  for (const TraceInterval& iv : trace.intervals()) {
    lo = std::min(lo, iv.start);
    hi = std::max(hi, iv.end);
  }
  if (!(lo < hi)) return {0.0, 1.0};
  return {lo, hi};
}

const char* kSvgPalette[] = {"#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
                             "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
                             "#9c755f", "#bab0ac"};

}  // namespace

void write_ascii_gantt(std::ostream& os, const Trace& trace, ProcCount m) {
  DS_CHECK(m >= 1);
  const auto [lo, hi] = extent(trace);
  const double scale = static_cast<double>(kAsciiWidth) / (hi - lo);

  std::vector<std::string> rows(m, std::string(kAsciiWidth, '.'));
  std::set<JobId> jobs_seen;
  for (const TraceInterval& iv : trace.intervals()) {
    if (iv.proc >= m || iv.end <= lo || iv.start >= hi) continue;
    jobs_seen.insert(iv.job);
    const auto first = static_cast<std::size_t>(
        std::max(0.0, (iv.start - lo) * scale));
    auto last = static_cast<std::size_t>(
        std::min(static_cast<double>(kAsciiWidth),
                 (iv.end - lo) * scale + 0.999));
    last = std::max(last, first + 1);
    const char symbol = static_cast<char>('0' + iv.job % 10);
    for (std::size_t c = first; c < std::min(last, kAsciiWidth); ++c) {
      rows[iv.proc][c] = symbol;
    }
  }

  os << "t = [" << lo << ", " << hi << ")\n";
  for (ProcCount p = 0; p < m; ++p) {
    os << "P" << p << (p < 10 ? " " : "") << " |" << rows[p] << "|\n";
  }
  if (!jobs_seen.empty() && jobs_seen.size() <= 10) {
    os << "legend:";
    for (const JobId job : jobs_seen) {
      os << " J" << job << "='" << static_cast<char>('0' + job % 10) << "'";
    }
    os << "\n";
  }
}

std::string to_ascii_gantt(const Trace& trace, ProcCount m) {
  std::ostringstream oss;
  write_ascii_gantt(oss, trace, m);
  return oss.str();
}

void write_svg_gantt(std::ostream& os, const Trace& trace, ProcCount m) {
  DS_CHECK(m >= 1);
  const auto [lo, hi] = extent(trace);
  const double margin = 40.0;
  const double scale = (kSvgWidth - margin) / (hi - lo);
  const double height = kSvgRowHeight * static_cast<double>(m) + 30.0;

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kSvgWidth
     << "\" height=\"" << height << "\">\n";
  for (ProcCount p = 0; p < m; ++p) {
    const double y = 10.0 + kSvgRowHeight * static_cast<double>(p);
    os << "  <text x=\"2\" y=\"" << y + kSvgRowHeight * 0.7
       << "\" font-size=\"11\">P" << p << "</text>\n";
    os << "  <line x1=\"" << margin << "\" y1=\""
       << y + kSvgRowHeight - 2.0 << "\" x2=\"" << kSvgWidth
       << "\" y2=\"" << y + kSvgRowHeight - 2.0
       << "\" stroke=\"#ddd\"/>\n";
  }
  for (const TraceInterval& iv : trace.intervals()) {
    if (iv.proc >= m || iv.end <= lo || iv.start >= hi) continue;
    const double x = margin + (iv.start - lo) * scale;
    const double w = (iv.end - iv.start) * scale;
    const double y = 10.0 + kSvgRowHeight * static_cast<double>(iv.proc);
    const char* color = kSvgPalette[iv.job % 10];
    os << "  <rect x=\"" << x << "\" y=\"" << y + 2.0 << "\" width=\""
       << std::max(w, 0.5) << "\" height=\"" << kSvgRowHeight - 6.0
       << "\" fill=\"" << color << "\"><title>J" << iv.job << " node "
       << iv.node << " [" << iv.start << ", " << iv.end
       << ")</title></rect>\n";
  }
  os << "</svg>\n";
}

std::string to_svg_gantt(const Trace& trace, ProcCount m) {
  std::ostringstream oss;
  write_svg_gantt(oss, trace, m);
  return oss.str();
}

}  // namespace dagsched

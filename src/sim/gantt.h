// Gantt-chart rendering of execution traces.
//
// ASCII output for terminals/examples and SVG for reports.  Each processor
// is a row; intervals are labelled by job id (ASCII) or colored per job
// (SVG).  Inputs come from SimResult::trace when SimOptions::record_trace
// is set.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/trace.h"
#include "util/types.h"

namespace dagsched {

struct GanttOptions {
  /// Character columns for the time axis (ASCII).
  std::size_t width = 100;
  /// Restrict to [t0, t1); t1 <= t0 means the trace's full extent.
  Time t0 = 0.0;
  Time t1 = 0.0;
  /// SVG pixel size.
  double svg_width = 960.0;
  double svg_row_height = 22.0;
};

/// Renders an ASCII Gantt chart: one row per processor, '.' for idle, the
/// job id's last digit (or '#') for busy columns.  A legend maps symbols to
/// job ids when at most 10 jobs appear.
void write_ascii_gantt(std::ostream& os, const Trace& trace, ProcCount m,
                       const GanttOptions& options = {});

std::string to_ascii_gantt(const Trace& trace, ProcCount m,
                           const GanttOptions& options = {});

/// Renders an SVG Gantt chart; colors are assigned per job id from a fixed
/// palette.
void write_svg_gantt(std::ostream& os, const Trace& trace, ProcCount m,
                     const GanttOptions& options = {});

std::string to_svg_gantt(const Trace& trace, ProcCount m,
                         const GanttOptions& options = {});

}  // namespace dagsched

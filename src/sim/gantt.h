// Gantt-chart rendering of execution traces.
//
// ASCII output for terminals/examples and SVG for reports.  Each processor
// is a row; intervals are labelled by job id (ASCII) or colored per job
// (SVG).  Both span the trace's full extent: 100 character columns (ASCII)
// or 960 pixels wide with 22-pixel rows (SVG).  Inputs come from
// SimResult::trace when SimOptions::record_trace is set.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/trace.h"
#include "util/types.h"

namespace dagsched {

/// Renders an ASCII Gantt chart: one row per processor, '.' for idle, the
/// job id's last digit (or '#') for busy columns.  A legend maps symbols to
/// job ids when at most 10 jobs appear.
void write_ascii_gantt(std::ostream& os, const Trace& trace, ProcCount m);

std::string to_ascii_gantt(const Trace& trace, ProcCount m);

/// Renders an SVG Gantt chart; colors are assigned per job id from a fixed
/// palette.
void write_svg_gantt(std::ostream& os, const Trace& trace, ProcCount m);

std::string to_svg_gantt(const Trace& trace, ProcCount m);

}  // namespace dagsched

// Import parameterized job traces from CSV -- the substitution hook for
// production cluster traces (which record per-job work, critical path and
// deadlines, not DAG structure).
//
// Expected columns (header required, extra columns rejected):
//     release,work,span,deadline,profit
//
// Because traces carry no DAG structure, each row is synthesized into a
// Figure-1-style program with exactly the recorded totals: a chain of
// span `L` next to an independent parallel block of `W - L`, in nodes of
// at most unit work.  That shape is the *least favorable* DAG with the
// given (W, L) for a semi-non-clairvoyant scheduler (Theorem 1), so
// results on imported traces are conservative for the paper's algorithms.
#pragma once

#include <iosfwd>
#include <string>

#include "job/job.h"

namespace dagsched {

/// Parses the CSV; throws ParseError (util/parse_error.h, a
/// std::runtime_error) with "source:line:column" positioning on malformed
/// input (bad header, non-numeric or non-finite fields, span > work,
/// non-positive values).  CRLF line endings and trailing blank lines are
/// tolerated.  `source` names the input in diagnostics.
JobSet import_trace_csv(std::istream& is,
                        const std::string& source = "<stream>");

JobSet load_trace_csv(const std::string& path);

/// Exports a JobSet as a parameterized trace (the inverse direction: DAG
/// structure is dropped, only release/W/L/deadline/profit survive -- for
/// handing instances to tools that only understand flat traces).  Jobs
/// with non-step profits export their plateau end as the deadline and
/// their peak as the profit.
void export_trace_csv(std::ostream& os, const JobSet& jobs);

}  // namespace dagsched

// Plain-text (de)serialization of workloads, so experiment instances can be
// saved, diffed and shared.  Format (line-oriented, '#' comments):
//
//   dagsched-workload 1
//   job <release>
//   profit step <p> <D>
//        | plateau_linear <p> <plateau_end> <zero_at>
//        | plateau_exp <p> <plateau_end> <rate>
//        | piecewise <k> <t1> <p1> ... <tk> <pk>
//   nodes <n>
//   <w0> <w1> ... <w_{n-1}>
//   edges <e>
//   <u> <v>            (e lines)
//   end
//
// Numbers round-trip exactly (printed with max precision).  Reals use
// std::stod's grammar and indices are plain digit strings (docs/FORMAT.md).
// read_workload throws ParseError (util/parse_error.h, a
// std::runtime_error) with "source:line:column" positioning on malformed
// input; values are validated (finite, positive work, in-range edge
// endpoints, acyclic).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "job/job.h"

namespace dagsched {

void write_workload(std::ostream& os, const JobSet& jobs);
/// Parses the whole workload from `bytes`; the JobSet keeps no reference
/// to them.  `source` names the input in diagnostics (file path or
/// "<stream>").  Inputs above 256 KiB are cut into pieces at `job` lines
/// and parsed on up to one thread per core; if any piece fails, the records
/// are parsed again serially, so diagnostics are those of a serial parse.
JobSet read_workload(std::string_view bytes, const std::string& source);
/// Reads the stream to its end, then parses those bytes.
JobSet read_workload(std::istream& is,
                     const std::string& source = "<stream>");

/// File convenience wrappers; throw std::runtime_error on I/O failure.
/// load_workload maps the file (util/file_bytes.h) and parses it in place.
void save_workload(const std::string& path, const JobSet& jobs);
JobSet load_workload(const std::string& path);

namespace detail {
/// read_workload with the records cut into at most `chunks` pieces (one
/// per thread); read_workload picks the count from the input size.  Tests
/// call it to pin that every count gives the same result.
JobSet read_workload_chunked(std::string_view bytes, const std::string& source,
                             std::size_t chunks);
}  // namespace detail

}  // namespace dagsched

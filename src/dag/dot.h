// Graphviz DOT export for visual inspection of generated DAGs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dag/dag.h"

namespace dagsched {

/// Longest-path weight of any path *ending* at each node, inclusive of the
/// node's own work ("top level"), indexed by node id.  Computed on demand:
/// the Dag stores only bottom levels, which the selectors read.
std::vector<Work> top_levels(const Dag& dag);

/// Writes `dag` in DOT format.  Node labels show "id / work"; critical-path
/// nodes (those whose top+bottom level equals the span) are highlighted.
void write_dot(std::ostream& os, const Dag& dag,
               const std::string& graph_name = "dag");

/// Convenience overload returning the DOT text.
std::string to_dot(const Dag& dag, const std::string& graph_name = "dag");

}  // namespace dagsched

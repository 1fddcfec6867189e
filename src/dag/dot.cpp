#include "dag/dot.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/float_cmp.h"

namespace dagsched {

std::vector<Work> top_levels(const Dag& dag) {
  std::vector<Work> top(dag.num_nodes(), 0.0);
  for (const NodeId v : dag.topological_order()) {
    Work longest_prefix = 0.0;
    for (const NodeId u : dag.predecessors(v)) {
      longest_prefix = std::max(longest_prefix, top[u]);
    }
    top[v] = longest_prefix + dag.node_work(v);
  }
  return top;
}

void write_dot(std::ostream& os, const Dag& dag,
               const std::string& graph_name) {
  os << "digraph " << graph_name << " {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=circle, fontsize=10];\n";
  const std::vector<Work> top = top_levels(dag);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    // A node is on a critical path iff the longest path through it has the
    // full span weight.
    const bool critical =
        approx_eq(top[v] + dag.bottom_level(v) - dag.node_work(v),
                  dag.span());
    os << "  n" << v << " [label=\"" << v << "\\n" << dag.node_work(v) << "\"";
    if (critical) os << ", style=filled, fillcolor=lightcoral";
    os << "];\n";
  }
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (NodeId succ : dag.successors(v)) {
      os << "  n" << v << " -> n" << succ << ";\n";
    }
  }
  os << "}\n";
}

std::string to_dot(const Dag& dag, const std::string& graph_name) {
  std::ostringstream oss;
  write_dot(oss, dag, graph_name);
  return oss.str();
}

}  // namespace dagsched

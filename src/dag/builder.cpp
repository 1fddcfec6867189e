#include "dag/builder.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace dagsched {

Dag pack_dag(std::span<const Work> works,
             std::span<const std::pair<NodeId, NodeId>> edges,
             std::vector<NodeId>& pending) {
  if (works.empty()) throw std::invalid_argument("DAG must be non-empty");
  DS_CHECK(works.size() < std::numeric_limits<NodeId>::max());
  DS_CHECK(edges.size() < std::numeric_limits<std::uint32_t>::max());
  const auto n = static_cast<NodeId>(works.size());
  const auto m = static_cast<std::uint32_t>(edges.size());

  Dag dag;
  dag.n_ = n;
  dag.m_ = m;
  dag.block_ =
      std::make_unique_for_overwrite<std::byte[]>(Dag::block_bytes(n, m));
  Work* const work = dag.works_begin();
  Work* const bottom = work + n;
  NodeId* const succ_off = dag.succ_off();
  NodeId* const pred_off = dag.pred_off();
  NodeId* const topo = dag.topo();
  NodeId* const succ = dag.succ();
  NodeId* const pred = dag.pred();
  std::copy(works.begin(), works.end(), work);

  // Successor rows by counting sort: out-degrees become row ends, and the
  // edges, taken last to first, drop in at their row's decremented end.
  // That keeps each row in input order and leaves every offset at its
  // row's start.
  std::fill_n(succ_off, n + 1, NodeId{0});
  for (const auto& [from, to] : edges) {
    DS_CHECK(from < n && to < n && from != to);
    ++succ_off[from];
  }
  for (NodeId v = 1; v < n; ++v) succ_off[v] += succ_off[v - 1];
  succ_off[n] = m;
  for (std::uint32_t e = m; e-- > 0;) {
    succ[--succ_off[edges[e].first]] = edges[e].second;
  }

  // Each row sorted on its own (a row already strictly ascending, as a
  // written workload's are, is left as it is).  Scanning the rows in id
  // order finds the lexicographically smallest duplicated pair first;
  // duplicates are rejected (they usually indicate a generator bug and
  // would skew in-degree bookkeeping).
  for (NodeId v = 0; v < n; ++v) {
    NodeId* const row = succ + succ_off[v];
    NodeId* const row_end = succ + succ_off[v + 1];
    if (std::adjacent_find(row, row_end, std::greater_equal<>()) == row_end) {
      continue;
    }
    std::sort(row, row_end);
    const NodeId* const dup = std::adjacent_find(row, row_end);
    if (dup != row_end) {
      throw std::invalid_argument("duplicate edge " + std::to_string(v) +
                                  "->" + std::to_string(*dup));
    }
  }

  // Predecessor rows the same way.  Filling from the highest source id
  // down leaves each row in ascending order.
  std::fill_n(pred_off, n + 1, NodeId{0});
  for (std::uint32_t e = 0; e < m; ++e) ++pred_off[succ[e]];
  for (NodeId v = 1; v < n; ++v) pred_off[v] += pred_off[v - 1];
  pred_off[n] = m;
  for (NodeId v = n; v-- > 0;) {
    for (NodeId e = succ_off[v]; e < succ_off[v + 1]; ++e) {
      pred[--pred_off[succ[e]]] = v;
    }
  }

  // Kahn topological sort, sources first in id order; doubles as the
  // acyclicity check.  Total work is summed in the same topological order.
  pending.resize(n);
  NodeId tail = 0;
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = pred_off[v + 1] - pred_off[v];
    if (pending[v] == 0) topo[tail++] = v;
  }
  dag.num_sources_ = tail;
  Work total_work = 0.0;
  for (NodeId head = 0; head < tail; ++head) {
    const NodeId u = topo[head];
    total_work += work[u];
    for (NodeId e = succ_off[u]; e < succ_off[u + 1]; ++e) {
      if (--pending[succ[e]] == 0) topo[tail++] = succ[e];
    }
  }
  if (tail != n) throw std::invalid_argument("DAG contains a cycle");

  // Bottom levels by one backward sweep of the topological order; the span
  // is the largest bottom level of a source.
  for (NodeId i = n; i-- > 0;) {
    const NodeId v = topo[i];
    Work longest_suffix = 0.0;
    for (NodeId e = succ_off[v]; e < succ_off[v + 1]; ++e) {
      longest_suffix = std::max(longest_suffix, bottom[succ[e]]);
    }
    bottom[v] = longest_suffix + work[v];
  }
  Work span = 0.0;
  for (NodeId i = 0; i < dag.num_sources_; ++i) {
    span = std::max(span, bottom[topo[i]]);
  }
  dag.total_work_ = total_work;
  dag.span_ = span;
  DS_CHECK(dag.span_ > 0.0);
  DS_CHECK(dag.span_ <= dag.total_work_ + 1e-9);
  return dag;
}

void DagBuilder::reserve(std::size_t nodes, std::size_t edges) {
  work_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId DagBuilder::add_node(Work processing_time) {
  if (!(processing_time > 0.0)) {
    // Shortest round-trip form: -1e-09, not std::to_string's -0.000000.
    char text[32];
    const auto printed =
        std::to_chars(text, text + sizeof text, processing_time);
    throw std::invalid_argument("node processing time must be > 0, got " +
                                std::string(text, printed.ptr));
  }
  if (work_.size() >= std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument("too many nodes");
  }
  work_.push_back(processing_time);
  return static_cast<NodeId>(work_.size() - 1);
}

void DagBuilder::add_edge(NodeId from, NodeId to) {
  if (from >= work_.size() || to >= work_.size()) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (from == to) {
    throw std::invalid_argument("self-edge on node " + std::to_string(from));
  }
  edges_.emplace_back(from, to);
}

std::pair<NodeId, NodeId> DagBuilder::add_chain(std::size_t count,
                                                Work node_work) {
  if (count == 0) throw std::invalid_argument("add_chain: count must be > 0");
  const NodeId first = add_node(node_work);
  NodeId prev = first;
  for (std::size_t i = 1; i < count; ++i) {
    const NodeId next = add_node(node_work);
    add_edge(prev, next);
    prev = next;
  }
  return {first, prev};
}

Dag DagBuilder::build() && {
  std::vector<NodeId> pending;
  return pack_dag(work_, edges_, pending);
}

}  // namespace dagsched

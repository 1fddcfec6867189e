// Mutable construction interface for Dag, and the one routine that packs a
// node/edge list into a Dag.
//
// Usage:
//   DagBuilder b;
//   NodeId a = b.add_node(2.0);
//   NodeId c = b.add_node(1.5);
//   b.add_edge(a, c);
//   Dag dag = std::move(b).build();   // validates: acyclic, positive work
//
// add_node() and add_edge() throw std::invalid_argument on non-positive
// node work, self-edges and out-of-range endpoints; build() throws it on an
// empty DAG, duplicate edges and cycles.  Disconnected DAGs are allowed (the
// paper's Figure-1 construction is a chain next to an independent block).
// The workload parser checks the per-node and per-edge rules itself, with
// positions, and then calls pack_dag() directly.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dag/dag.h"
#include "util/types.h"

namespace dagsched {

/// Packs `works` (node processing times, all > 0) and `edges` ((from, to)
/// pairs, endpoints in range, no self-edges) into a Dag: counting-sorts the
/// edges into CSR rows, sorts each row, runs Kahn's algorithm and the
/// bottom-level pass.  Throws std::invalid_argument on an empty node list,
/// a duplicate edge (naming the smallest duplicated `a->b` pair) or a
/// cycle.  `pending` is scratch for Kahn's in-degree counters; a caller
/// packing many DAGs passes the same vector each time.
Dag pack_dag(std::span<const Work> works,
             std::span<const std::pair<NodeId, NodeId>> edges,
             std::vector<NodeId>& pending);

class DagBuilder {
 public:
  DagBuilder() = default;

  /// Reserve capacity for `nodes` nodes (optional optimization).
  void reserve(std::size_t nodes, std::size_t edges = 0);

  /// Adds a node with the given processing time (> 0); returns its id.
  NodeId add_node(Work processing_time);

  /// Adds a precedence edge: `to` cannot start until `from` completes.
  void add_edge(NodeId from, NodeId to);

  /// Convenience: adds a chain of `count` nodes with `node_work` each,
  /// connected consecutively; returns (first, last) ids.
  std::pair<NodeId, NodeId> add_chain(std::size_t count, Work node_work);

  /// Validates and produces the immutable Dag (through pack_dag()).
  /// Consumes the builder.
  Dag build() &&;

 private:
  std::vector<Work> work_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace dagsched

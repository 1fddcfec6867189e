// Immutable DAG program representation.
//
// A job's program is a directed acyclic graph whose nodes are sequential
// chunks of work and whose edges are precedence constraints (the model of
// Cilk/OpenMP-style parallel programs used by the paper).  The structure is
// stored in CSR form (flat edge arrays + offsets) for cache-friendly
// traversal; derived metrics (total work W, span L, per-node longest-path
// heights) are computed once at construction.
//
// Instances are created through DagBuilder (builder.h) or the generators
// (generators.h) and are immutable afterwards; runtime execution state lives
// in UnfoldingState (unfolding.h).
#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace dagsched {

class DagBuilder;

class Dag {
 public:
  /// Number of nodes. DAGs are non-empty.
  NodeId num_nodes() const { return static_cast<NodeId>(work_.size()); }

  std::size_t num_edges() const { return succ_flat_.size(); }

  /// Processing time of `node` on a unit-speed processor. Always > 0.
  Work node_work(NodeId node) const { return work_[node]; }

  /// Every node's processing time, indexed by node id.
  std::span<const Work> node_works() const { return work_; }

  std::span<const NodeId> successors(NodeId node) const {
    return {succ_flat_.data() + succ_off_[node],
            succ_off_[node + 1] - succ_off_[node]};
  }

  std::span<const NodeId> predecessors(NodeId node) const {
    return {pred_flat_.data() + pred_off_[node],
            pred_off_[node + 1] - pred_off_[node]};
  }

  NodeId in_degree(NodeId node) const {
    return static_cast<NodeId>(pred_off_[node + 1] - pred_off_[node]);
  }

  NodeId out_degree(NodeId node) const {
    return static_cast<NodeId>(succ_off_[node + 1] - succ_off_[node]);
  }

  /// Total work W = sum of node processing times.
  Work total_work() const { return total_work_; }

  /// Span (critical-path length) L = weight of the heaviest directed path.
  Work span() const { return span_; }

  /// Nodes with no predecessors; non-empty for any valid DAG.
  std::span<const NodeId> sources() const { return sources_; }

  /// Nodes with no successors.
  std::span<const NodeId> sinks() const { return sinks_; }

  /// A topological order of all nodes (sources first).
  std::span<const NodeId> topological_order() const { return topo_; }

  /// Longest-path weight of any path *starting* at `node`, inclusive of the
  /// node's own work ("bottom level").  max over sources == span().
  /// Used by critical-path-aware node-selection policies: a clairvoyant
  /// executor runs high-bottom-level nodes first; the Theorem-1 adversary
  /// runs low-bottom-level nodes first.
  Work bottom_level(NodeId node) const { return bottom_level_[node]; }

  /// Longest-path weight of any path *ending* at `node`, inclusive.
  Work top_level(NodeId node) const { return top_level_[node]; }

 private:
  friend class DagBuilder;
  Dag() = default;

  std::vector<Work> work_;
  std::vector<std::size_t> succ_off_, pred_off_;
  std::vector<NodeId> succ_flat_, pred_flat_;
  std::vector<NodeId> sources_, sinks_, topo_;
  std::vector<Work> bottom_level_, top_level_;
  Work total_work_ = 0.0;
  Work span_ = 0.0;
};

}  // namespace dagsched

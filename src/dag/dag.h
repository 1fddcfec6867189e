// Immutable DAG program representation.
//
// A job's program is a directed acyclic graph whose nodes are sequential
// chunks of work and whose edges are precedence constraints (the model of
// Cilk/OpenMP-style parallel programs used by the paper).
//
// Each Dag owns one packed heap block with 32-bit indices (n nodes, m
// edges):
//
//   f64  work[n]           node processing times
//   f64  bottom_level[n]   longest path starting at the node (the span pass)
//   u32  succ_off[n+1]     CSR row offsets into succ
//   u32  pred_off[n+1]     CSR row offsets into pred
//   u32  topo[n]           Kahn order; its first num_sources entries are the
//                          sources, in id order
//   u32  succ[m], pred[m]  adjacency rows, each in ascending id order
//
// Total work W and span L sit beside the block.  Everything is computed
// once, by pack_dag() (builder.h), which both DagBuilder and the workload
// parser call; the Dag is immutable afterwards, and runtime execution state
// lives in UnfoldingState (unfolding.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "util/types.h"

namespace dagsched {

/// Move-only: jobs that run the same program share one Dag through
/// std::shared_ptr (job.h).
class Dag {
 public:
  /// Number of nodes. DAGs are non-empty.
  NodeId num_nodes() const { return n_; }

  std::size_t num_edges() const { return m_; }

  /// Processing time of `node` on a unit-speed processor. Always > 0.
  Work node_work(NodeId node) const { return works_begin()[node]; }

  /// Every node's processing time, indexed by node id.
  std::span<const Work> node_works() const { return {works_begin(), n_}; }

  std::span<const NodeId> successors(NodeId node) const {
    const NodeId* off = succ_off();
    return {succ() + off[node], off[node + 1] - off[node]};
  }

  std::span<const NodeId> predecessors(NodeId node) const {
    const NodeId* off = pred_off();
    return {pred() + off[node], off[node + 1] - off[node]};
  }

  NodeId in_degree(NodeId node) const {
    return pred_off()[node + 1] - pred_off()[node];
  }

  NodeId out_degree(NodeId node) const {
    return succ_off()[node + 1] - succ_off()[node];
  }

  /// Total work W = sum of node processing times.
  Work total_work() const { return total_work_; }

  /// Span (critical-path length) L = weight of the heaviest directed path.
  Work span() const { return span_; }

  /// Nodes with no predecessors, in id order; non-empty for any valid DAG.
  std::span<const NodeId> sources() const { return {topo(), num_sources_}; }

  /// A topological order of all nodes (sources first).
  std::span<const NodeId> topological_order() const { return {topo(), n_}; }

  /// Longest-path weight of any path *starting* at `node`, inclusive of the
  /// node's own work ("bottom level").  max over sources == span().
  /// Used by critical-path-aware node-selection policies: a clairvoyant
  /// executor runs high-bottom-level nodes first; the Theorem-1 adversary
  /// runs low-bottom-level nodes first.
  Work bottom_level(NodeId node) const { return works_begin()[n_ + node]; }

  /// Heap bytes of this Dag: the object plus its packed block.
  std::size_t memory_bytes() const { return sizeof(Dag) + block_bytes(n_, m_); }

 private:
  friend Dag pack_dag(std::span<const Work> works,
                      std::span<const std::pair<NodeId, NodeId>> edges,
                      std::vector<NodeId>& pending);
  Dag() = default;

  static std::size_t block_bytes(std::size_t n, std::size_t m) {
    return 2 * n * sizeof(Work) + (3 * n + 2 + 2 * m) * sizeof(NodeId);
  }

  // The block is a std::byte array, whose allocation implicitly creates
  // the f64 and u32 arrays laid out in it; std::launder reaches them.
  Work* works_begin() const {
    return std::launder(reinterpret_cast<Work*>(block_.get()));
  }
  NodeId* succ_off() const {
    return std::launder(reinterpret_cast<NodeId*>(
        block_.get() + 2 * std::size_t{n_} * sizeof(Work)));
  }
  NodeId* pred_off() const { return succ_off() + n_ + 1; }
  NodeId* topo() const { return pred_off() + n_ + 1; }
  NodeId* succ() const { return topo() + n_; }
  NodeId* pred() const { return succ() + m_; }

  std::unique_ptr<std::byte[]> block_;
  NodeId n_ = 0;
  std::uint32_t m_ = 0;
  NodeId num_sources_ = 0;
  Work total_work_ = 0.0;
  Work span_ = 0.0;
};

}  // namespace dagsched

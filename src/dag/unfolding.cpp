#include "dag/unfolding.h"

#include <algorithm>

#include "util/arena.h"
#include "util/check.h"
#include "util/float_cmp.h"
#include "util/wire.h"

namespace dagsched {

void UnfoldingState::allocate_block() {
  const std::size_t rem_bytes = sizeof(Work) * n_;
  const std::size_t idx_bytes = sizeof(NodeId) * 4 * static_cast<std::size_t>(n_);
  auto* base = static_cast<std::byte*>(
      arena_->allocate(rem_bytes + idx_bytes, alignof(Work)));
  rem_ = reinterpret_cast<Work*>(base);
  idx_ = reinterpret_cast<NodeId*>(base + rem_bytes);
}

Work* UnfoldingState::ensure_init() {
  if (init_ != nullptr) return init_;
  init_ = arena_->allocate_array<Work>(n_);
  for (NodeId v = 0; v < n_; ++v) init_[v] = dag_->node_work(v);
  return init_;
}

void UnfoldingState::init_structure(const Dag& dag, bool fill_rem) {
  // Pending-pred counts, the (empty) ready list, ready positions, statuses
  // -- and, for the plain constructor, the remaining-work column fused into
  // the same pass over the fresh block (one sweep instead of two; the
  // fault-scaled constructor fills rem_ itself).  Sources become ready in
  // id order.  The ready list's unused tail holds kNpos, here and after
  // every removal, so the block's bytes (which save_state writes whole)
  // depend only on the job's state, never on what the arena held before.
  NodeId* pending = idx_ + pending_off();
  NodeId* ready = idx_ + ready_off();
  NodeId* ready_pos = idx_ + ready_pos_off();
  for (NodeId v = 0; v < n_; ++v) {
    if (fill_rem) rem_[v] = dag.node_work(v);
    pending[v] = dag.in_degree(v);
    ready[v] = kNpos;
    ready_pos[v] = kNpos;
    set_status(v, Status::kWaiting);
  }
  for (NodeId v : dag.sources()) {
    set_status(v, Status::kReady);
    ready_pos[v] = ready_size_;
    ready[ready_size_++] = v;
  }
}

UnfoldingState::UnfoldingState(const Dag& dag, BumpArena& arena)
    : dag_(&dag),
      arena_(&arena),
      n_(static_cast<NodeId>(dag.num_nodes())),
      nodes_remaining_(static_cast<NodeId>(dag.num_nodes())),
      total_remaining_(dag.total_work()) {
  allocate_block();
  init_structure(dag, /*fill_rem=*/true);
}

UnfoldingState::UnfoldingState(const Dag& dag, const std::vector<Work>& works,
                               BumpArena& arena)
    : dag_(&dag),
      arena_(&arena),
      n_(static_cast<NodeId>(dag.num_nodes())),
      nodes_remaining_(static_cast<NodeId>(dag.num_nodes())) {
  DS_CHECK_MSG(works.size() == dag.num_nodes(),
               "works size " << works.size() << " != nodes "
                             << dag.num_nodes());
  allocate_block();
  Work* init = ensure_init();
  for (NodeId v = 0; v < n_; ++v) {
    DS_CHECK_MSG(works[v] > 0.0,
                 "node " << v << " has non-positive work " << works[v]);
    init[v] = works[v];
    rem_[v] = works[v];
    total_remaining_ += works[v];
  }
  init_structure(dag, /*fill_rem=*/false);
}

Work UnfoldingState::reset_progress(NodeId node) {
  DS_CHECK_MSG(status(node) != Status::kDone,
               "reset_progress on completed node " << node);
  const Work initial = initial_work(node);
  const Work lost = initial - rem_[node];
  rem_[node] = initial;
  total_remaining_ += lost;
  return lost;
}

bool UnfoldingState::advance(NodeId node, Work amount,
                             std::vector<NodeId>* newly_ready) {
  DS_CHECK_MSG(status(node) == Status::kReady,
               "advance on non-ready node " << node);
  DS_CHECK_MSG(amount >= 0.0, "negative work amount " << amount);
  Work& remaining = rem_[node];
  remaining = snap_nonnegative(remaining - amount);
  total_remaining_ = snap_nonnegative(total_remaining_ - amount);
  DS_CHECK_MSG(remaining >= 0.0,
               "node " << node << " overshot by " << -remaining);
  if (approx_zero(remaining)) {
    remaining = 0.0;
    mark_done(node, newly_ready);
    return true;
  }
  return false;
}

void UnfoldingState::mark_done(NodeId node, std::vector<NodeId>* newly_ready) {
  set_status(node, Status::kDone);
  --nodes_remaining_;
  if (nodes_remaining_ == 0) total_remaining_ = 0.0;  // clear float residue
  // Swap-remove from the ready list, keeping the position map consistent.
  NodeId* ready = idx_ + ready_off();
  NodeId* ready_pos = idx_ + ready_pos_off();
  const NodeId pos = ready_pos[node];
  DS_CHECK(pos != kNpos);
  const NodeId moved = ready[ready_size_ - 1];
  ready[pos] = moved;
  ready_pos[moved] = pos;
  --ready_size_;
  ready[ready_size_] = kNpos;
  ready_pos[node] = kNpos;

  NodeId* pending = idx_ + pending_off();
  for (NodeId succ : dag_->successors(node)) {
    DS_CHECK(pending[succ] > 0);
    if (--pending[succ] == 0) {
      set_status(succ, Status::kReady);
      ready_pos[succ] = ready_size_;
      ready[ready_size_++] = succ;
      if (newly_ready != nullptr) newly_ready->push_back(succ);
    }
  }
}

void UnfoldingState::save_state(CheckpointWriter& out) const {
  out.u64(n_);
  // Fixed field order: the initial-work column is written even when elided
  // in memory (it then equals the Dag's declared works).
  out.f64s(init_ != nullptr ? std::span<const Work>(init_, n_)
                            : dag_->node_works());
  out.f64s({rem_, n_});
  out.u32s({idx_, 4 * static_cast<std::size_t>(n_)});
  out.u64(ready_size_);
  out.f64(total_remaining_);
  out.u32(nodes_remaining_);
}

void UnfoldingState::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.u64();
  if (n != n_) {
    in.fail("unfolding has " + std::to_string(n) + " nodes, DAG has " +
            std::to_string(n_));
  }
  if (init_ != nullptr) {
    in.f64s({init_, n_});
  } else {
    // Stage the initial column in rem_ (overwritten just below) and
    // materialize init_ only for a fault-scaled job, whose initial works
    // diverge from the Dag's.
    in.f64s({rem_, n_});
    const std::span<const Work> declared = dag_->node_works();
    if (!std::equal(declared.begin(), declared.end(), rem_)) {
      std::copy(rem_, rem_ + n_, ensure_init());
    }
  }
  in.f64s({rem_, n_});
  in.u32s({idx_, 4 * static_cast<std::size_t>(n_)});
  const std::uint64_t ready = in.u64();
  if (ready > n_) in.fail("ready count exceeds node count");
  ready_size_ = static_cast<NodeId>(ready);
  total_remaining_ = in.f64();
  const NodeId remaining = in.u32();
  if (remaining > n_) in.fail("nodes-remaining exceeds node count");
  nodes_remaining_ = remaining;
  // Restored invariants the engines rely on: every status byte is a valid
  // Status, and the ready list / ready-pos maps are mutually consistent.
  const NodeId* ready_list = idx_ + ready_off();
  const NodeId* ready_pos = idx_ + ready_pos_off();
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId s = idx_[status_off() + v];
    if (s > static_cast<NodeId>(Status::kDone)) {
      in.fail("node " + std::to_string(v) + " has invalid status " +
              std::to_string(s));
    }
    const bool node_ready = s == static_cast<NodeId>(Status::kReady);
    if (node_ready !=
        (ready_pos[v] != kNpos && ready_pos[v] < ready_size_ &&
         ready_list[ready_pos[v]] == v)) {
      in.fail("node " + std::to_string(v) +
              " ready status disagrees with the ready list");
    }
  }
}

namespace {

/// Longest path over the nodes `done` rejects, each weighted by `work`,
/// computed along the static topological order (a superset of the
/// unfinished subgraph's topological order).  The scratch is thread-local
/// and shared across instances: stale entries need no clearing -- the only
/// entries read are those of non-done predecessors, and the topological
/// sweep writes every non-done node before any successor reads it.
std::vector<Work>& span_scratch(std::size_t nodes) {
  thread_local std::vector<Work> span_depth;
  if (span_depth.size() < nodes) span_depth.resize(nodes);
  return span_depth;
}

template <typename Done, typename WorkOf>
Work longest_open_path(const Dag& dag, Done done, WorkOf work) {
  std::vector<Work>& span_depth = span_scratch(dag.num_nodes());
  Work best = 0.0;
  for (NodeId v : dag.topological_order()) {
    if (done(v)) continue;
    Work prefix = 0.0;
    for (NodeId u : dag.predecessors(v)) {
      if (done(u)) continue;
      prefix = std::max(prefix, span_depth[u]);
    }
    span_depth[v] = prefix + work(v);
    best = std::max(best, span_depth[v]);
  }
  return best;
}

}  // namespace

Work UnfoldingState::remaining_span() const {
  return longest_open_path(
      *dag_, [this](NodeId v) { return status(v) == Status::kDone; },
      [this](NodeId v) { return rem_[v]; });
}

Work UnfoldingState::unstarted_span(const Dag& dag) {
  return longest_open_path(
      dag, [](NodeId) { return false; },
      [&dag](NodeId v) { return dag.node_work(v); });
}

}  // namespace dagsched

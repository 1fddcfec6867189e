// Runtime execution state of one DAG job: which nodes are ready, how much
// work remains on each.  This is the object the simulation engines mutate;
// the Dag itself stays immutable.
//
// Semi-non-clairvoyance boundary: schedulers never see this class directly --
// they see only the ready *count* and the remaining total through JobView
// (sim/views.h).  Engines and clairvoyant baselines may inspect everything.
//
// Layout: the kernel builds one of these the first time it runs a job (at
// arrival only for a job whose works fault injection scaled), so most jobs
// that never run never get one.  The per-node state is a single fused block
// [remaining-work | pending-preds|ready-list|ready-pos|status] carved from a
// caller-provided BumpArena (the kernel's job-state arena: zero heap traffic
// per build after warmup).  The object itself is a handful of raw pointers
// plus aggregates -- it lives by value in the kernel's structure-of-arrays
// JobStateTable column.
//
// The initial-work column is elided in the common case: unless fault
// injection scaled this job's node works (or a checkpoint restored scaled
// values), initial_work(v) reads the immutable Dag directly and the block
// stores only *remaining* work -- 24 bytes/node instead of 32.
#pragma once

#include <span>
#include <vector>

#include "dag/dag.h"
#include "util/types.h"

namespace dagsched {

class BumpArena;
class CheckpointReader;
class CheckpointWriter;

class UnfoldingState {
 public:
  /// Disengaged state (the job has not run yet): `engaged()` is false and
  /// every other member function is off-limits.  Exists so UnfoldingState
  /// can be a plain column in a SoA table.
  UnfoldingState() = default;

  /// The per-node block is bump-allocated from `arena`, which must outlive
  /// this object (and reset only after it dies).
  UnfoldingState(const Dag& dag, BumpArena& arena);

  /// Fault-injection variant: per-node *actual* work overrides the DAG's
  /// declared work (modeling misestimated W_i).  `works` must have one entry
  /// per node, each strictly positive.  JobView::work() and span() keep the
  /// declared W_i and L_i, but JobView::remaining_work() reads
  /// total_remaining_work(), the actual (overrun-scaled) total, so a
  /// scheduler that reads it -- non-clairvoyant LLF -- sees the overrun
  /// from the job's arrival on.
  UnfoldingState(const Dag& dag, const std::vector<Work>& works,
                 BumpArena& arena);

  UnfoldingState(UnfoldingState&& other) noexcept { *this = std::move(other); }
  UnfoldingState& operator=(UnfoldingState&& other) noexcept {
    dag_ = other.dag_;
    arena_ = other.arena_;
    rem_ = other.rem_;
    init_ = other.init_;
    idx_ = other.idx_;
    n_ = other.n_;
    ready_size_ = other.ready_size_;
    nodes_remaining_ = other.nodes_remaining_;
    total_remaining_ = other.total_remaining_;
    other.dag_ = nullptr;
    other.rem_ = other.init_ = nullptr;
    other.idx_ = nullptr;
    return *this;
  }
  UnfoldingState(const UnfoldingState&) = delete;
  UnfoldingState& operator=(const UnfoldingState&) = delete;

  /// True once constructed from a Dag (the job has run, or arrived with
  /// fault-scaled works).
  bool engaged() const { return dag_ != nullptr; }

  const Dag& dag() const { return *dag_; }

  /// Nodes whose predecessors have all completed and which are not yet done.
  /// Order is deterministic: nodes become ready in completion order, sources
  /// in id order (this is the "arbitrary" order a FIFO selector uses).
  std::span<const NodeId> ready() const { return {idx_ + n_, ready_size_}; }

  std::size_t ready_count() const { return ready_size_; }

  bool is_ready(NodeId node) const { return status(node) == Status::kReady; }

  bool is_done(NodeId node) const { return status(node) == Status::kDone; }

  /// Remaining processing time of `node` at unit speed.
  Work remaining_work(NodeId node) const { return rem_[node]; }

  /// The work `node` started with: the DAG's declared work, or the actual
  /// (possibly overrun) work when constructed with explicit works.
  Work initial_work(NodeId node) const {
    return init_ != nullptr ? init_[node] : dag_->node_work(node);
  }

  /// Discards all progress on an unfinished node (restart-from-zero failure
  /// semantics): remaining work snaps back to initial_work.  Returns the
  /// amount of work lost, which the engine accounts as `lost_work`.
  Work reset_progress(NodeId node);

  /// Total remaining work across all unfinished nodes.
  Work total_remaining_work() const { return total_remaining_; }

  /// Number of nodes not yet completed.
  NodeId nodes_remaining() const { return nodes_remaining_; }

  bool complete() const { return nodes_remaining_ == 0; }

  /// Apply `amount` of processing to a ready node.  If the node's remaining
  /// work reaches zero (within tolerance) the node completes, successors
  /// whose last predecessor finished become ready, and those newly ready
  /// nodes are appended to `newly_ready` (may be null if the caller doesn't
  /// care).  Returns true iff the node completed.
  bool advance(NodeId node, Work amount,
               std::vector<NodeId>* newly_ready = nullptr);

  /// Remaining span: weight of the heaviest path through unfinished nodes,
  /// counting each unfinished node's *remaining* work.  O(V+E) using a
  /// thread-local scratch shared across instances (clairvoyant baselines
  /// call this per decision); allocation-free once the scratch has grown to
  /// the largest DAG's node count.
  Work remaining_span() const;

  /// remaining_span() of a fresh UnfoldingState(dag, arena), computed from
  /// the Dag alone by the same loop and arithmetic, so bit for bit equal:
  /// the remaining span of a job that has not run yet.
  static Work unstarted_span(const Dag& dag);

  /// Bytes of the fused per-node block (telemetry gauge).  The remaining-
  /// span scratch is thread-global and excluded.
  std::size_t memory_bytes() const {
    return sizeof(Work) * n_ * (init_ != nullptr ? 2 : 1) +
           sizeof(NodeId) * 4 * n_;
  }

  /// Serializes the per-node state plus the derived aggregates verbatim, in
  /// a fixed field order (initial works, remaining works, index block), one
  /// bulk column write each.  The ready list order is part of engine
  /// determinism (FIFO selectors read it), so it is saved, not rebuilt.
  void save_state(CheckpointWriter& out) const;

  /// Restores state saved by save_state into an instance constructed from
  /// the same DAG.  Throws CheckpointError when the node count disagrees
  /// or any restored invariant (status codes, ready-list bounds) is broken.
  void load_state(CheckpointReader& in);

 private:
  enum class Status : NodeId { kWaiting = 0, kReady = 1, kDone = 2 };

  // Segments of idx_ (all NodeId-typed, n_ entries each).
  std::size_t pending_off() const { return 0; }
  std::size_t ready_off() const { return n_; }
  std::size_t ready_pos_off() const { return 2 * static_cast<std::size_t>(n_); }
  std::size_t status_off() const { return 3 * static_cast<std::size_t>(n_); }

  Status status(NodeId node) const {
    return static_cast<Status>(idx_[status_off() + node]);
  }
  void set_status(NodeId node, Status s) {
    idx_[status_off() + node] = static_cast<NodeId>(s);
  }

  void allocate_block();
  /// Materializes the initial-work column (copying the DAG's declared works)
  /// so individual entries can diverge from the Dag.
  Work* ensure_init();
  void init_structure(const Dag& dag, bool fill_rem);
  void mark_done(NodeId node, std::vector<NodeId>* newly_ready);

  const Dag* dag_ = nullptr;
  BumpArena* arena_ = nullptr;
  /// Remaining work per node (n_ entries).
  Work* rem_ = nullptr;
  /// Initial work per node; null while initial == the Dag's declared works.
  Work* init_ = nullptr;
  /// [0, n): pending predecessor counts; [n, n + ready_size_): the ready
  /// list, then kNpos up to 2n; [2n, 3n): node -> ready-list index (kNpos
  /// when absent); [3n, 4n): Status per node.
  NodeId* idx_ = nullptr;
  NodeId n_ = 0;  // == dag_->num_nodes()
  NodeId ready_size_ = 0;
  NodeId nodes_remaining_ = 0;
  Work total_remaining_ = 0.0;

  static constexpr NodeId kNpos = static_cast<NodeId>(-1);
};

}  // namespace dagsched

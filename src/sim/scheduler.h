// The scheduler interface both engines drive.
//
// Engines deliver events (arrival / completion / deadline expiry) and then
// call decide() to obtain the processor allocation in force until the next
// event.  decide() is invoked at every decision point, which for the
// EventEngine is every event (including internal node completions) and for
// the SlotEngine is every time slot.  Schedulers whose decisions only change
// at job-level events (like the paper's S) simply return the same allocation
// when nothing changed.
#pragma once

#include <string>

#include "sim/assignment.h"
#include "sim/context.h"
#include "util/types.h"

namespace dagsched {

class CheckpointReader;
class CheckpointWriter;

class SchedulerBase {
 public:
  virtual ~SchedulerBase() = default;

  virtual std::string name() const = 0;

  /// Declares whether this policy may inspect DAG internals.  The paper's
  /// algorithms and all online baselines return false; only the clairvoyant
  /// reference schedulers return true.
  virtual bool clairvoyant() const { return false; }

  /// Called once before a simulation starts; resets internal queues so a
  /// scheduler instance can be reused across runs.
  virtual void reset() {}

  /// Job `job` just arrived (ctx.now() == its release, up to tolerance).
  virtual void on_arrival(const EngineContext& ctx, JobId job) {
    (void)ctx;
    (void)job;
  }

  /// Job `job` just completed all its nodes.
  virtual void on_completion(const EngineContext& ctx, JobId job) {
    (void)ctx;
    (void)job;
  }

  /// A step-profit job's deadline d passed without completion: the event
  /// engine calls it at the first decision point with now >= d, the slot
  /// engine at the first slot t that cannot finish the job by d (t + 1 > d),
  /// which for a fractional d comes before d.
  virtual void on_deadline(const EngineContext& ctx, JobId job) {
    (void)ctx;
    (void)job;
  }

  /// The machine count changed (fault injection: processors failed or
  /// recovered).  ctx.num_procs() already reflects `new_m`.  Schedulers with
  /// committed capacity (admission sets, reserved clusters, pinned slots)
  /// must shed or re-fit commitments here and should record each displaced
  /// job with a `readmit-fail` decision event carrying a reason slug;
  /// policies that re-read ctx.num_procs() every decide() can keep the
  /// default no-op.  Only called when faults are injected.
  virtual void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                                  ProcCount new_m) {
    (void)ctx;
    (void)old_m;
    (void)new_m;
  }

  /// Earliest future time at which decide() could return a different answer
  /// absent new external events (kTimeInfinity if never).  The SlotEngine
  /// uses this to skip idle stretches and to detect quiescence when a
  /// scheduler deliberately idles (e.g. the Section-5 profit scheduler
  /// waiting for one of its assigned slots).  Work-conserving policies can
  /// keep the default.
  virtual Time next_wakeup(const EngineContext& ctx) const {
    (void)ctx;
    return kTimeInfinity;
  }

  /// Fill `out` with the allocation for the current instant.  The engine
  /// validates: total procs <= ctx.num_procs(), every job arrived and
  /// incomplete, no duplicate jobs, procs >= 1 per entry.
  virtual void decide(const EngineContext& ctx, Assignment& out) = 0;

  // Unused by the simulator; kept because perfbench_trace.cpp overrides both.
  virtual std::size_t arrival_precompute_size() const { return 0; }
  virtual void precompute_arrival(const Job& job, JobId id, double speed,
                                  void* out) const {
    (void)job;
    (void)id;
    (void)speed;
    (void)out;
  }

  // ---- Checkpoint/restore (sim/checkpoint) --------------------------------
  // Serialization of every queue, index, and per-job record the policy owns,
  // encoded with util/wire.h primitives.  The contract is *behavioral*
  // equivalence, not bit equivalence of internals: after load_state the
  // scheduler must produce the same decision sequence as the instance that
  // saved, so derived structures (lazy heaps, position maps) may be rebuilt
  // from the serialized core state.  load_state is called on a freshly
  // reset() scheduler and may throw CheckpointError (via
  // CheckpointReader::fail) on malformed payloads; job ids are read with
  // CheckpointReader::job_id(), bounded by the job count.  The default
  // no-ops suit stateless policies that re-derive everything from
  // ctx.active_jobs().

  virtual void save_state(CheckpointWriter& out) const { (void)out; }
  virtual void load_state(CheckpointReader& in) { (void)in; }

  // ---- Overload degradation (graceful load shedding) ----------------------

  /// Sheds up to `max_jobs` of the least-valuable admitted/queued jobs --
  /// lowest density first where the policy has a density order -- because
  /// decide() exceeded its wall-clock latency budget.  Each shed job must be
  /// dropped from every queue the policy owns (it stays active in the kernel
  /// but will never be granted processors again) and should emit a kDrop
  /// decision event with an `overload.shed.*` reason slug.  Returns the
  /// number of jobs actually shed; the default sheds nothing, which suits
  /// stateless policies with no standing commitments.
  virtual std::size_t shed_load(const EngineContext& ctx,
                                std::size_t max_jobs) {
    (void)ctx;
    (void)max_jobs;
    return 0;
  }

  // ---- Telemetry introspection (obs/telemetry) ----------------------------
  // Read-only gauges sampled by the kernel when a TelemetryRecorder is
  // attached; never called on the byte-identical telemetry-off path.

  /// Jobs currently held in this scheduler's queues/indexes (0 for policies
  /// that keep no queue of their own and re-read ctx.active_jobs() per
  /// decide).
  virtual std::size_t queue_depth() const { return 0; }

  /// Estimated bytes of scheduler-owned queue/index state (allocated, not
  /// live -- the quantity the million-job memory budget constrains).
  virtual std::size_t memory_bytes() const { return 0; }
};

}  // namespace dagsched

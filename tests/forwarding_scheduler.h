// A scheduler that forwards every callback to another one and declares
// itself clairvoyant, so a test can read each job's unfolding through the
// EngineContext at a decision without changing any decision: clairvoyance
// only unlocks EngineContext's DAG accessors.  Tests override decide() to
// look, then call ForwardingScheduler::decide.
#pragma once

#include <cstddef>
#include <string>

#include "sim/scheduler.h"

namespace dagsched {

class ForwardingScheduler : public SchedulerBase {
 public:
  explicit ForwardingScheduler(SchedulerBase& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return true; }
  void reset() override { inner_.reset(); }
  void on_arrival(const EngineContext& ctx, JobId job) override {
    inner_.on_arrival(ctx, job);
  }
  void on_completion(const EngineContext& ctx, JobId job) override {
    inner_.on_completion(ctx, job);
  }
  void on_deadline(const EngineContext& ctx, JobId job) override {
    inner_.on_deadline(ctx, job);
  }
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override {
    inner_.on_capacity_change(ctx, old_m, new_m);
  }
  Time next_wakeup(const EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    inner_.decide(ctx, out);
  }
  std::size_t arrival_precompute_size() const override {
    return inner_.arrival_precompute_size();
  }
  void precompute_arrival(const Job& job, JobId id, double speed,
                          void* out) const override {
    inner_.precompute_arrival(job, id, speed, out);
  }
  void save_state(CheckpointWriter& out) const override {
    inner_.save_state(out);
  }
  void load_state(CheckpointReader& in) override { inner_.load_state(in); }
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override {
    return inner_.shed_load(ctx, max_jobs);
  }
  std::size_t queue_depth() const override { return inner_.queue_depth(); }
  std::size_t memory_bytes() const override { return inner_.memory_bytes(); }

 private:
  SchedulerBase& inner_;
};

}  // namespace dagsched

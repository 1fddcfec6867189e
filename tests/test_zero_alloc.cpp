// Steady-state zero-allocation contract (docs/PERFORMANCE.md).
//
// After a warmup run has grown every capacity -- the JobStateTable columns,
// the unfolding BumpArena's coalesced chunk, the scheduler queue node pools,
// the d-ary heaps, and the engines' member scratch -- a second run of the
// same instance must perform ZERO heap allocations between its first and
// last decision.  The global operator new below counts every allocation in
// the process; the test compares the counter at the first and last observer
// callback of the second run, a window that covers all arrivals, decisions,
// node completions, and deadline expiries but excludes setup (begin()'s
// arena coalesce, result vector) and teardown (finish()'s outcome build).
//
// This binary owns the replaced global operator new, so it is its own test
// target (tests/CMakeLists.txt).  The malloc-backed implementation keeps
// ASan interception intact, so the sanitizer CI job runs it unchanged.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "job/job.h"
#include "obs/sink.h"
#include "sim/event_engine.h"
#include "sim/slot_engine.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace {
// Total operator-new calls in this process.  Single-threaded test binary;
// no atomicity needed.
std::size_t g_new_calls = 0;

void* counted_alloc(std::size_t size) {
  ++g_new_calls;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_new_calls;
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dagsched {
namespace {

// The bench_scale regime: thm2 arrivals at 4x capacity, the load under
// which scheduler queues actually grow.  Scale 2500 generates a ~20k-job
// instance (the same shape as tests/test_scale_smoke.cpp exercises).
JobSet workload() {
  Rng rng(42);
  WorkloadConfig config = scenario_thm2(0.5, 4.0, 16);
  config.horizon = 2500.0 * 4.0;
  JobSet jobs = generate_workload(rng, config);
  EXPECT_GE(jobs.size(), 10000u);
  return jobs;
}

/// Runs `engine` twice; asserts the allocation counter does not move
/// between the first and last decision of the second (warm) run.
template <typename Engine>
void expect_zero_steady_state_allocs(Engine& engine, std::size_t& first,
                                     std::size_t& last, bool& armed) {
  const SimResult warmup = engine.run();
  ASSERT_EQ(warmup.failure, SimFailureKind::kNone);
  ASSERT_GT(warmup.decisions, 0u);

  armed = false;
  const SimResult warm = engine.run();
  ASSERT_EQ(warm.failure, SimFailureKind::kNone);
  ASSERT_TRUE(armed);
  EXPECT_EQ(last - first, 0u)
      << (last - first) << " heap allocations in the post-warmup decide "
      << "loop (" << warm.decisions << " decisions)";
  // Warm determinism: both runs simulate the identical instance.
  EXPECT_EQ(warm.decisions, warmup.decisions);
  EXPECT_DOUBLE_EQ(warm.total_profit, warmup.total_profit);
}

SimOptions make_options(std::size_t& first, std::size_t& last, bool& armed) {
  SimOptions options;
  options.num_procs = 16;
  options.observer = [&first, &last, &armed](const EngineContext&,
                                             const Assignment&) {
    last = g_new_calls;
    if (!armed) {
      first = last;
      armed = true;
    }
  };
  return options;
}

TEST(ZeroAlloc, EventEnginePaperS) {
  const JobSet jobs = workload();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  std::size_t first = 0, last = 0;
  bool armed = false;
  EventEngine engine(jobs, scheduler, *selector,
                     make_options(first, last, armed));
  expect_zero_steady_state_allocs(engine, first, last, armed);
}

TEST(ZeroAlloc, EventEngineEdf) {
  const JobSet jobs = workload();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  std::size_t first = 0, last = 0;
  bool armed = false;
  EventEngine engine(jobs, scheduler, *selector,
                     make_options(first, last, armed));
  expect_zero_steady_state_allocs(engine, first, last, armed);
}

// A sweep cell attaches a registry and no event log: counting each
// decision event (count_event) must not allocate either.
TEST(ZeroAlloc, EventEnginePaperSWithRegistryOnly) {
  const JobSet jobs = workload();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  std::size_t first = 0, last = 0;
  bool armed = false;
  MetricRegistry registry;
  ObsSink sink;
  sink.metrics = &registry;
  SimOptions options = make_options(first, last, armed);
  options.obs = &sink;
  EventEngine engine(jobs, scheduler, *selector, options);
  expect_zero_steady_state_allocs(engine, first, last, armed);
  EXPECT_GT(registry.counter("sched.drops.stale")->value(), 0.0);
}

TEST(ZeroAlloc, SlotEnginePaperS) {
  const JobSet jobs = workload();
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  std::size_t first = 0, last = 0;
  bool armed = false;
  SlotEngine engine(jobs, scheduler, *selector,
                    make_options(first, last, armed));
  expect_zero_steady_state_allocs(engine, first, last, armed);
}

TEST(ZeroAlloc, SlotEngineEdf) {
  const JobSet jobs = workload();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  std::size_t first = 0, last = 0;
  bool armed = false;
  SlotEngine engine(jobs, scheduler, *selector,
                    make_options(first, last, armed));
  expect_zero_steady_state_allocs(engine, first, last, armed);
}

}  // namespace
}  // namespace dagsched

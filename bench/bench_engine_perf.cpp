// E11 -- substrate microbenchmarks (google-benchmark).
//
// Measures the cost of the building blocks so users can size experiments:
// event-engine decision throughput, slot-engine slot throughput (EDF, and
// the Section-5 profit scheduler under overload), admission index
// operations, allocation math, the interval-capacity OPT bound, workload
// ingest, and the durable-run costs (checkpoint snapshots, event lines).
//
// Pass `--out perf.json` (stripped before google-benchmark sees the
// arguments) to additionally write the measurements as a versioned
// "dagsched.bench_report/1" document, so perf numbers land in a
// mechanically trackable file instead of ad-hoc console output.
//
// Pass `--quick` for the CI tier: a fixed small-argument subset at reduced
// min-time, producing the canonical BENCH_engine.json that
// `dagsched sweep diff` compares across commits.  Explicit benchmark
// flags after --quick still win (they are appended later).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/equi.h"
#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "core/density_index.h"
#include "core/job_queue.h"
#include "core/profit_scheduler.h"
#include "dag/generators.h"
#include "obs/event_log.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "opt/upper_bound.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "sim/kernel/kernel.h"
#include "util/wire.h"
#include "workload/scenarios.h"
#include "workload/workload_io.h"

namespace {

using namespace dagsched;

JobSet make_jobs(std::size_t count, double load = 0.8) {
  Rng rng(42);
  WorkloadConfig config = scenario_thm2(0.5, load, 16);
  config.horizon = static_cast<double>(count) * 4.0;
  JobSet jobs = generate_workload(rng, config);
  return jobs;
}

/// The bench_scale workload: heavy traffic (arrivals at 4x capacity), the
/// regime where queue sizes actually grow -- under the default load the
/// scheduler queues stay near-empty and a scale benchmark would measure the
/// engines, not the data structures.  At load 4.0 the Arg is still the
/// horizon scale of make_jobs; the generated job count (~8x Arg) is exported
/// as the `jobs` counter.
JobSet make_scale_jobs(std::size_t count) { return make_jobs(count, 4.0); }

void BM_EventEngineEdf(benchmark::State& state) {
  const JobSet jobs = make_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_EventEngineEdf)->Arg(50)->Arg(200)->Arg(800);

void BM_EventEnginePaperS(benchmark::State& state) {
  const JobSet jobs = make_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_EventEnginePaperS)->Arg(50)->Arg(200)->Arg(800);

// ---- bench_scale family: 10^4..10^5-job heavy-traffic workloads ----------
//
// These pin the hot-path complexity work (indexed scheduler queues,
// incremental drain, O(1) kernel bookkeeping): on the seed's linear-scan
// structures the 100000-arg runs are quadratic (tens of seconds); on the
// indexed structures they stay within a few seconds.  All three engines'
// scale points are committed to BENCH_engine.json via --quick and gated by
// `dagsched sweep diff`.

void BM_EventEnginePaperSScale(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_EventEnginePaperSScale)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventEngineEdfScale(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_EventEngineEdfScale)->Arg(1000)->Arg(10000)->Arg(100000);

/// kLlf pins the satellite complexity bound of baselines/list_scheduler:
/// laxity keys are recomputed every decision, but only over the kernel's
/// active set, which holds no job past its deadline (O(k log k) with k the
/// live jobs).  A rescan of every arrived job re-sneaking in shows up here
/// as a blown 100000-arg budget, same as the indexed policies' scale points.
void BM_EventEngineLlfScale(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kLlf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_EventEngineLlfScale)->Arg(1000)->Arg(10000)->Arg(100000);

/// EQUI splits the machine over every active job at every decision, so a
/// decision costs O(active jobs).  The kernel retires jobs past their
/// deadline, so that is the live jobs; an active set that kept dead jobs
/// would make this point quadratic in the run length.
void BM_EventEngineEquiScale(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    EquiScheduler scheduler;
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_EventEngineEquiScale)->Arg(10000);

void BM_SlotEngineEdfScale(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  std::size_t decisions = 0;
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    const SimResult result =
        run_simulation(EngineKind::kSlot, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_SlotEngineEdfScale)->Arg(1000)->Arg(10000)->Arg(100000);

// ---- telemetry-enabled points --------------------------------------------
//
// Same workloads as their plain counterparts but with a TelemetryRecorder
// attached (histogram-only, no JSONL sink): the *enabled* overhead shows up
// as the delta against the plain name, and the recorder's decide histogram
// is exported as decide_p50_ns/decide_p99_ns counters, which
// `dagsched sweep diff` tracks under the same regression gate.  The
// plain benchmark names keep telemetry off, so the gate also proves the
// compiled-in-but-disabled path stays free.

void export_decide_counters(benchmark::State& state,
                            const TelemetryRecorder& telemetry) {
  state.counters["decide_p50_ns"] =
      static_cast<double>(telemetry.decide_histogram().percentile_ns(0.50));
  state.counters["decide_p99_ns"] =
      static_cast<double>(telemetry.decide_histogram().percentile_ns(0.99));
}

void BM_EventEnginePaperSTelemetry(benchmark::State& state) {
  const JobSet jobs =
      state.range(0) >= 1000
          ? make_scale_jobs(static_cast<std::size_t>(state.range(0)))
          : make_jobs(static_cast<std::size_t>(state.range(0)));
  TelemetryRecorder telemetry;  // accumulates across iterations
  std::size_t decisions = 0;
  for (auto _ : state) {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    options.telemetry = &telemetry;
    const SimResult result =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
  export_decide_counters(state, telemetry);
}
BENCHMARK(BM_EventEnginePaperSTelemetry)->Arg(50)->Arg(10000);

void BM_SlotEngineEdfTelemetry(benchmark::State& state) {
  Rng rng(7);
  WorkloadConfig config =
      scenario_profit(0.5, 0.8, 16, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = static_cast<double>(state.range(0));
  const JobSet jobs = generate_workload(rng, config);
  TelemetryRecorder telemetry;
  std::size_t decisions = 0;
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    options.telemetry = &telemetry;
    const SimResult result =
        run_simulation(EngineKind::kSlot, jobs, scheduler, *sel, options);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.total_profit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
  state.counters["jobs"] = static_cast<double>(jobs.size());
  export_decide_counters(state, telemetry);
}
BENCHMARK(BM_SlotEngineEdfTelemetry)->Arg(100);

void BM_DensityQueueOps(benchmark::State& state) {
  // One insert + one erase against a queue holding `size` resident members
  // -- the DeadlineScheduler Q/P hot operations, O(log n).
  Rng rng(13);
  const auto size = static_cast<std::size_t>(state.range(0));
  DensityOrderedQueue queue;
  std::vector<Density> densities(size);
  for (std::size_t i = 0; i < size; ++i) {
    densities[i] = rng.uniform(0.01, 10.0);
    queue.insert(static_cast<JobId>(i), densities[i]);
  }
  const Density churn_v = rng.uniform(0.01, 10.0);
  const auto churn_job = static_cast<JobId>(size);
  for (auto _ : state) {
    queue.insert(churn_job, churn_v);
    benchmark::DoNotOptimize(queue.size());
    queue.erase(churn_job, churn_v);
  }
}
BENCHMARK(BM_DensityQueueOps)->Arg(128)->Arg(10000)->Arg(100000);

void BM_SlotEngineEdf(benchmark::State& state) {
  Rng rng(7);
  WorkloadConfig config =
      scenario_profit(0.5, 0.8, 16, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = static_cast<double>(state.range(0));
  const JobSet jobs = generate_workload(rng, config);
  for (auto _ : state) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    benchmark::DoNotOptimize(run_simulation(EngineKind::kSlot, jobs, scheduler,
                                            *sel, options).total_profit);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_SlotEngineEdf)->Arg(100)->Arg(400);

// The Section-5 scheduler under overload (load 4, as in the perfbench
// run-profit-slot workload): most arrivals search their whole decay range
// without finding a valid deadline, so the minimal-valid-deadline search,
// not the slot engine, sets the time.  The Arg is the horizon; 3000 gives
// 2,849 jobs, about the size of run-profit-slot.
void BM_SlotEngineProfit(benchmark::State& state) {
  Rng rng(7);
  WorkloadConfig config =
      scenario_profit(0.5, 4.0, 16, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = static_cast<double>(state.range(0));
  const JobSet jobs = generate_workload(rng, config);
  for (auto _ : state) {
    ProfitScheduler scheduler({.params = Params::from_epsilon(0.5)});
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 16;
    benchmark::DoNotOptimize(run_simulation(EngineKind::kSlot, jobs, scheduler,
                                            *sel, options).total_profit);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_SlotEngineProfit)->Arg(400)->Arg(3000);

void BM_DensityIndexAdmit(benchmark::State& state) {
  Rng rng(3);
  DensityWindowIndex index;
  const auto members = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < members; ++i) {
    index.insert(static_cast<JobId>(i), rng.uniform(0.01, 10.0), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.admits(rng.uniform(0.01, 10.0), 2, 17.0, 1e9));
  }
}
BENCHMARK(BM_DensityIndexAdmit)->Arg(16)->Arg(128)->Arg(1024);

void BM_AllocationMath(benchmark::State& state) {
  const Params params = Params::from_epsilon(0.5);
  Rng rng(5);
  for (auto _ : state) {
    const Work L = rng.uniform(1.0, 10.0);
    const Work W = L + rng.uniform(0.0, 200.0);
    benchmark::DoNotOptimize(
        compute_deadline_allocation(W, L, 2.0 * (W / 16.0 + L), 1.0, params,
                                    1.0));
  }
}
BENCHMARK(BM_AllocationMath);

void BM_OptUpperBoundLp(benchmark::State& state) {
  const JobSet jobs = make_jobs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_opt_upper_bound(jobs, 16).value());
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_OptUpperBoundLp)->Arg(50)->Arg(150);

void BM_DagGeneration(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sample_dag(rng, DagFamily::kMixed, 1.0).total_work());
  }
}
BENCHMARK(BM_DagGeneration);

// ---- ingest ----------------------------------------------------------------
//
// Parse time of the .wl reader alone: the instance is serialized once, and
// each iteration parses those bytes, as `dagsched run` does after its one
// read of the file.  input_bytes_per_job is the parsed JobSet's heap per
// job.  The reader parses large inputs on several threads, so these rows
// time (and rate mb_per_s against) wall time: the default clock, the
// calling thread's CPU time, would not see the other threads.
void load_workload_bench(benchmark::State& state, const JobSet& instance) {
  std::string bytes;
  {
    std::ostringstream out;
    write_workload(out, instance);
    bytes = std::move(out).str();
  }
  std::size_t jobs = 0;
  for (auto _ : state) {
    const JobSet parsed = read_workload(bytes, "<bench>");
    jobs = parsed.size();
    benchmark::DoNotOptimize(jobs);
  }
  state.counters["mb_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(bytes.size()) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(jobs);
  // Heap the parsed instance holds (the input_bytes gauge), measured on
  // one more parse outside the timed loop.
  state.counters["input_bytes_per_job"] =
      static_cast<double>(read_workload(bytes, "<bench>").input_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, jobs));
}

// The 10000-arg scale instance: the 81k-job thm2 workload, whose bytes are
// mostly 17-digit node works.  A load takes long enough that the quick
// min-time would run it once, so the iteration count is fixed.
void BM_LoadWorkload(benchmark::State& state) {
  load_workload_bench(
      state, make_scale_jobs(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_LoadWorkload)->Arg(10000)->Iterations(8)->UseRealTime();

// The same instance read back from a file by load_workload(path): the map
// of the file (util/file_bytes.h) and its unmap, on top of the parse, as
// `dagsched run` loads it.  The file sits in the page cache after its
// write, as a workload a run has just generated does.
void BM_LoadWorkloadFile(benchmark::State& state) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "bench_load_workload_file.wl")
                               .string();
  save_workload(path,
                make_scale_jobs(static_cast<std::size_t>(state.range(0))));
  const auto bytes = std::filesystem::file_size(path);
  std::size_t jobs = 0;
  for (auto _ : state) {
    const JobSet parsed = load_workload(path);
    jobs = parsed.size();
    benchmark::DoNotOptimize(jobs);
  }
  std::filesystem::remove(path);
  state.counters["mb_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(bytes) /
          1e6,
      benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_LoadWorkloadFile)->Arg(10000)->Iterations(8)->UseRealTime();

// A unit-node profit instance at horizon Arg and load 4, the shape of the
// `dagsched generate --scenario profit` input: its bytes are mostly short
// "a b" edge lines.
void BM_LoadWorkloadProfit(benchmark::State& state) {
  Rng rng(42);
  WorkloadConfig config = scenario_profit(
      0.5, 4.0, 16, ProfitPolicy::Shape::kPlateauLinear);
  config.horizon = static_cast<double>(state.range(0));
  load_workload_bench(state, generate_workload(rng, config));
}
BENCHMARK(BM_LoadWorkloadProfit)->Arg(3000)->UseRealTime();

// ---- durable I/O -------------------------------------------------------------
//
// The two costs a `--checkpoint`/`--events` run adds on the overloaded thm2
// instance (load 4; Arg 300 is ~2.4k jobs, the size of the perfbench
// durable-churn input): one checkpoint snapshot -- kernel and scheduler
// save plus container serialization, without the file write -- and the
// formatting of recorded decision events into JSONL lines.

void BM_CheckpointSnapshot(benchmark::State& state) {
  const JobSet jobs = make_scale_jobs(static_cast<std::size_t>(state.range(0)));
  auto sel = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 16;
  // One real mid-run snapshot, taken by a checkpointing run and restored
  // into a kernel that the loop then snapshots again and again.
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_checkpoint_snapshot.ckpt")
          .string();
  {
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    const std::size_t decisions =
        run_simulation(EngineKind::kEvent, jobs, scheduler, *sel,
                       options).decisions;
    CheckpointMeta meta;
    meta.scheduler = scheduler.name();
    CheckpointSink sink(path, decisions / 2, meta, nullptr);
    sink.set_snapshot_limit(1);
    SimOptions checkpointed = options;
    checkpointed.checkpoint = &sink;
    run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, checkpointed);
  }
  const CheckpointFile file = read_checkpoint_file(path);
  std::filesystem::remove(path);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  SimKernel kernel(jobs, scheduler, *sel, options);
  kernel.begin(jobs[0].release());
  CheckpointReader kernel_in = file.section_reader("kernel");
  CheckpointReader scheduler_in = file.section_reader("scheduler");
  kernel.load_checkpoint_state(kernel_in, scheduler_in);

  std::size_t bytes = 0;
  for (auto _ : state) {
    CheckpointFile snapshot;
    snapshot.meta = file.meta;
    CheckpointWriter kernel_out;
    CheckpointWriter scheduler_out;
    kernel.save_checkpoint_state(kernel_out, scheduler_out);
    snapshot.sections.push_back({"kernel", kernel_out.take()});
    snapshot.sections.push_back({"scheduler", scheduler_out.take()});
    bytes = serialize_checkpoint(snapshot).size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_CheckpointSnapshot)->Arg(300);

/// Counts and discards what is written, through an 8 KiB put area as a
/// file stream buffers it: the event bench times line formatting, not
/// storage.
class DiscardingBuffer final : public std::streambuf {
 public:
  DiscardingBuffer() { setp(area_, area_ + sizeof area_); }
  std::size_t bytes() const {
    return flushed_ + static_cast<std::size_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override {
    flushed_ += static_cast<std::size_t>(pptr() - pbase());
    setp(area_, area_ + sizeof area_);
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    return sputc(traits_type::to_char_type(ch));
  }

 private:
  char area_[8192];
  std::size_t flushed_ = 0;
};

void BM_EventJsonl(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  EventLog log;
  {
    const JobSet jobs = make_scale_jobs(count / 8);
    DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
    auto sel = make_selector(SelectorKind::kFifo);
    ObsSink sink;
    sink.events = &log;
    SimOptions options;
    options.num_procs = 16;
    options.obs = &sink;
    run_simulation(EngineKind::kEvent, jobs, scheduler, *sel, options);
  }
  const std::vector<DecisionEvent> events(
      log.events().begin(),
      log.events().begin() +
          static_cast<std::ptrdiff_t>(std::min(count, log.size())));
  DiscardingBuffer buffer;
  std::ostream out(&buffer);
  for (auto _ : state) {
    for (const DecisionEvent& event : events) write_event_jsonl(out, event);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
  state.counters["bytes_per_event"] =
      static_cast<double>(buffer.bytes()) /
      static_cast<double>(state.iterations()) /
      static_cast<double>(events.size());
}
BENCHMARK(BM_EventJsonl)->Arg(10000);

/// Console output as usual, plus a structured copy of every finished run
/// for the --out bench report.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      BenchMeasurement measurement;
      measurement.name = run.benchmark_name();
      measurement.iterations = static_cast<std::uint64_t>(run.iterations);
      measurement.real_time_ns = run.GetAdjustedRealTime();
      measurement.cpu_time_ns = run.GetAdjustedCPUTime();
      measurement.aggregate = run.run_type == Run::RT_Aggregate;
      for (const auto& [name, counter] : run.counters) {
        measurement.counters.emplace_back(name, counter.value);
      }
      measurements.push_back(std::move(measurement));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<BenchMeasurement> measurements;
};

}  // namespace

int main(int argc, char** argv) {
  // Split off --out / --quick before google-benchmark parses the command
  // line (it rejects flags it does not know).
  std::string out_path;
  bool quick = false;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 2);
  passthrough.push_back(argv[0]);
  // The quick tier pins a small-argument subset and a short min-time; user
  // flags are appended after these, so an explicit filter/min-time wins.
  // The 100000-arg scale points (10^5.. generated jobs) are part of the
  // blocking tier since the million-job memory work: they are what the
  // arena / SoA / d-ary-heap hot path is for, and at one quarter-second
  // min-time each they cost a handful of iterations per gate run.
  static char quick_filter[] =
      "--benchmark_filter=BM_EventEngineEdf/50$|BM_EventEnginePaperS/50$|"
      "BM_SlotEngineEdf/100$|BM_SlotEngineProfit/400$|"
      "BM_SlotEngineProfit/3000$|"
      "BM_DensityIndexAdmit/128$|BM_AllocationMath$|"
      "BM_OptUpperBoundLp/50$|BM_DagGeneration$|"
      "BM_EventEnginePaperSScale/10000$|BM_EventEngineEdfScale/10000$|"
      "BM_SlotEngineEdfScale/10000$|BM_EventEngineLlfScale/10000$|"
      "BM_EventEngineEquiScale/10000$|"
      "BM_EventEnginePaperSScale/100000$|BM_EventEngineEdfScale/100000$|"
      "BM_SlotEngineEdfScale/100000$|BM_EventEngineLlfScale/100000$|"
      "BM_DensityQueueOps/100000$|"
      "BM_EventEnginePaperSTelemetry/50$|BM_EventEnginePaperSTelemetry/10000$|"
      "BM_SlotEngineEdfTelemetry/100$|"
      "BM_LoadWorkload/10000/iterations:8/real_time$|"
      "BM_LoadWorkloadFile/10000/iterations:8/real_time$|"
      "BM_LoadWorkloadProfit/3000/real_time$|"
      "BM_CheckpointSnapshot/300$|BM_EventJsonl/10000$";
  static char quick_min_time[] = "--benchmark_min_time=0.25";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg == "--quick") {
      quick = true;
      passthrough.insert(passthrough.begin() + 1, quick_filter);
      passthrough.insert(passthrough.begin() + 2, quick_min_time);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (quick) {
    std::cout << "quick tier: fixed benchmark subset at reduced min-time\n";
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!out_path.empty()) {
    const JsonValue report =
        build_bench_report("engine_perf", reporter.measurements);
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    report.write_pretty(out);
    out << "\n";
    std::cout << "wrote bench report to " << out_path << "\n";
  }
  return 0;
}

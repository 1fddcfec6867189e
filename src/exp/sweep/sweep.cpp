#include "exp/sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "util/check.h"

namespace dagsched {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

SweepCellResult run_sweep_cell(const SweepCellSpec& spec,
                               const SweepOptions& options) {
  SweepCellResult result;
  DS_CHECK_MSG(spec.jobs != nullptr,
               "sweep cell '" << spec.id << "' has no workload attached");

  // Configuration errors are per-cell data, never aborts: one bad cell must
  // not take down a 93-cell fleet.
  std::unique_ptr<SchedulerBase> scheduler;
  try {
    scheduler = make_named_scheduler(spec.scheduler, spec.eps);
  } catch (const std::invalid_argument& error) {
    result.error = error.what();
    return result;
  }
  result.error = scheduler_engine_error(spec.scheduler, spec.engine);
  if (!result.error.empty()) return result;

  std::optional<FaultInjector> injector;
  if (!spec.fault_spec.empty()) {
    std::string error;
    injector = make_fault_injector(spec.fault_spec, spec.m, error);
    if (!injector) {
      result.error = "bad fault spec: " + error;
      return result;
    }
  }

  // Isolated observability state: one recorder + registry + log per cell,
  // constructed here and torn down before the result is published, so no
  // two cells ever share a mutable instrument (the registry-isolation half
  // of the determinism contract).
  std::optional<TelemetryRecorder> telemetry;
  if (options.telemetry) {
    TelemetryOptions telemetry_options;
    telemetry_options.include_rss = false;  // process-global, meaningless
                                            // per concurrent cell
    telemetry.emplace(telemetry_options);
  }
  MetricRegistry registry;
  EventLog events;
  ObsSink sink;
  sink.metrics = &registry;
  if (options.capture_events) sink.events = &events;

  RunConfig run;
  run.m = spec.m;
  run.speed = spec.speed;
  run.selector = spec.selector;
  run.selector_seed = spec.selector_seed;
  run.engine = spec.engine;
  run.obs = &sink;
  run.faults = injector ? &*injector : nullptr;
  run.telemetry = telemetry ? &*telemetry : nullptr;

  const Clock::time_point start = Clock::now();
  result.metrics = run_workload(*spec.jobs, *scheduler, run);

  if (telemetry) {
    result.decide = telemetry->decide_histogram();
    result.transition = telemetry->transition_histogram();
    result.admission = telemetry->admission_histogram();
  }
  if (options.capture_events) {
    std::ostringstream out;
    events.write_jsonl(out);
    result.events_jsonl = std::move(out).str();
  }
  result.counters = registry.counter_values();
  // Wall time covers the simulation *and* result extraction (histogram
  // copies, event serialization): the full unit of work the executor
  // parallelizes, so serial_wall_ms / wall_ms is an honest speedup.
  result.wall_ms = ms_since(start);
  return result;
}

SweepResult run_sweep(std::vector<SweepCellSpec> cells,
                      const SweepOptions& options) {
  SweepResult sweep;
  sweep.cells = std::move(cells);
  sweep.results.resize(sweep.cells.size());
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::max<std::size_t>(1, std::min(threads, sweep.cells.size()));
  sweep.threads = threads;
  if (sweep.cells.empty()) return sweep;

  const Clock::time_point start = Clock::now();

  // Every cell is known before any worker starts, so one shared cursor
  // hands them out in index order: a worker claims the next index with
  // fetch_add until the index passes the end.  Results land in pre-sized
  // distinct slots, so no lock guards them and no order is imposed.
  const std::size_t total = sweep.cells.size();
  std::atomic<std::size_t> cursor{0};

  // Progress state, guarded by one mutex; the live merged decide histogram
  // backs the p99 readout (merge order is completion order here, which is
  // fine: bucket addition commutes -- the *report* merge below re-runs in
  // cell-index order anyway).
  std::mutex progress_mutex;
  std::size_t completed = 0;
  std::size_t failed = 0;
  LatencyHistogram live_decide;

  auto worker_body = [&] {
    for (std::size_t cell = cursor.fetch_add(1); cell < total;
         cell = cursor.fetch_add(1)) {
      sweep.results[cell] = run_sweep_cell(sweep.cells[cell], options);
      if (!options.on_progress) continue;

      std::lock_guard lock(progress_mutex);
      ++completed;
      const SweepCellResult& done = sweep.results[cell];
      if (!done.ok()) ++failed;
      live_decide.merge(done.decide);
      SweepProgress progress;
      progress.total = total;
      progress.completed = completed;
      progress.failed = failed;
      progress.running = std::min(cursor.load(), total) - completed;
      progress.elapsed_sec = ms_since(start) / 1e3;
      if (progress.elapsed_sec > 0.0) {
        progress.cells_per_sec =
            static_cast<double>(completed) / progress.elapsed_sec;
      }
      if (progress.cells_per_sec > 0.0) {
        progress.eta_sec =
            static_cast<double>(total - completed) / progress.cells_per_sec;
      }
      progress.decide_p99_ns = live_decide.percentile_ns(0.99);
      options.on_progress(progress);
    }
  };

  if (threads == 1) {
    worker_body();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) workers.emplace_back(worker_body);
    for (std::thread& worker : workers) worker.join();
  }
  sweep.wall_ms = ms_since(start);

  // Deterministic fleet merge in cell-index order.
  MetricRegistry rollup;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const SweepCellResult& result = sweep.results[i];
    sweep.serial_wall_ms += result.wall_ms;
    if (!result.ok()) ++sweep.failed_cells;
    sweep.decide.merge(result.decide);
    sweep.transition.merge(result.transition);
    sweep.admission.merge(result.admission);
    for (const auto& [name, value] : result.counters) {
      rollup.counter(name)->add(value);
    }
  }
  sweep.counters = rollup.counter_values();
  return sweep;
}

}  // namespace dagsched

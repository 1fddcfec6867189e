// perfbench_trace: the in-process half of the end-to-end benchmark.
//
// It repeats what `dagsched run` or `dagsched sweep` does for one benchmark
// workload by calling the dagsched libraries directly:
//
//   perfbench_trace digest WL [flags]
//       One untraced run.  Prints the decision digest that the CLI's output
//       for the same input must agree with.
//   perfbench_trace trace WL [flags]
//       One traced pass.  Prints its digest and its per-layer metrics.
//
// Run flags mirror the CLI: --scheduler --engine --m --faults --events
// --checkpoint --checkpoint-interval --telemetry --telemetry-interval (in
// simulated time units).  `--sweep --schedulers A,B --engines E,F
// --sweep-jobs N` mirrors `dagsched sweep`.
//
// Spans are taken only around calls into the libraries' public entry
// points: the workload loader, the fault-plan builder, the checkpoint
// fingerprint, run_simulation, run_sweep, forwarding decorators around
// SchedulerBase and NodeSelector, and a counting streambuf handed to
// EventLog::stream_to.  Spans stay in memory and are reduced after the pass,
// so the named self times plus trace.unattributed_s equal trace.wall_s.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep/sweep.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "sim/metrics.h"
#include "sim/node_selector.h"
#include "sim/outcome.h"
#include "sim/scheduler.h"
#include "util/arg_parse.h"
#include "util/json.h"
#include "util/wire.h"
#include "workload/workload_io.h"

namespace {

using namespace dagsched;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- Spans ----------------------------------------------------------------

enum class Layer : std::uint8_t {
  kLoad,
  kFaultBuild,
  kFingerprint,
  kSimRun,
  kCoreDecide,
  kCoreArrival,
  kCoreCompletion,
  kCoreDeadline,
  kCoreCapacity,
  kBaselinesDecide,
  kBaselinesCallback,
  kSelect,
  kEventWrite,
  kSweepRun,
  kCount,
};
constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);

/// Self-time metric of each layer, in Layer order.
constexpr std::array<const char*, kLayers> kSelfMetric = {
    "workload.load_s",    "fault.build_s",        "checkpoint.fingerprint_s",
    "sim.self_s",         "core.decide_s",        "core.arrival_s",
    "core.completion_s",  "core.deadline_s",      "core.capacity_s",
    "baselines.decide_s", "baselines.callback_s", "select.s",
    "obs.event_write_s",  "sweep.run_s",
};

constexpr std::uint32_t kNoParent = UINT32_MAX;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = Layer::kLoad;
};

/// Single-threaded span recorder: spans nest strictly (RAII scopes), so the
/// open span is the parent of the next one.
class Tracer {
 public:
  Tracer() { spans_.reserve(std::size_t{1} << 20); }

  std::uint32_t open(Layer layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current_, layer});
    current_ = id;
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    current_ = spans_[id].parent;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
};

/// Times its lifetime as one span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(layer) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// ---- Decorators -----------------------------------------------------------

/// The schedulers of the paper (core/); everything else is a baseline.
bool is_core_scheduler(const std::string& name) {
  return name == "s" || name == "s-wc" || name == "s-noadm" ||
         name == "profit";
}

/// Forwards every SchedulerBase virtual to `inner`, timing the callbacks.
class TracedScheduler final : public SchedulerBase {
 public:
  TracedScheduler(SchedulerBase& inner, Tracer& tracer, bool core)
      : inner_(inner),
        tracer_(tracer),
        decide_(core ? Layer::kCoreDecide : Layer::kBaselinesDecide),
        arrival_(core ? Layer::kCoreArrival : Layer::kBaselinesCallback),
        completion_(core ? Layer::kCoreCompletion : Layer::kBaselinesCallback),
        deadline_(core ? Layer::kCoreDeadline : Layer::kBaselinesCallback),
        capacity_(core ? Layer::kCoreCapacity : Layer::kBaselinesCallback) {}

  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return inner_.clairvoyant(); }
  void reset() override { inner_.reset(); }
  void on_arrival(const EngineContext& ctx, JobId job) override {
    Scope scope(&tracer_, arrival_);
    inner_.on_arrival(ctx, job);
  }
  void on_completion(const EngineContext& ctx, JobId job) override {
    Scope scope(&tracer_, completion_);
    inner_.on_completion(ctx, job);
  }
  void on_deadline(const EngineContext& ctx, JobId job) override {
    Scope scope(&tracer_, deadline_);
    inner_.on_deadline(ctx, job);
  }
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override {
    Scope scope(&tracer_, capacity_);
    inner_.on_capacity_change(ctx, old_m, new_m);
  }
  Time next_wakeup(const EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    Scope scope(&tracer_, decide_);
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
  Tracer& tracer_;
  Layer decide_;
  Layer arrival_;
  Layer completion_;
  Layer deadline_;
  Layer capacity_;
};

class TracedSelector final : public NodeSelector {
 public:
  TracedSelector(NodeSelector& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string name() const override { return inner_.name(); }
  void select(const Dag& dag, const UnfoldingState& state, std::size_t k,
              std::vector<NodeId>& out) override {
    Scope scope(&tracer_, Layer::kSelect);
    inner_.select(dag, state, k, out);
  }

 private:
  NodeSelector& inner_;
  Tracer& tracer_;
};

/// Buffered streambuf in front of the event-log file.  It counts the bytes
/// it forwards and, when traced, times each forward (a buffer flush).
class EventStreamBuf final : public std::streambuf {
 public:
  EventStreamBuf(std::streambuf* sink, Tracer* tracer)
      : sink_(sink), tracer_(tracer) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!forward()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return forward() && sink_->pubsync() == 0 ? 0 : -1; }

 private:
  bool forward() {
    const std::streamsize pending = pptr() - pbase();
    if (pending == 0) return true;
    Scope scope(tracer_, Layer::kEventWrite);
    const bool ok = sink_->sputn(pbase(), pending) == pending;
    bytes_ += static_cast<std::uint64_t>(pending);
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    return ok;
  }

  std::array<char, 8192> buffer_{};
  std::streambuf* sink_;
  Tracer* tracer_;
  std::uint64_t bytes_ = 0;
};

// ---- Flags ----------------------------------------------------------------

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

EngineKind engine_of(const std::string& name) {
  const std::optional<EngineKind> kind = parse_engine_kind(name);
  if (!kind) throw std::invalid_argument("unknown engine '" + name + "'");
  return *kind;
}

struct Flags {
  std::string mode;
  std::string workload;
  std::string scheduler;
  std::string engine;
  ProcCount m = 16;
  /// The CLI's default; no workload sets --eps.
  double eps = 0.5;
  std::string faults;
  std::string events;
  std::string checkpoint;
  std::uint64_t checkpoint_interval = 1000;
  std::string telemetry;
  double telemetry_interval = 0.0;
  bool sweep = false;
  std::vector<std::string> schedulers;
  std::vector<std::string> engines;
  std::size_t sweep_jobs = 2;
};

Flags parse_flags(int argc, char** argv) {
  ArgParser args(argc, argv);
  Flags flags;
  if (args.positional().size() != 2) {
    throw std::invalid_argument(
        "usage: perfbench_trace digest|trace WORKLOAD [flags]");
  }
  flags.mode = args.positional()[0];
  flags.workload = args.positional()[1];
  if (flags.mode != "digest" && flags.mode != "trace") {
    throw std::invalid_argument("unknown mode '" + flags.mode + "'");
  }
  flags.scheduler = args.get_string("scheduler", "s");
  flags.engine = args.get_string("engine", "event");
  const std::int64_t m = args.get_int("m", 16);
  flags.faults = args.get_string("faults", "");
  flags.events = args.get_string("events", "");
  flags.checkpoint = args.get_string("checkpoint", "");
  const std::int64_t interval = args.get_int("checkpoint-interval", 1000);
  flags.telemetry = args.get_string("telemetry", "");
  flags.telemetry_interval = args.get_double("telemetry-interval", 0.0);
  flags.sweep = args.get_flag("sweep");
  flags.schedulers = split_list(args.get_string("schedulers", "s"));
  flags.engines = split_list(args.get_string("engines", "event"));
  const std::int64_t sweep_jobs = args.get_int("sweep-jobs", 2);
  args.finish();
  if (m < 1 || m > 4096 || interval < 1 || sweep_jobs < 1 ||
      flags.telemetry_interval < 0.0) {
    throw std::invalid_argument("flag value out of range");
  }
  flags.m = static_cast<ProcCount>(m);
  flags.checkpoint_interval = static_cast<std::uint64_t>(interval);
  flags.sweep_jobs = static_cast<std::size_t>(sweep_jobs);
  return flags;
}

// ---- Passes ---------------------------------------------------------------

struct Gauges {
  double jobs = 0.0;
  double kernel = 0.0;
  double unfolding = 0.0;
  double scheduler = 0.0;
  double tracked_per_job() const {
    return jobs > 0.0 ? (kernel + unfolding + scheduler) / jobs : 0.0;
  }
};

Gauges gauges_of(const TelemetryRecorder& telemetry) {
  Gauges gauges;
  if (!telemetry.has_sample()) return gauges;
  const TelemetrySample& sample = telemetry.last_sample();
  gauges.jobs = static_cast<double>(sample.jobs_total);
  gauges.kernel = static_cast<double>(sample.kernel_bytes);
  gauges.unfolding = static_cast<double>(sample.unfolding_bytes);
  gauges.scheduler = static_cast<double>(sample.scheduler_bytes);
  return gauges;
}

/// What one pass produced.  `wall_s` covers load to summary; everything
/// else is read after the clock stops.
struct Pass {
  JsonValue digest = JsonValue::object();
  double wall_s = 0.0;
  std::vector<Span> spans;
  std::uint64_t bytes = 0;
  std::uint64_t jobs = 0;
  std::uint64_t nodes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t fault_transitions = 0;
  std::uint64_t events = 0;
  std::uint64_t event_bytes = 0;
  std::uint64_t telemetry_snapshots = 0;
  std::uint64_t checkpoint_snapshots = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::optional<Gauges> gauges;
  // Sweep only.
  std::vector<double> cell_s;
  double sweep_wall_s = 0.0;
  double sweep_serial_s = 0.0;
  std::size_t sweep_threads = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// The digest fields `dagsched run` prints: profit in the CLI's default
/// stream format, completed jobs and decisions.
JsonValue result_digest(const SimResult& result) {
  std::ostringstream profit;
  profit << result.total_profit;
  JsonValue digest = JsonValue::object();
  digest.set("profit", profit.str());
  digest.set("profit_exact", result.total_profit);
  digest.set("completed", std::uint64_t{result.jobs_completed});
  digest.set("decisions", std::uint64_t{result.decisions});
  digest.set("failed", result.failed());
  return digest;
}

void count_input(Pass& pass, const std::string& path, const JobSet& jobs) {
  pass.bytes = std::filesystem::file_size(path);
  pass.jobs = jobs.size();
  for (const Job& job : jobs.jobs()) pass.nodes += job.dag().num_nodes();
}

/// One `dagsched run` equivalent.  `with_checkpoint` off drops the sink
/// (the second pass behind checkpoint.write_s); `gauges` attaches a
/// histogram-only telemetry recorder when the run has none of its own.
Pass run_pass(const Flags& flags, Tracer* tracer, bool with_checkpoint,
              bool gauges) {
  Pass pass;
  const std::int64_t start = now_ns();
  JobSet jobs;
  {
    Scope scope(tracer, Layer::kLoad);
    jobs = load_workload(flags.workload);
  }

  std::optional<FaultInjector> injector;
  if (!flags.faults.empty()) {
    Scope scope(tracer, Layer::kFaultBuild);
    std::string error;
    const auto config = parse_fault_spec(flags.faults, &error);
    if (!config) throw std::invalid_argument("bad --faults: " + error);
    injector.emplace(build_fault_plan(*config, flags.m));
  }

  EventLog event_log;
  ObsSink sink;
  std::ofstream telemetry_file;
  std::optional<TelemetryRecorder> telemetry;
  if (!flags.telemetry.empty() || gauges) {
    TelemetryOptions options;
    if (!flags.telemetry.empty()) {
      telemetry_file.open(flags.telemetry);
      if (!telemetry_file) throw std::runtime_error("cannot open telemetry");
      options.out = &telemetry_file;
      options.sim_interval = flags.telemetry_interval;
    }
    telemetry.emplace(options);
  }
  std::ofstream events_file;
  std::unique_ptr<EventStreamBuf> events_buf;
  std::unique_ptr<std::ostream> events_out;
  if (!flags.events.empty()) {
    sink.events = &event_log;
    events_file.open(flags.events, std::ios::binary);
    if (!events_file) throw std::runtime_error("cannot open events file");
    events_buf = std::make_unique<EventStreamBuf>(events_file.rdbuf(), tracer);
    events_out = std::make_unique<std::ostream>(events_buf.get());
    event_log.stream_to(events_out.get());
  }

  std::optional<CheckpointSink> checkpoint;
  if (with_checkpoint && !flags.checkpoint.empty()) {
    CheckpointMeta meta;
    {
      Scope scope(tracer, Layer::kFingerprint);
      meta.config_hash = run_config_fingerprint(
          read_file(flags.workload), flags.scheduler, flags.eps, flags.m, 1.0,
          flags.engine, "fifo", flags.faults);
    }
    meta.workload = flags.workload;
    meta.engine = flags.engine;
    meta.scheduler = flags.scheduler;
    meta.fault_spec = flags.faults;
    meta.m = flags.m;
    meta.jobs = jobs.size();
    checkpoint.emplace(flags.checkpoint, flags.checkpoint_interval,
                       std::move(meta), sink.events);
  }

  auto scheduler = make_named_scheduler(flags.scheduler, flags.eps);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  std::optional<TracedScheduler> traced_scheduler;
  std::optional<TracedSelector> traced_selector;
  SchedulerBase* run_scheduler = scheduler.get();
  NodeSelector* run_selector = selector.get();
  if (tracer != nullptr) {
    run_scheduler = &traced_scheduler.emplace(
        *scheduler, *tracer, is_core_scheduler(flags.scheduler));
    run_selector = &traced_selector.emplace(*selector, *tracer);
  }

  SimOptions options;
  options.num_procs = flags.m;
  options.obs = sink.enabled() ? &sink : nullptr;
  options.faults = injector ? &*injector : nullptr;
  options.telemetry = telemetry ? &*telemetry : nullptr;
  options.checkpoint = checkpoint ? &*checkpoint : nullptr;
  SimResult result;
  {
    Scope scope(tracer, Layer::kSimRun);
    result = run_simulation(engine_of(flags.engine), jobs, *run_scheduler,
                            *run_selector, options);
  }
  // The CLI prints these schedule metrics, so the pass computes them too.
  (void)compute_metrics(result, jobs, flags.m);
  if (events_out) {
    event_log.stream_to(nullptr);
    events_out->flush();
    if (!*events_out) throw std::runtime_error("cannot write events file");
  }
  if (telemetry_file.is_open()) telemetry_file.flush();
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  pass.digest = result_digest(result);
  count_input(pass, flags.workload, jobs);
  pass.decisions = result.decisions;
  if (injector) pass.fault_transitions = injector->transitions().size();
  if (events_buf) {
    events_file.close();
    pass.events = event_log.size();
    pass.event_bytes = events_buf->bytes();
    pass.digest.set("events", pass.events);
    pass.digest.set("events_fnv", hex64(fnv1a64(read_file(flags.events))));
  }
  if (telemetry) {
    pass.telemetry_snapshots = telemetry->snapshots_emitted();
    pass.gauges = gauges_of(*telemetry);
  }
  if (checkpoint) {
    pass.checkpoint_snapshots = checkpoint->snapshots();
    if (std::filesystem::exists(flags.checkpoint)) {
      pass.checkpoint_bytes = std::filesystem::file_size(flags.checkpoint);
    }
  }
  if (tracer != nullptr) pass.spans = tracer->take();
  return pass;
}

std::vector<SweepCellSpec> sweep_cells(const Flags& flags, const JobSet& jobs) {
  std::vector<SweepCellSpec> cells;
  for (const std::string& scheduler : flags.schedulers) {
    for (const std::string& engine : flags.engines) {
      SweepCellSpec spec;
      spec.id = scheduler + "_" + engine;
      spec.workload_label = "perfbench";
      spec.jobs = &jobs;
      spec.scheduler = scheduler;
      spec.engine = engine_of(engine);
      spec.m = flags.m;
      spec.eps = flags.eps;
      cells.push_back(std::move(spec));
    }
  }
  return cells;
}

JsonValue cell_digest(const SweepCellSpec& spec, const SimResult& result) {
  JsonValue digest = result_digest(result);
  digest.set("scheduler", spec.scheduler);
  digest.set("engine", engine_kind_name(spec.engine));
  return digest;
}

/// One `dagsched sweep` equivalent: the real work-stealing pool with the
/// CLI's defaults.  A traced pass then reruns every cell serially through
/// the decorators, for the per-layer split the pool cannot give.
Pass sweep_pass(const Flags& flags, Tracer* tracer, bool gauges) {
  Pass pass;
  const std::int64_t start = now_ns();
  JobSet jobs;
  {
    Scope scope(tracer, Layer::kLoad);
    jobs = load_workload(flags.workload);
  }
  const std::vector<SweepCellSpec> cells = sweep_cells(flags, jobs);
  SweepOptions options;
  options.threads = flags.sweep_jobs;
  SweepResult sweep;
  {
    Scope scope(tracer, Layer::kSweepRun);
    sweep = run_sweep(cells, options);
  }
  JsonValue digest_cells = JsonValue::array();
  if (tracer == nullptr) {
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      const SweepCellResult& cell = sweep.results[i];
      if (!cell.ok()) throw std::runtime_error("sweep cell failed");
      SimResult as_result;
      as_result.total_profit = cell.metrics.profit;
      as_result.jobs_completed = cell.metrics.completed;
      as_result.decisions = cell.metrics.decisions;
      as_result.failure = cell.metrics.failure;
      digest_cells.push_back(cell_digest(sweep.cells[i], as_result));
      pass.decisions += cell.metrics.decisions;
    }
  } else {
    for (const SweepCellSpec& spec : cells) {
      auto scheduler = make_named_scheduler(spec.scheduler, spec.eps);
      auto selector = make_selector(spec.selector, spec.selector_seed);
      TracedScheduler traced_scheduler(*scheduler, *tracer,
                                       is_core_scheduler(spec.scheduler));
      TracedSelector traced_selector(*selector, *tracer);
      SimOptions sim;
      sim.num_procs = spec.m;
      sim.speed = spec.speed;
      SimResult result;
      {
        Scope scope(tracer, Layer::kSimRun);
        result = run_simulation(spec.engine, jobs, traced_scheduler,
                                traced_selector, sim);
      }
      digest_cells.push_back(cell_digest(spec, result));
      pass.decisions += result.decisions;
    }
  }
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  pass.digest.set("cells", std::move(digest_cells));
  count_input(pass, flags.workload, jobs);
  for (const SweepCellResult& cell : sweep.results) {
    pass.cell_s.push_back(cell.wall_ms * 1e-3);
  }
  pass.sweep_wall_s = sweep.wall_ms * 1e-3;
  pass.sweep_serial_s = sweep.serial_wall_ms * 1e-3;
  pass.sweep_threads = sweep.threads;
  if (gauges) {
    // The cell with the most tracked bytes per job bounds what two
    // concurrent cells hold; report its gauges.
    Gauges worst;
    for (const SweepCellSpec& spec : cells) {
      auto scheduler = make_named_scheduler(spec.scheduler, spec.eps);
      TelemetryRecorder telemetry;
      RunConfig run;
      run.m = spec.m;
      run.selector_seed = spec.selector_seed;
      run.engine = spec.engine;
      run.telemetry = &telemetry;
      (void)run_workload(jobs, *scheduler, run);
      const Gauges cell = gauges_of(telemetry);
      if (cell.tracked_per_job() > worst.tracked_per_job()) worst = cell;
    }
    pass.gauges = worst;
  }
  if (tracer != nullptr) pass.spans = tracer->take();
  return pass;
}

Pass one_pass(const Flags& flags, bool traced, bool with_checkpoint,
              bool gauges) {
  std::optional<Tracer> tracer;
  if (traced) tracer.emplace();
  Tracer* t = tracer ? &*tracer : nullptr;
  return flags.sweep ? sweep_pass(flags, t, gauges)
                     : run_pass(flags, t, with_checkpoint, gauges);
}

// ---- Reduction ------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double sim_run_s(const Pass& pass) {
  std::int64_t total = 0;
  for (const Span& span : pass.spans) {
    if (span.layer == Layer::kSimRun) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

JsonValue layer_metrics(const Pass& pass) {
  std::array<double, kLayers> total{};
  std::array<double, kLayers> self{};
  std::array<std::uint64_t, kLayers> calls{};
  std::vector<std::int64_t> child(pass.spans.size(), 0);
  for (const Span& span : pass.spans) {
    if (span.parent != kNoParent) {
      child[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<std::int64_t> core_decide;
  std::vector<std::int64_t> baselines_decide;
  double rooted = 0.0;
  for (std::size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& span = pass.spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto layer = static_cast<std::size_t>(span.layer);
    total[layer] += static_cast<double>(duration) * 1e-9;
    self[layer] += static_cast<double>(duration - child[i]) * 1e-9;
    ++calls[layer];
    if (span.parent == kNoParent) {
      rooted += static_cast<double>(duration) * 1e-9;
    }
    if (span.layer == Layer::kCoreDecide) core_decide.push_back(duration);
    if (span.layer == Layer::kBaselinesDecide) {
      baselines_decide.push_back(duration);
    }
  }
  const auto at = [](Layer layer) { return static_cast<std::size_t>(layer); };

  JsonValue metrics = JsonValue::object();
  for (std::size_t i = 0; i < kLayers; ++i) {
    metrics.set(kSelfMetric[i], self[i]);
  }
  const double load_s = total[at(Layer::kLoad)];
  metrics.set("workload.mb_per_s",
              load_s > 0.0 ? static_cast<double>(pass.bytes) * 1e-6 / load_s
                           : 0.0);
  metrics.set("workload.bytes", pass.bytes);
  metrics.set("workload.jobs", pass.jobs);
  metrics.set("workload.nodes", pass.nodes);
  metrics.set("core.decide_calls", calls[at(Layer::kCoreDecide)]);
  metrics.set("core.decide_p50_ns", percentile(core_decide, 0.50));
  metrics.set("core.decide_p99_ns", percentile(core_decide, 0.99));
  metrics.set("baselines.decide_p99_ns", percentile(baselines_decide, 0.99));
  metrics.set("select.calls", calls[at(Layer::kSelect)]);
  metrics.set("sim.run_s", total[at(Layer::kSimRun)]);
  metrics.set("sim.decisions", pass.decisions);
  metrics.set("sim.ns_per_decision",
              pass.decisions > 0 ? self[at(Layer::kSimRun)] * 1e9 /
                                       static_cast<double>(pass.decisions)
                                 : 0.0);
  metrics.set("fault.transitions", pass.fault_transitions);
  metrics.set("obs.events", pass.events);
  metrics.set("obs.event_bytes", pass.event_bytes);
  metrics.set("obs.telemetry_snapshots", pass.telemetry_snapshots);
  metrics.set("checkpoint.snapshots", pass.checkpoint_snapshots);
  metrics.set("checkpoint.bytes_per_snapshot", pass.checkpoint_bytes);
  metrics.set("sweep.cells", std::uint64_t{pass.cell_s.size()});
  metrics.set("sweep.cell_p50_s", percentile(pass.cell_s, 0.50));
  metrics.set("sweep.cell_max_s", percentile(pass.cell_s, 1.0));
  metrics.set("sweep.serial_s", pass.sweep_serial_s);
  const double pool_s =
      pass.sweep_wall_s * static_cast<double>(pass.sweep_threads);
  metrics.set("sweep.speedup", pass.sweep_wall_s > 0.0
                                   ? pass.sweep_serial_s / pass.sweep_wall_s
                                   : 0.0);
  metrics.set("sweep.worker_idle_share",
              pool_s > 0.0 ? 1.0 - pass.sweep_serial_s / pool_s : 0.0);
  const Gauges gauges = pass.gauges.value_or(Gauges{});
  const double jobs = gauges.jobs > 0.0 ? gauges.jobs : 1.0;
  metrics.set("mem.tracked_bytes_per_job", gauges.tracked_per_job());
  metrics.set("mem.kernel_bytes_per_job", gauges.kernel / jobs);
  metrics.set("mem.unfolding_bytes_per_job", gauges.unfolding / jobs);
  metrics.set("mem.scheduler_bytes_per_job", gauges.scheduler / jobs);
  metrics.set("trace.wall_s", pass.wall_s);
  metrics.set("trace.unattributed_s", pass.wall_s - rooted);
  return metrics;
}

int run(const Flags& flags) {
  JsonValue out = JsonValue::object();
  if (flags.mode == "digest") {
    out.set("digest", one_pass(flags, false, true, false).digest);
  } else {
    Pass pass = one_pass(flags, true, true, false);
    if (!pass.gauges) pass.gauges = one_pass(flags, false, true, true).gauges;
    JsonValue metrics = layer_metrics(pass);
    double checkpoint_write_s = 0.0;
    if (!flags.checkpoint.empty() && !flags.sweep) {
      // checkpoint.write_s is not a span: it is sim.run_s of this traced
      // pass minus sim.run_s of a second traced pass without the sink.
      checkpoint_write_s =
          sim_run_s(pass) - sim_run_s(one_pass(flags, true, false, false));
    }
    metrics.set("checkpoint.write_s", checkpoint_write_s);
    out.set("digest", std::move(pass.digest));
    out.set("metrics", std::move(metrics));
  }
  out.write(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_flags(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 2;
  }
}

// dagsched -- command-line front end.
//
//   dagsched generate --scenario thm2 --eps 0.5 --load 1.0 --m 8
//            --horizon 200 --seed 42 --out instance.wl
//            [--fault-corrupt P] [--fault-corrupt-seed S]
//            [--fault-corrupt-severity X]
//   dagsched run instance.wl --scheduler s --m 8 [--speed 1.0] [--eps 0.5]
//            [--engine event|slot] [--selector fifo|lifo|random|adversarial|
//             critical-path] [--gantt] [--svg out.svg]
//            [--obs report.json] [--events events.jsonl]
//            [--faults mtbf=50,mttr=5,horizon=500,...]
//   dagsched report report.json   # pretty-print a run report
//   dagsched inspect instance.wl [--dot <job-index> ]
//   dagsched opt instance.wl --m 8   # bracket OPT; exact if all-sequential
//
// Exit codes: 0 success, 1 usage or internal error, 2 malformed input
// (workload/trace/fault-spec parse error, --m or --speed out of range),
// 3 simulation failure (livelock guard or runaway horizon -- the run
// terminated abnormally but cleanly), 4 `trace diff` found a divergence
// between the two event logs.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/deadline_scheduler.h"
#include "dag/dot.h"
#include "exp/runner.h"
#include "exp/sweep/report_writer.h"
#include "exp/sweep/sweep.h"
#include "fault/corruption.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/attribution.h"
#include "obs/crash_dump.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/sweep_report.h"
#include "obs/telemetry/telemetry.h"
#include "obs/trace_export.h"
#include "opt/exact.h"
#include "opt/upper_bound.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/gantt.h"
#include "sim/metrics.h"
#include "util/arg_parse.h"
#include "util/file_bytes.h"
#include "util/parse_error.h"
#include "util/table.h"
#include "util/wire.h"
#include "workload/analyzer.h"
#include "workload/scenarios.h"
#include "workload/trace_import.h"
#include "workload/workload_io.h"

namespace {

using namespace dagsched;

/// Parses the bytes of a .wl workload file or a .csv parameterized trace.
JobSet parse_instance(std::string_view bytes, const std::string& path) {
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv") {
    std::istringstream in{std::string(bytes)};
    return import_trace_csv(in, path);
  }
  return read_workload(bytes, path);
}

/// Loads either a .wl workload file or a .csv parameterized trace.
JobSet load_instance(const std::string& path) {
  const FileBytes bytes(path);
  return parse_instance(bytes.view(), path);
}

int usage() {
  std::cerr
      << "usage:\n"
         "  dagsched generate --scenario thm2|tight|reasonable|profit|"
         "shootout\n"
         "           [--eps E] [--load L] [--m M] [--horizon H] [--seed S] "
         "--out FILE\n"
         "           [--fault-corrupt P] [--fault-corrupt-seed S]\n"
         "           [--fault-corrupt-severity X]\n"
         "  dagsched run FILE --scheduler NAME [--m M] [--speed S] [--eps E]"
         "\n           [--engine event|slot] [--selector KIND] [--gantt] "
         "[--svg FILE]\n"
         "           [--obs REPORT.json] [--events EVENTS.jsonl]\n"
         "           [--telemetry OUT.jsonl] [--telemetry-interval "
         "N|Nms|Ns]\n"
         "           [--faults mtbf=T,mttr=T,horizon=T,seed=S,min-procs=K,"
         "\n                    integral=0|1,overrun-prob=P,overrun-factor=F,"
         "restart=resume|zero]\n"
         "           [--checkpoint CKPT --checkpoint-interval N] "
         "[--resume CKPT]\n"
         "           [--die-at-decision N] [--decide-budget N|Nus|Nms|Ns]\n"
         "           [--overload-shed K]\n"
         "  dagsched checkpoint info CKPT # print a checkpoint header\n"
         "  dagsched sweep WL... --schedulers A,B --engines event,slot\n"
         "           [--faults LABEL=SPEC;LABEL=SPEC...] [--m M] [--eps E]\n"
         "           [--speed S] [--selector KIND] [--sweep-jobs N|auto]\n"
         "           [--out SWEEP.jsonl] [--events-dir DIR] [--no-telemetry]\n"
         "           [--cells CELLS.jsonl] [--quiet]\n"
         "  dagsched sweep diff BASELINE CURRENT [--threshold T] "
         "[--warn-only]\n"
         "  dagsched report REPORT.json   # run, bench, or sweep report\n"
         "  dagsched top TELEMETRY.jsonl  # render telemetry snapshots\n"
         "  dagsched trace export FILE [run flags] [--out TRACE.json]\n"
         "  dagsched trace attribution FILE [run flags] [--json] "
         "[--out FILE]\n"
         "  dagsched trace diff A.jsonl B.jsonl [--decisions]\n"
         "  dagsched inspect FILE [--m M] [--dot JOB]\n"
         "  dagsched compare FILE [--m M] [--eps E]\n"
         "  dagsched opt FILE [--m M]\n"
         "machine flags, the same wherever listed above:\n"
         "  --m M (default 8; an integer in [1, 4294967295])\n"
         "  --speed S (default 1; finite and > 0)  --eps E (default 0.5)\n"
         "  --selector fifo|lifo|random|adversarial|critical-path "
         "(default fifo)\n"
         "schedulers:";
  for (const std::string& name : named_scheduler_list()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 1;
}

SelectorKind parse_selector(const std::string& name) {
  if (name == "fifo") return SelectorKind::kFifo;
  if (name == "lifo") return SelectorKind::kLifo;
  if (name == "random") return SelectorKind::kRandom;
  if (name == "adversarial") return SelectorKind::kAdversarial;
  if (name == "critical-path") return SelectorKind::kCriticalPath;
  throw std::invalid_argument("unknown selector '" + name + "'");
}

int cmd_generate(ArgParser& args) {
  const std::string scenario = args.get_string("scenario", "thm2");
  const double eps = args.get_double("eps", 0.5);
  const double load = args.get_double("load", 1.0);
  const auto m = static_cast<ProcCount>(args.get_int("m", 8));
  const double horizon = args.get_double("horizon", 200.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out = args.get_string("out", "");
  CorruptionConfig corruption;
  corruption.prob = args.get_double("fault-corrupt", 0.0);
  corruption.seed =
      static_cast<std::uint64_t>(args.get_int("fault-corrupt-seed", 1));
  corruption.severity = args.get_double("fault-corrupt-severity", 0.25);
  args.finish();
  if (out.empty()) {
    std::cerr << "generate: --out is required\n";
    return 1;
  }
  if (corruption.prob < 0.0 || corruption.prob > 1.0) {
    std::cerr << "generate: --fault-corrupt must be in [0, 1]\n";
    return 1;
  }
  if (corruption.severity < 0.0 || corruption.severity >= 1.0) {
    std::cerr << "generate: --fault-corrupt-severity must be in [0, 1)\n";
    return 1;
  }

  WorkloadConfig config;
  if (scenario == "thm2") {
    config = scenario_thm2(eps, load, m);
  } else if (scenario == "tight") {
    config = scenario_tight(load, m);
  } else if (scenario == "reasonable") {
    config = scenario_reasonable(load, m);
  } else if (scenario == "profit") {
    config = scenario_profit(eps, load, m, ProfitPolicy::Shape::kPlateauLinear);
  } else if (scenario == "shootout") {
    config = scenario_shootout(load, m, 0.3, 1.2);
  } else {
    std::cerr << "generate: unknown scenario '" << scenario << "'\n";
    return 1;
  }
  config.horizon = horizon;

  Rng rng(seed);
  JobSet jobs = generate_workload(rng, config);
  if (corruption.enabled()) {
    jobs = corrupt_metadata(jobs, corruption);
  }
  save_workload(out, jobs);
  std::cout << "wrote " << jobs.size() << " jobs to " << out
            << " (offered load " << jobs.utilization(m, horizon) << ")";
  if (corruption.enabled()) {
    std::cout << " [metadata corruption: prob " << corruption.prob
              << ", severity " << corruption.severity << "]";
  }
  std::cout << "\n";
  return 0;
}

/// The count parser for --sweep-jobs: a positive integer, or the literal
/// `auto` = std::thread::hardware_concurrency() (0 when unknown -> 1),
/// clamped to [1, max_value].  Garbage, zero, negatives, and absurd values
/// get a positioned diagnostic (exit 2) instead of a silent default or an
/// unchecked cast.
std::size_t parse_count_or_auto(const std::string& flag,
                                const std::string& value,
                                std::size_t max_value) {
  if (value == "auto") {
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw < 1) hw = 1;
    return std::min(hw, max_value);
  }
  std::int64_t parsed = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (value.empty() || ec != std::errc{} || ptr != end || parsed < 1 ||
      parsed > static_cast<std::int64_t>(max_value)) {
    throw ParseError("--" + flag, 1, 1,
                     "expected an integer in [1, " + std::to_string(max_value) +
                         "] or 'auto', got '" + value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

struct UnitScale {
  std::string_view suffix;
  double scale;
};

/// A positive, finite flag value with an optional unit suffix: `units` is
/// tried in order, so list "ms" before "s".  Returns the number and the
/// matched unit's scale (0 for a bare number).  Throws ParseError (exit 2)
/// on a malformed value.
std::pair<double, double> parse_with_unit(
    const std::string& flag, const std::string& value,
    std::initializer_list<UnitScale> units) {
  std::string number = value;
  double scale = 0.0;
  std::string expected;
  for (const UnitScale& unit : units) {
    if (!expected.empty()) expected += '/';
    expected += unit.suffix;
    if (scale == 0.0 && value.size() > unit.suffix.size() &&
        std::string_view(value).ends_with(unit.suffix)) {
      number = value.substr(0, value.size() - unit.suffix.size());
      scale = unit.scale;
    }
  }
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(number, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  // `!(parsed > 0.0)` rejects zero, negatives, and NaN; std::isfinite
  // rejects "inf" (stod parses it, and a uint64 cast would be UB).
  if (consumed != number.size() || !(parsed > 0.0) || !std::isfinite(parsed)) {
    throw ParseError(flag, 1, 1,
                     "expected a positive number with optional " + expected +
                         " suffix, got '" + value + "'");
  }
  return {parsed, scale};
}

/// Nanoseconds as a uint64 counter; throws ParseError (exit 2) naming the
/// `what` of `flag` when the value exceeds the uint64 range (the cast would
/// be UB).
std::uint64_t checked_ns(const std::string& flag, const char* what,
                         const std::string& value, double ns) {
  if (ns >= 1.8e19) {
    throw ParseError(flag, 1, 1,
                     std::string(what) +
                         " overflows a 64-bit nanosecond counter: '" + value +
                         "'");
  }
  return static_cast<std::uint64_t>(ns);
}

/// Parses a `--telemetry-interval` value into TelemetryOptions intervals:
/// a plain number is simulated time units, an `ms`/`s` suffix is wall
/// clock.  Throws ParseError (exit 2) on a malformed value.
void apply_telemetry_interval(const std::string& value,
                              TelemetryOptions& options) {
  const std::string flag = "--telemetry-interval";
  const auto [interval, scale] =
      parse_with_unit(flag, value, {{"ms", 1e6}, {"s", 1e9}});
  if (scale == 0.0) {
    options.sim_interval = interval;
  } else {
    options.wall_interval_ns =
        checked_ns(flag, "interval", value, interval * scale);
  }
}

/// Parses a `--decide-budget` value into nanoseconds: a plain number is ns,
/// and ns/us/ms/s suffixes scale accordingly.  Throws ParseError (exit 2)
/// on a malformed value.
std::uint64_t parse_decide_budget(const std::string& value) {
  const std::string flag = "--decide-budget";
  const auto [budget, scale] = parse_with_unit(
      flag, value, {{"ns", 1.0}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}});
  return checked_ns(flag, "budget", value,
                    budget * (scale == 0.0 ? 1.0 : scale));
}

/// The default of `run --scheduler`, `sweep --schedulers` and a --cells
/// line without "scheduler".
constexpr const char* kDefaultScheduler = "s";

/// Range checks shared by the machine flags and --cells lines: a
/// positioned ParseError (exit 2) at `source`:`line` unless `m` is an
/// integer in [1, 2^32-1] or `speed` is finite and > 0.
ProcCount checked_procs(double m, const std::string& source,
                        std::size_t line) {
  constexpr double kMaxProcs = std::numeric_limits<ProcCount>::max();
  if (!(m >= 1.0 && m <= kMaxProcs && m == std::floor(m))) {
    throw ParseError(source, line, 1,
                     "m must be an integer in [1, 4294967295]");
  }
  return static_cast<ProcCount>(m);
}

double checked_speed(double speed, const std::string& source,
                     std::size_t line) {
  if (!(speed > 0.0 && std::isfinite(speed))) {
    throw ParseError(source, line, 1, "speed must be finite and > 0");
  }
  return speed;
}

/// The machine flags every simulating subcommand reads.
struct MachineFlags {
  ProcCount m = 8;
  double speed = 1.0;
  double eps = 0.5;
  SelectorKind selector = SelectorKind::kFifo;
};

/// The machine flags beyond --m that a subcommand takes.
enum MachineFlag : unsigned { kEpsFlag = 1, kSpeedFlag = 2, kSelectorFlag = 4 };
constexpr unsigned kAllMachineFlags = kEpsFlag | kSpeedFlag | kSelectorFlag;

/// Reads --m and the `takes` subset of --eps --speed --selector, so no
/// subcommand accepts a flag it ignores.  A bad --m or --speed is a
/// positioned parse error (exit 2); an unknown selector is a usage error
/// (exit 1).
MachineFlags read_machine_flags(ArgParser& args, unsigned takes) {
  MachineFlags flags;
  flags.m = checked_procs(static_cast<double>(args.get_int("m", flags.m)),
                          "--m", 1);
  if ((takes & kEpsFlag) != 0) flags.eps = args.get_double("eps", flags.eps);
  if ((takes & kSpeedFlag) != 0) {
    flags.speed =
        checked_speed(args.get_double("speed", flags.speed), "--speed", 1);
  }
  if ((takes & kSelectorFlag) != 0) {
    flags.selector = parse_selector(args.get_string("selector", "fifo"));
  }
  return flags;
}

/// The run flags `run` and `trace export|attribution` share.
struct RunFlags : MachineFlags {
  std::string scheduler;
  EngineKind engine = EngineKind::kEvent;
  std::string fault_spec;
  std::optional<FaultInjector> injector;

  /// The engine options the flags fix: machine size, speed, faults.
  SimOptions sim_options() const {
    SimOptions options;
    options.num_procs = m;
    options.speed = speed;
    options.faults = injector ? &*injector : nullptr;
    return options;
  }
};

/// Reads --scheduler --engine --faults and the machine flags, then
/// finishes `args`, so callers read their own flags first.  An unknown
/// engine or selector, or a scheduler the engine cannot run, is a usage
/// error (exit 1); a bad fault spec, --m or --speed is a positioned parse
/// error (exit 2), matching workload parse failures.
RunFlags read_run_flags(ArgParser& args) {
  RunFlags flags;
  static_cast<MachineFlags&>(flags) =
      read_machine_flags(args, kAllMachineFlags);
  flags.scheduler = args.get_string("scheduler", kDefaultScheduler);
  const std::string engine = args.get_string("engine", "event");
  flags.fault_spec = args.get_string("faults", "");
  args.finish();

  const std::optional<EngineKind> kind = parse_engine_kind(engine);
  if (!kind) throw std::invalid_argument("unknown engine '" + engine + "'");
  flags.engine = *kind;
  const std::string mismatch =
      scheduler_engine_error(flags.scheduler, flags.engine);
  if (!mismatch.empty()) throw std::invalid_argument(mismatch);
  if (!flags.fault_spec.empty()) {
    std::string error;
    flags.injector = make_fault_injector(flags.fault_spec, flags.m, error);
    if (!flags.injector) throw ParseError("--faults", 1, 1, error);
  }
  return flags;
}

int cmd_run(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  // The workload is mapped once: parsed here and unmapped before the
  // simulation starts.  Under --checkpoint/--resume a second thread hashes
  // the same bytes for the config fingerprint while the parse runs.
  FileBytes workload_bytes(args.positional()[1]);
  std::future<std::uint64_t> workload_digest;
  if (args.has("checkpoint") || args.has("resume")) {
    workload_digest =
        std::async(std::launch::async, [bytes = workload_bytes.view()] {
          return fnv1a64(bytes);
        });
  }
  const JobSet jobs =
      parse_instance(workload_bytes.view(), args.positional()[1]);
  const bool show_gantt = args.get_flag("gantt");
  const bool show_profile = args.get_flag("profile");
  const bool show_audit = args.get_flag("audit");
  const std::string svg_path = args.get_string("svg", "");
  const std::string obs_path = args.get_string("obs", "");
  const std::string events_path = args.get_string("events", "");
  const std::string telemetry_path = args.get_string("telemetry", "");
  // Presence is checked separately from the value: `--telemetry-interval=`
  // (empty value) must be rejected by apply_telemetry_interval (exit 2),
  // not silently fall back to the default interval.
  const bool telemetry_interval_given = args.has("telemetry-interval");
  const std::string telemetry_interval =
      args.get_string("telemetry-interval", "");
  const std::string checkpoint_path = args.get_string("checkpoint", "");
  const std::int64_t checkpoint_interval =
      args.get_int("checkpoint-interval", 1000);
  const std::string resume_path = args.get_string("resume", "");
  const std::int64_t die_at_decision = args.get_int("die-at-decision", 0);
  const std::string decide_budget = args.get_string("decide-budget", "");
  const std::int64_t overload_shed = args.get_int("overload-shed", 1);
  const RunFlags flags = read_run_flags(args);
  const ProcCount m = flags.m;

  if (telemetry_interval_given && telemetry_path.empty()) {
    std::cerr << "run: --telemetry-interval requires --telemetry\n";
    return 1;
  }
  if (checkpoint_interval < 1) {
    std::cerr << "run: --checkpoint-interval must be >= 1\n";
    return 1;
  }
  if (die_at_decision < 0) {
    std::cerr << "run: --die-at-decision must be >= 0\n";
    return 1;
  }
  if (overload_shed < 1) {
    std::cerr << "run: --overload-shed must be >= 1\n";
    return 1;
  }
  if (show_audit && flags.scheduler != "s" && flags.scheduler != "s-wc" &&
      flags.scheduler != "s-noadm") {
    std::cerr << "run: --audit is only available for the paper-S family "
                 "(s, s-wc, s-noadm)\n";
    return 1;
  }
  SimOptions options = flags.sim_options();
  options.decide_budget_ns =
      decide_budget.empty() ? 0 : parse_decide_budget(decide_budget);
  options.die_at_decision = static_cast<std::size_t>(die_at_decision);
  options.overload_shed_max = static_cast<std::size_t>(overload_shed);

  // Observability wiring: registries live here, the engines and schedulers
  // only see the (nullable) sink.  No flags => null sink => seed behavior.
  // --audit alone keeps the decision log in memory only: it is not a
  // requested output, so neither the crash dump nor checkpoints see it.
  MetricRegistry registry;
  EventLog event_log;
  ObsSink sink;
  if (!obs_path.empty()) sink.metrics = &registry;
  EventLog* const requested_events =
      !obs_path.empty() || !events_path.empty() ? &event_log : nullptr;
  if (requested_events != nullptr || show_audit) sink.events = &event_log;

  // Runtime telemetry: a JSONL snapshot stream next to (and independent of)
  // the obs registries.  --obs alone attaches a histograms-only recorder
  // for the report's wall time and decide histogram.  Neither flag => null
  // recorder => seed behavior.
  std::ofstream telemetry_out;
  std::optional<TelemetryRecorder> telemetry;
  if (!telemetry_path.empty()) {
    telemetry_out.open(telemetry_path);
    if (!telemetry_out) {
      std::cerr << "cannot open " << telemetry_path << "\n";
      return 1;
    }
    TelemetryOptions telemetry_options;
    telemetry_options.out = &telemetry_out;
    if (!telemetry_interval_given) {
      telemetry_options.wall_interval_ns = 100'000'000;  // default: 100ms
    } else {
      apply_telemetry_interval(telemetry_interval, telemetry_options);
    }
    telemetry.emplace(telemetry_options);
  } else if (!obs_path.empty()) {
    telemetry.emplace();
  }

  // Stream the event log: each event's JSONL line is written as it is
  // emitted (byte-identical to the old write-at-end path), so a killed run
  // leaves the log prefix on disk for crash recovery.
  std::ofstream events_out;
  if (!events_path.empty()) {
    events_out.open(events_path);
    if (!events_out) {
      std::cerr << "cannot open " << events_path << "\n";
      return 1;
    }
    event_log.stream_to(&events_out);
  }

  // With an event log wired, make DS_CHECK failures flush it (plus a final
  // engine-abort event) instead of losing the decision history.
  std::optional<CrashDumpGuard> crash_guard;
  if (requested_events != nullptr) {
    crash_guard.emplace(&event_log, events_path.empty()
                                        ? obs_path + ".crash-events.jsonl"
                                        : events_path);
  }

  // Checkpoint / resume wiring.  The config fingerprint covers everything
  // that shapes the deterministic decision sequence: workload bytes,
  // scheduler, eps, m, speed, engine, selector, fault spec.  A --resume
  // whose checkpoint disagrees fails with a positioned diagnostic (exit 2).
  std::optional<CheckpointFile> resume_file;
  std::optional<CheckpointSink> checkpoint_sink;
  if (!checkpoint_path.empty() || !resume_path.empty()) {
    CheckpointMeta meta;
    meta.config_hash = run_config_fingerprint(
        workload_digest.get(), flags.scheduler, flags.eps, m,
        flags.speed, engine_kind_name(flags.engine),
        selector_kind_name(flags.selector), flags.fault_spec);
    meta.workload = args.positional()[1];
    meta.engine = engine_kind_name(flags.engine);
    meta.scheduler = flags.scheduler;
    meta.fault_spec = flags.fault_spec;
    meta.m = m;
    meta.speed = flags.speed;
    meta.jobs = jobs.size();
    if (!resume_path.empty()) {
      resume_file = read_checkpoint_file(resume_path);
      verify_resume_compatible(*resume_file, meta);
    }
    if (!checkpoint_path.empty()) {
      checkpoint_sink.emplace(checkpoint_path,
                              static_cast<std::uint64_t>(checkpoint_interval),
                              std::move(meta), requested_events);
    }
  }

  // An empty --checkpoint= still started the digest thread, which reads
  // the bytes until it finishes.
  if (workload_digest.valid()) workload_digest.wait();
  workload_bytes.release();

  auto scheduler = make_named_scheduler(flags.scheduler, flags.eps);
  auto sel = make_selector(flags.selector, 1);
  options.record_trace =
      show_gantt || show_profile || !svg_path.empty() || !obs_path.empty();
  options.obs = sink.enabled() ? &sink : nullptr;
  options.telemetry = telemetry ? &*telemetry : nullptr;
  options.checkpoint = checkpoint_sink ? &*checkpoint_sink : nullptr;
  options.resume = resume_file ? &*resume_file : nullptr;
  const SimResult result =
      run_simulation(flags.engine, jobs, *scheduler, *sel, options);

  std::cout << "scheduler:        " << scheduler->name() << "\n"
            << "jobs:             " << jobs.size() << "\n"
            << "completed:        " << result.jobs_completed << "\n"
            << "profit:           " << result.total_profit << " / "
            << jobs.total_peak_profit() << " ("
            << 100.0 * profit_fraction(result, jobs) << "%)\n"
            << "busy proc-time:   " << result.busy_proc_time << "\n"
            << "decisions:        " << result.decisions << "\n"
            << "node preemptions: " << result.node_preemptions << "\n"
            << "job preemptions:  " << result.job_preemptions << "\n";
  if (flags.injector) {
    std::cout << "fault transitions: " << flags.injector->transitions().size()
              << "\n"
              << "lost work:        " << result.lost_work << "\n";
  }
  if (resume_file) {
    std::cout << "resumed from:     " << resume_path << " (decision "
              << resume_file->meta.decisions << ", t="
              << resume_file->meta.sim_time << ")\n";
  }
  if (options.decide_budget_ns > 0) {
    std::cout << "overload:         " << result.overload_breaches
              << " breaches, " << result.overload_sheds << " sheds, "
              << result.overload_recoveries << " recoveries\n";
  }
  const ScheduleMetrics schedule_metrics =
      compute_metrics(result, jobs, m);
  if (schedule_metrics.flow_time.count() > 0) {
    std::cout << "flow time:        mean "
              << schedule_metrics.flow_time.mean() << ", p50 "
              << schedule_metrics.flow_time.median() << ", p99 "
              << schedule_metrics.flow_time.quantile(0.99) << "\n"
              << "stretch:          mean "
              << schedule_metrics.stretch.mean() << ", max "
              << schedule_metrics.stretch.quantile(1.0) << "\n";
  }
  std::cout << "deadline misses:  " << schedule_metrics.missed << "\n";
  if (show_gantt) {
    std::cout << to_ascii_gantt(result.trace, m);
  }
  if (show_profile && result.end_time > 0.0) {
    // Utilization sparkline over 60 windows.
    const std::vector<double> profile =
        utilization_profile(result.trace, m, result.end_time, 60);
    std::cout << "utilization:      [" << sparkline(profile) << "] over [0, "
              << result.end_time << ")\n";
  }
  if (!svg_path.empty()) {
    std::ofstream svg(svg_path);
    if (!svg) {
      std::cerr << "cannot open " << svg_path << "\n";
      return 1;
    }
    write_svg_gantt(svg, result.trace, m);
    std::cout << "wrote Gantt SVG to " << svg_path << "\n";
  }
  if (show_audit) {
    // S's queue transitions, rendered from the decision log.
    std::cout << "\nadmission audit:\n";
    for (const DecisionEvent& event : event_log.events()) {
      if (const char* name = admission_transition_name(event)) {
        std::cout << "  t=" << event.time << "  J" << event.job << "  "
                  << name << "\n";
      }
    }
  }
  if (!events_path.empty()) {
    // Events were streamed as they were emitted; just detach and flush.
    event_log.stream_to(nullptr);
    events_out.flush();
    if (!events_out) {
      std::cerr << "cannot write " << events_path << "\n";
      return 1;
    }
    std::cout << "wrote " << event_log.size() << " events to " << events_path
              << "\n";
  }
  if (checkpoint_sink && checkpoint_sink->snapshots() > 0) {
    std::cout << "wrote " << checkpoint_sink->snapshots()
              << " checkpoint snapshots to " << checkpoint_path << "\n";
  }
  if (telemetry_out.is_open()) {
    telemetry_out.flush();
    std::cout << "wrote " << telemetry->snapshots_emitted()
              << " telemetry snapshots to " << telemetry_path << "\n";
  }
  if (!obs_path.empty()) {
    RunReportInputs inputs;
    inputs.scheduler = scheduler->name();
    inputs.engine = engine_kind_name(flags.engine);
    inputs.workload = args.positional()[1];
    inputs.m = m;
    inputs.speed = flags.speed;
    inputs.jobs = &jobs;
    inputs.result = &result;
    inputs.metrics = &schedule_metrics;
    inputs.registry = &registry;
    // The in-memory log is kept while it streams, so the report counts the
    // events either way and names the file when they were written to one.
    inputs.events = &event_log;
    inputs.events_path = events_path;
    if (telemetry) inputs.telemetry = &*telemetry;
    const JsonValue report = build_run_report(inputs);
    std::ofstream out(obs_path);
    if (!out) {
      std::cerr << "cannot open " << obs_path << "\n";
      return 1;
    }
    report.write_pretty(out);
    out << "\n";
    std::cout << "wrote run report to " << obs_path << "\n";
  }
  if (result.failed()) {
    std::cerr << "run: simulation failed ("
              << sim_failure_kind_name(result.failure)
              << "): " << result.failure_message << "\n";
    return 3;
  }
  return 0;
}

/// `dagsched checkpoint info CKPT` -- print the parsed header of a
/// checkpoint file.  A corrupt/truncated/mismatched file fails with the
/// reader's positioned diagnostic (exit 2), never a crash.
int cmd_checkpoint(ArgParser& args) {
  if (args.positional().size() != 3 || args.positional()[1] != "info") {
    return usage();
  }
  const std::string path = args.positional()[2];
  args.finish();
  const CheckpointFile file = read_checkpoint_file(path);
  const CheckpointMeta& meta = file.meta;
  std::ostringstream hash;
  hash << std::hex << std::setfill('0') << std::setw(16) << meta.config_hash;
  std::cout << "schema:          " << meta.schema << "\n"
            << "workload:        " << meta.workload << "\n"
            << "engine:          " << meta.engine << "\n"
            << "scheduler:       " << meta.scheduler << "\n"
            << "faults:          "
            << (meta.fault_spec.empty() ? "(none)" : meta.fault_spec) << "\n"
            << "m:               " << meta.m << "\n"
            << "speed:           " << meta.speed << "\n"
            << "jobs:            " << meta.jobs << "\n"
            << "sim_time:        " << meta.sim_time << "\n"
            << "slot:            " << meta.slot << "\n"
            << "decisions:       " << meta.decisions << "\n"
            << "events_emitted:  " << meta.events_emitted << "\n"
            << "config_hash:     " << hash.str() << "\n"
            << "sections:       ";
  for (const CheckpointSection& section : file.sections) {
    std::cout << ' ' << section.name << '(' << section.payload.size() << "B)";
  }
  std::cout << "\n";
  return 0;
}

int cmd_report(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  const std::string path = args.positional()[1];
  args.finish();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();
  const JsonParseResult parsed = json_parse(text);
  // A sweep report is JSONL (several documents), so its schema marker is
  // on the first line.  A file that starts with a sweep header is read as
  // one, and a malformed line in it is a positioned diagnostic.
  const JsonValue first_line =
      parsed.ok ? JsonValue()
                : json_parse(std::string_view(text).substr(0, text.find('\n')))
                      .value;
  const std::string schema_name =
      string_at(parsed.ok ? parsed.value : first_line, "schema");
  if (schema_name.rfind("dagsched.sweep/", 0) == 0) {
    std::istringstream stream(text);
    JsonlError sweep_error;
    const auto doc = parse_sweep_report(stream, &sweep_error);
    if (!doc) throw sweep_error.at(path);
    std::cout << format_sweep_report(*doc);
    return 0;
  }
  if (!parsed.ok) {
    std::cerr << "report: " << path << " is not valid JSON: " << parsed.error
              << "\n";
    return 1;
  }
  // Dispatch on the schema marker.  Unknown *sections* inside a known
  // report still render best-effort; unknown schemas get a clear error.
  if (schema_name.rfind("dagsched.", 0) != 0) {
    std::cerr << "report: " << path << " has no dagsched schema marker\n";
    return 1;
  }
  if (schema_name.rfind("dagsched.run_report/", 0) == 0) {
    std::cout << format_run_report(parsed.value);
    return 0;
  }
  if (schema_name.rfind("dagsched.bench_report/", 0) == 0) {
    std::cout << format_bench_report(parsed.value);
    return 0;
  }
  std::cerr << "report: unknown schema '" << schema_name
            << "' (expected dagsched.run_report/*, dagsched.bench_report/*, "
               "or dagsched.sweep/*)\n";
  return 1;
}

/// `dagsched trace export|attribution|diff`.
///
/// export/attribution re-run the workload with tracing and an event log
/// enabled (accepting the same run flags) and emit the causal-trace
/// artifacts; diff aligns two event-log JSONL files.  Exit codes follow the
/// tool convention (0/1/2/3) plus 4 = the two logs diverge.
int cmd_trace(ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  const std::string mode = args.positional()[1];

  if (mode == "diff") {
    if (args.positional().size() != 4) return usage();
    const std::string lhs_path = args.positional()[2];
    const std::string rhs_path = args.positional()[3];
    const bool decisions_only = args.get_flag("decisions");
    args.finish();

    std::vector<DecisionEvent> logs[2];
    const std::string* paths[2] = {&lhs_path, &rhs_path};
    for (int side = 0; side < 2; ++side) {
      std::ifstream in(*paths[side]);
      if (!in) {
        std::cerr << "cannot open " << *paths[side] << "\n";
        return 1;
      }
      JsonlError error;
      auto parsed = EventLog::parse_jsonl(in, &error);
      if (!parsed) throw error.at(*paths[side]);
      logs[side] = std::move(*parsed);
    }
    EventLogDiffOptions options;
    options.decisions_only = decisions_only;
    const EventLogDiff diff = diff_event_logs(logs[0], logs[1], options);
    std::cout << format_event_log_diff(diff, lhs_path, rhs_path);
    return diff.diverged() ? 4 : 0;
  }

  if (mode != "export" && mode != "attribution") {
    std::cerr << "trace: unknown mode '" << mode
              << "' (expected export, attribution, or diff)\n";
    return usage();
  }
  if (args.positional().size() != 3) return usage();
  const std::string workload_path = args.positional()[2];
  const JobSet jobs = load_instance(workload_path);
  const std::string out_path = args.get_string("out", "");
  const bool as_json = args.get_flag("json");
  const RunFlags flags = read_run_flags(args);

  // Both modes need the execution trace and the decision log; the export
  // also embeds a histograms-only telemetry summary (run wall time and
  // decide histogram).
  EventLog event_log;
  ObsSink sink;
  sink.events = &event_log;
  TelemetryRecorder telemetry;

  auto scheduler = make_named_scheduler(flags.scheduler, flags.eps);
  auto sel = make_selector(flags.selector, 1);
  SimOptions options = flags.sim_options();
  options.record_trace = true;
  options.obs = &sink;
  options.telemetry = &telemetry;
  const SimResult result =
      run_simulation(flags.engine, jobs, *scheduler, *sel, options);

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    out = &out_file;
  }

  if (mode == "export") {
    TraceExportInputs inputs;
    inputs.jobs = &jobs;
    inputs.result = &result;
    inputs.events = &event_log;
    inputs.telemetry = &telemetry;
    inputs.m = flags.m;
    inputs.label = scheduler->name() + " on " + workload_path + " (" +
                   engine_kind_name(flags.engine) + " engine, m=" +
                   std::to_string(flags.m) + ")";
    const JsonValue trace = export_chrome_trace(inputs);
    trace.write_pretty(*out);
    *out << "\n";
    if (!out_path.empty()) {
      std::cout << "wrote Chrome trace to " << out_path
                << " (load in Perfetto or chrome://tracing)\n";
    }
  } else {
    const AttributionResult attribution =
        attribute_latency(jobs, result, &event_log);
    if (as_json) {
      attribution_to_json(attribution).write_pretty(*out);
      *out << "\n";
    } else {
      *out << format_attribution(attribution);
    }
    if (!out_path.empty()) {
      std::cout << "wrote latency attribution to " << out_path << "\n";
    }
  }
  if (result.failed()) {
    std::cerr << "trace: simulation failed ("
              << sim_failure_kind_name(result.failure)
              << "): " << result.failure_message << "\n";
    return 3;
  }
  return 0;
}

int cmd_inspect(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  const JobSet jobs = load_instance(args.positional()[1]);
  const std::int64_t dot_job = args.get_int("dot", -1);
  const ProcCount m = read_machine_flags(args, 0).m;
  args.finish();

  if (dot_job < 0) {
    print_profile(std::cout, analyze_instance(jobs, m));
    std::cout << "\n";
  }
  if (dot_job >= 0) {
    if (static_cast<std::size_t>(dot_job) >= jobs.size()) {
      std::cerr << "inspect: no job " << dot_job << "\n";
      return 1;
    }
    write_dot(std::cout, jobs[static_cast<std::size_t>(dot_job)].dag(),
              "job" + std::to_string(dot_job));
    return 0;
  }

  TextTable table({"job", "release", "W", "L", "nodes", "profit",
                   "plateau/deadline", "shape"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    table.add_row(
        {TextTable::num(static_cast<long long>(i)),
         TextTable::num(job.release(), 5), TextTable::num(job.work(), 5),
         TextTable::num(job.span(), 5),
         TextTable::num(static_cast<long long>(job.dag().num_nodes())),
         TextTable::num(job.peak_profit(), 5),
         TextTable::num(job.profit().plateau_end(), 5),
         job.has_deadline() ? "step" : "decaying"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_compare(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  const JobSet jobs = load_instance(args.positional()[1]);
  const MachineFlags machine = read_machine_flags(args, kEpsFlag);
  args.finish();

  TextTable table({"scheduler", "completed", "profit", "fraction",
                   "node_preempt", "busy"});
  for (const std::string& name : named_scheduler_list()) {
    auto scheduler = make_named_scheduler(name, machine.eps);
    auto sel = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = machine.m;
    const SimResult result = run_simulation(
        name == "profit" ? EngineKind::kSlot : EngineKind::kEvent, jobs,
        *scheduler, *sel, options);
    table.add_row(
        {name,
         TextTable::num(static_cast<long long>(result.jobs_completed)) +
             "/" + TextTable::num(static_cast<long long>(jobs.size())),
         TextTable::num(result.total_profit, 5),
         TextTable::num(profit_fraction(result, jobs), 3),
         TextTable::num(static_cast<long long>(result.node_preemptions)),
         TextTable::num(result.busy_proc_time, 5)});
  }
  table.print(std::cout);
  std::cout << "(profit ran on the slot engine; everything else on the "
               "event engine)\n";
  return 0;
}

int cmd_opt(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  const JobSet jobs = load_instance(args.positional()[1]);
  const ProcCount m = read_machine_flags(args, 0).m;
  args.finish();

  const OptBracket bracket = estimate_opt(jobs, m);
  std::cout << "clairvoyant OPT bracket on m=" << m << ":\n"
            << "  lower (witnessed by " << bracket.lower_scheduler
            << "): " << bracket.lower << "\n"
            << "  upper (" << (bracket.lp_used ? "interval-capacity LP" : "trivial")
            << "): " << bracket.upper << "\n";
  if (const auto sequential = to_sequential(jobs)) {
    const ExactOptResult exact = exact_opt_sequential(*sequential, m);
    std::cout << "  exact (all jobs sequential, "
              << (exact.proven_optimal ? "proven" : "node-limit hit")
              << "): " << exact.value << "\n";
  }
  return 0;
}

// `dagsched top TELEMETRY.jsonl`: render a telemetry snapshot stream as a
// per-snapshot table plus a final-state summary -- the offline equivalent
// of watching the run live.
int cmd_top(ArgParser& args) {
  if (args.positional().size() != 2) return usage();
  const std::string path = args.positional()[1];
  args.finish();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  JsonlError error;
  const auto snapshots = parse_telemetry_jsonl(in, &error);
  if (!snapshots) throw error.at(path);
  if (snapshots->empty()) {
    std::cout << "no telemetry snapshots in " << path << "\n";
    return 0;
  }

  auto whole = [](double value) {
    return static_cast<std::uint64_t>(std::max(0.0, value));
  };

  std::cout << "telemetry: " << path << " (" << snapshots->size()
            << " snapshots)\n"
            << "  seq    sim_time    wall_ms   in_flight   queue"
               "    events/s   decide_p99_ns   bytes/job\n";
  std::cout << std::fixed;
  for (const JsonValue& snap : *snapshots) {
    std::cout << "  " << std::setw(3) << whole(num_at(snap, "seq")) << "  "
              << std::setw(10) << std::setprecision(2)
              << num_at(snap, "sim_time") << "  " << std::setw(9)
              << std::setprecision(1) << num_at(snap, "wall_ms") << "  "
              << std::setw(9)
              << whole(nested_num(snap, "gauges", "jobs_in_flight")) << "  "
              << std::setw(6)
              << whole(nested_num(snap, "gauges", "queue_depth")) << "  "
              << std::setw(10)
              << whole(nested_num(snap, "rates", "events_per_sec")) << "  "
              << std::setw(14) << whole(nested_num(snap, "decide_ns", "p99"))
              << "  " << std::setw(9) << std::setprecision(1)
              << nested_num(snap, "gauges", "bytes_per_job") << "\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);

  const JsonValue& last = snapshots->back();
  std::cout << "\nfinal state:\n"
            << "  decisions:   "
            << whole(nested_num(last, "counters", "decisions")) << "\n"
            << "  arrivals:    "
            << whole(nested_num(last, "counters", "arrivals")) << "\n"
            << "  completions: "
            << whole(nested_num(last, "counters", "completions")) << "\n"
            << "  expiries:    "
            << whole(nested_num(last, "counters", "expiries")) << "\n";
  for (const char* histogram : {"decide_ns", "transition_ns", "admission_ns"}) {
    if (nested_num(last, histogram, "count") == 0.0) continue;
    std::cout << "  " << std::left << std::setw(14) << histogram << std::right
              << " count " << whole(nested_num(last, histogram, "count"))
              << "  p50 " << whole(nested_num(last, histogram, "p50"))
              << "  p90 " << whole(nested_num(last, histogram, "p90"))
              << "  p99 " << whole(nested_num(last, histogram, "p99"))
              << "  p999 " << whole(nested_num(last, histogram, "p999"))
              << "  max " << whole(nested_num(last, histogram, "max")) << "\n";
  }
  std::cout << "  tracked bytes: "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "tracked_bytes"))
            << " (kernel "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "kernel_bytes"))
            << ", unfolding "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "unfolding_bytes"))
            << ", scheduler "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "scheduler_bytes"))
            << ")\n"
            << "  input bytes:   "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "input_bytes"))
            << "\n"
            << "  rss bytes:     "
            << static_cast<std::uint64_t>(
                   nested_num(last, "gauges", "rss_bytes"))
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// dagsched sweep: parallel sweep executor + cross-run regression diff
// ---------------------------------------------------------------------------

/// "out/thm2.wl" -> "thm2": the workload tag used in cell ids.
std::string workload_tag(const std::string& path) {
  std::string base = path;
  const auto slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

std::vector<std::string> split_list(const std::string& value, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses the sweep --faults axis, `LABEL=SPEC[;LABEL=SPEC...]`: each entry
/// is one fault mode of the sweep grid; an empty spec (or a bare label)
/// means no injection for that row.  Specs are validated eagerly so a typo
/// fails the whole sweep up front (exit 2), not one cell at a time.
std::vector<std::pair<std::string, std::string>> parse_fault_axis(
    const std::string& value) {
  std::vector<std::pair<std::string, std::string>> modes;
  for (const std::string& entry : split_list(value, ';')) {
    const auto eq = entry.find('=');
    std::string label = eq == std::string::npos ? entry : entry.substr(0, eq);
    std::string spec = eq == std::string::npos ? "" : entry.substr(eq + 1);
    if (label.empty()) {
      throw ParseError("--faults", 1, 1,
                       "empty fault label in '" + value + "'");
    }
    if (!spec.empty()) {
      std::string error;
      if (!parse_fault_spec(spec, &error)) {
        throw ParseError("--faults", 1, 1, label + ": " + error);
      }
    }
    modes.emplace_back(std::move(label), std::move(spec));
  }
  if (modes.empty()) modes.emplace_back("none", "");
  return modes;
}

/// Loads `path` into the sweep's shared workload pool exactly once; cells
/// borrow const pointers (simulations only read the JobSet).
const JobSet* pooled_workload(const std::string& path,
                              std::map<std::string, JobSet>& pool) {
  auto it = pool.find(path);
  if (it == pool.end()) it = pool.emplace(path, load_instance(path)).first;
  return &it->second;
}

/// Parses a --cells file: one JSON object per line with keys workload
/// (required), id, scheduler, engine, m, speed, eps, selector,
/// selector_seed, fault (label), faults (spec).  Missing keys fall back to
/// the CLI-level defaults.  Malformed lines, and an m or speed that the
/// machine flags would reject, get "FILE:LINE"-positioned diagnostics
/// (exit 2).
std::vector<SweepCellSpec> parse_cells_file(
    const std::string& path, const SweepCellSpec& defaults,
    std::map<std::string, JobSet>& pool) {
  std::ifstream in(path);
  if (!in) throw ParseError(path, 1, 1, "cannot open cells file");
  std::vector<SweepCellSpec> cells;
  std::set<std::string> ids;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const JsonParseResult parsed = json_parse(line);
    if (!parsed.ok || !parsed.value.is_object()) {
      throw ParseError(path, lineno, parsed.ok ? 1 : parsed.offset + 1,
                       parsed.ok ? "expected a JSON object" : parsed.error);
    }
    const JsonValue& cell = parsed.value;
    auto str = [&](const char* key, const std::string& fallback) {
      const JsonValue* value = cell.find(key);
      if (value == nullptr) return fallback;
      if (!value->is_string()) {
        throw ParseError(path, lineno, 1,
                         std::string(key) + " must be a string");
      }
      return value->as_string();
    };
    auto number = [&](const char* key, double fallback) {
      const JsonValue* value = cell.find(key);
      if (value == nullptr) return fallback;
      if (!value->is_number()) {
        throw ParseError(path, lineno, 1,
                         std::string(key) + " must be a number");
      }
      return value->as_number();
    };

    SweepCellSpec spec = defaults;
    const std::string workload = str("workload", "");
    if (workload.empty()) {
      throw ParseError(path, lineno, 1, "missing \"workload\"");
    }
    spec.workload_label = str("workload_label", workload_tag(workload));
    spec.scheduler = str("scheduler", defaults.scheduler);
    const std::string engine = str("engine", engine_kind_name(defaults.engine));
    const auto engine_kind = parse_engine_kind(engine);
    if (!engine_kind) {
      throw ParseError(path, lineno, 1, "unknown engine '" + engine + "'");
    }
    spec.engine = *engine_kind;
    spec.m = checked_procs(number("m", defaults.m), path, lineno);
    spec.speed = checked_speed(number("speed", defaults.speed), path, lineno);
    spec.eps = number("eps", defaults.eps);
    if (cell.find("selector") != nullptr) {
      try {
        spec.selector = parse_selector(str("selector", "fifo"));
      } catch (const std::invalid_argument& error) {
        throw ParseError(path, lineno, 1, error.what());
      }
    }
    spec.selector_seed = static_cast<std::uint64_t>(
        number("selector_seed", static_cast<double>(defaults.selector_seed)));
    spec.fault_spec = str("faults", defaults.fault_spec);
    spec.fault_label =
        str("fault", spec.fault_spec.empty() ? "none" : "faults");
    spec.id = str("id", "");
    if (spec.id.empty()) {
      spec.id = spec.scheduler + "_" + engine + "_" + spec.workload_label +
                "_" + spec.fault_label;
    }
    if (!ids.insert(spec.id).second) {
      throw ParseError(path, lineno, 1, "duplicate cell id '" + spec.id + "'");
    }
    spec.jobs = pooled_workload(workload, pool);
    cells.push_back(std::move(spec));
  }
  if (cells.empty()) throw ParseError(path, 1, 1, "no cells in file");
  return cells;
}

int cmd_sweep_run(ArgParser& args) {
  const std::string cells_path = args.get_string("cells", "");
  const std::string schedulers =
      args.get_string("schedulers", kDefaultScheduler);
  const std::string engines = args.get_string("engines", "event");
  const std::string fault_axis = args.get_string("faults", "none");
  const MachineFlags machine = read_machine_flags(args, kAllMachineFlags);
  const bool sweep_jobs_given = args.has("sweep-jobs");
  const std::string sweep_jobs = args.get_string("sweep-jobs", "");
  const std::string out_path = args.get_string("out", "");
  const std::string events_dir = args.get_string("events-dir", "");
  const bool no_telemetry = args.get_flag("no-telemetry");
  const bool quiet = args.get_flag("quiet");
  args.finish();

  // Strict like --telemetry-interval: `--sweep-jobs=`, garbage, zero, and
  // negatives are positioned parse errors, never a silent default.
  const std::size_t threads =
      sweep_jobs_given ? parse_count_or_auto("sweep-jobs", sweep_jobs, 4096)
                       : 0;

  SweepCellSpec defaults;
  defaults.scheduler = kDefaultScheduler;
  defaults.m = machine.m;
  defaults.speed = machine.speed;
  defaults.eps = machine.eps;
  defaults.selector = machine.selector;

  std::map<std::string, JobSet> pool;
  std::vector<SweepCellSpec> cells;
  if (!cells_path.empty()) {
    if (args.positional().size() != 1) return usage();
    cells = parse_cells_file(cells_path, defaults, pool);
  } else {
    if (args.positional().size() < 2) return usage();
    const std::vector<std::string> scheduler_list = split_list(schedulers, ',');
    const std::vector<std::string> engine_list = split_list(engines, ',');
    const auto fault_modes = parse_fault_axis(fault_axis);
    if (scheduler_list.empty() || engine_list.empty()) {
      std::cerr << "sweep: --schedulers and --engines must be non-empty\n";
      return 1;
    }
    std::set<std::string> ids;
    for (std::size_t i = 1; i < args.positional().size(); ++i) {
      const std::string& workload = args.positional()[i];
      const JobSet* jobs = pooled_workload(workload, pool);
      for (const std::string& scheduler : scheduler_list) {
        for (const std::string& engine : engine_list) {
          const auto engine_kind = parse_engine_kind(engine);
          if (!engine_kind) {
            std::cerr << "sweep: unknown engine '" << engine << "'\n";
            return 1;
          }
          for (const auto& [fault_label, fault_spec] : fault_modes) {
            SweepCellSpec spec = defaults;
            spec.workload_label = workload_tag(workload);
            spec.jobs = jobs;
            spec.scheduler = scheduler;
            spec.engine = *engine_kind;
            spec.fault_label = fault_label;
            spec.fault_spec = fault_spec;
            spec.id = scheduler + "_" + engine + "_" + spec.workload_label +
                      "_" + fault_label;
            if (!ids.insert(spec.id).second) {
              std::cerr << "sweep: duplicate cell id '" << spec.id << "'\n";
              return 1;
            }
            cells.push_back(std::move(spec));
          }
        }
      }
    }
  }

  SweepOptions options;
  options.threads = threads;
  options.capture_events = !events_dir.empty();
  options.telemetry = !no_telemetry;
#ifndef _WIN32
  const bool tty = isatty(fileno(stderr)) != 0;
#else
  const bool tty = false;
#endif
  // Live progress: a \r-rewritten status line on a TTY; on a pipe (CI logs)
  // only every ~10% so logs stay readable.
  const std::size_t stride = std::max<std::size_t>(1, cells.size() / 10);
  if (!quiet) {
    options.on_progress = [tty, stride](const SweepProgress& progress) {
      if (!tty && progress.completed % stride != 0 &&
          progress.completed != progress.total) {
        return;
      }
      std::ostringstream line;
      line << "sweep: " << progress.completed << '/' << progress.total
           << " cells";
      if (progress.failed > 0) line << ", " << progress.failed << " failed";
      line << ", " << progress.running << " running, " << std::fixed
           << std::setprecision(1) << progress.cells_per_sec << " cells/s"
           << ", eta " << std::setprecision(1) << progress.eta_sec << "s"
           << ", decide p99 " << progress.decide_p99_ns << "ns";
      if (tty) {
        std::cerr << '\r' << line.str() << "    " << std::flush;
      } else {
        std::cerr << line.str() << '\n';
      }
    };
  }

  const SweepResult sweep = run_sweep(std::move(cells), options);
  if (!quiet && tty) std::cerr << '\n';

  if (!events_dir.empty()) {
    std::filesystem::create_directories(events_dir);
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      if (sweep.results[i].config_failed()) continue;
      const std::string path = events_dir + "/" + sweep.cells[i].id + ".jsonl";
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      out << sweep.results[i].events_jsonl;
    }
    std::cout << "wrote per-cell event logs to " << events_dir << "/\n";
  }

  std::ostringstream report;
  write_sweep_report(report, sweep);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    out << report.str();
    std::cout << "wrote sweep report (" << sweep.cells.size() << " cells) to "
              << out_path << "\n";
  }

  // Render the summary through the same parse path `dagsched report` uses,
  // so what the user sees is what a consumer of the file would parse.
  std::istringstream parse_in(report.str());
  JsonlError parse_error;
  const auto doc = parse_sweep_report(parse_in, &parse_error);
  if (!doc) {
    std::cerr << "sweep: internal error: " << parse_error.at("<stream>").what()
              << "\n";
    return 1;
  }
  std::cout << format_sweep_report(*doc);

  if (sweep.failed_cells > 0) {
    std::cerr << "sweep: " << sweep.failed_cells << " of "
              << sweep.cells.size() << " cells failed\n";
    return 3;
  }
  return 0;
}

/// Sniffs a diff operand: a dagsched.bench_report/* single-document JSON
/// file, or a dagsched.sweep/* JSONL report.  Anything else is a parse
/// error (exit 2).
struct SweepDiffInput {
  bool is_bench = false;
  JsonValue bench;
  SweepReportDoc sweep;
};

SweepDiffInput load_sweep_diff_input(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError(path, 1, 1, "cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  SweepDiffInput input;
  JsonParseResult whole = json_parse(content);
  if (whole.ok && whole.value.is_object()) {
    const JsonValue* schema = whole.value.find("schema");
    if (schema != nullptr && schema->is_string() &&
        schema->as_string().rfind("dagsched.bench_report/", 0) == 0) {
      input.is_bench = true;
      input.bench = std::move(whole.value);
      return input;
    }
  }
  std::istringstream stream(content);
  JsonlError error;
  auto doc = parse_sweep_report(stream, &error);
  if (!doc) throw error.at(path);
  input.sweep = std::move(*doc);
  return input;
}

int cmd_sweep_diff(ArgParser& args) {
  if (args.positional().size() != 4) return usage();
  const std::string baseline_path = args.positional()[2];
  const std::string current_path = args.positional()[3];
  SweepDiffOptions options;
  options.threshold = args.get_double("threshold", options.threshold);
  const bool warn_only = args.get_flag("warn-only");
  args.finish();
  if (!(options.threshold >= 0.0)) {
    std::cerr << "sweep diff: --threshold must be >= 0\n";
    return 1;
  }

  const SweepDiffInput baseline = load_sweep_diff_input(baseline_path);
  const SweepDiffInput current = load_sweep_diff_input(current_path);
  if (baseline.is_bench != current.is_bench) {
    std::cerr << "sweep diff: cannot compare a sweep report with a bench "
                 "report\n";
    return 1;
  }
  const SweepDiff diff =
      baseline.is_bench
          ? diff_bench_reports(baseline.bench, current.bench, options)
          : diff_sweep_reports(baseline.sweep, current.sweep, options);
  std::cout << format_sweep_diff(diff, baseline_path, current_path, options);
  return diff.exit_code(warn_only);
}

int cmd_sweep(ArgParser& args) {
  if (args.positional().size() >= 2 && args.positional()[1] == "diff") {
    return cmd_sweep_diff(args);
  }
  return cmd_sweep_run(args);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string& command = args.positional()[0];
    if (command == "generate") return cmd_generate(args);
    if (command == "run") return cmd_run(args);
    if (command == "checkpoint") return cmd_checkpoint(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "report") return cmd_report(args);
    if (command == "top") return cmd_top(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "opt") return cmd_opt(args);
    return usage();
  } catch (const ParseError& error) {
    std::cerr << "dagsched: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "dagsched: " << error.what() << "\n";
    return 1;
  }
}

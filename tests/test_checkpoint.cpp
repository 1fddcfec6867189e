// Durable checkpoint/restore: wire primitives, the dagsched.checkpoint/1
// container, kill-resume decision parity across every scheduler x engine x
// fault mode, and corruption fuzzing (bit flips, truncation at every
// boundary, version skew) -- a corrupt checkpoint must always surface as a
// structured CheckpointError, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "sim/kernel/kernel.h"
#include "util/wire.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

// ---------------------------------------------------------------------------
// Wire primitives.

TEST(Wire, Crc32CheckVector) {
  // The canonical CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Wire, ScalarsRoundTrip) {
  CheckpointWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.f64(-1.5);
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.boolean(true);
  out.boolean(false);
  out.str("hello");
  out.str("");

  CheckpointReader in(out.data(), "<test>", "t");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.f64(), -1.5);
  EXPECT_TRUE(std::isnan(in.f64()));  // bit-pattern transport, no text trip
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.done());
  in.expect_done();
}

TEST(Wire, TruncationAndStrictnessThrow) {
  CheckpointWriter out;
  out.u32(7);
  {
    CheckpointReader in(out.data(), "<test>", "t");
    in.u32();
    EXPECT_THROW(in.u8(), CheckpointError);  // past the end
  }
  {
    CheckpointReader in(out.data(), "<test>", "t");
    EXPECT_THROW(in.u64(), CheckpointError);  // not enough bytes
  }
  {
    // boolean must be exactly 0 or 1.
    CheckpointReader in("\x02", "<test>", "t");
    EXPECT_THROW(in.boolean(), CheckpointError);
  }
  {
    // A corrupt element count may not promise more than the payload holds.
    CheckpointWriter w;
    w.u64(1u << 30);
    CheckpointReader in(w.data(), "<test>", "t");
    EXPECT_THROW(in.count(8), CheckpointError);
  }
  {
    // Unconsumed trailing bytes are schema drift, not success.
    CheckpointReader in(out.data(), "<test>", "t");
    EXPECT_THROW(in.expect_done(), CheckpointError);
  }
}

TEST(Wire, Fnv1a64Chains) {
  const std::uint64_t once = fnv1a64("ab");
  const std::uint64_t chained = fnv1a64("b", fnv1a64("a"));
  EXPECT_EQ(once, chained);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// ---------------------------------------------------------------------------
// Container format.

CheckpointFile sample_file() {
  CheckpointFile file;
  file.meta.config_hash = 0x1122334455667788ull;
  file.meta.workload = "w.wl";
  file.meta.engine = "event";
  file.meta.scheduler = "s";
  file.meta.fault_spec = "mtbf=10,mttr=2,horizon=50";
  file.meta.m = 4;
  file.meta.speed = 1.5;
  file.meta.jobs = 14;
  file.meta.sim_time = 33.25;
  file.meta.slot = 33;
  file.meta.decisions = 70;
  file.meta.events_emitted = 22;
  CheckpointWriter kernel_out;
  kernel_out.str("s");
  kernel_out.u64(123);
  CheckpointWriter sched_out;
  sched_out.f64(2.5);
  file.sections.push_back({"kernel", kernel_out.take()});
  file.sections.push_back({"scheduler", sched_out.take()});
  return file;
}

TEST(CheckpointFormat, SerializeParseRoundTrip) {
  const CheckpointFile file = sample_file();
  const std::string bytes = serialize_checkpoint(file);
  const CheckpointFile parsed = parse_checkpoint_bytes(bytes, "<mem>");
  EXPECT_EQ(parsed.meta.schema, kCheckpointSchema);
  EXPECT_EQ(parsed.meta.config_hash, file.meta.config_hash);
  EXPECT_EQ(parsed.meta.workload, file.meta.workload);
  EXPECT_EQ(parsed.meta.engine, file.meta.engine);
  EXPECT_EQ(parsed.meta.scheduler, file.meta.scheduler);
  EXPECT_EQ(parsed.meta.fault_spec, file.meta.fault_spec);
  EXPECT_EQ(parsed.meta.m, file.meta.m);
  EXPECT_EQ(parsed.meta.speed, file.meta.speed);
  EXPECT_EQ(parsed.meta.jobs, file.meta.jobs);
  EXPECT_EQ(parsed.meta.sim_time, file.meta.sim_time);
  EXPECT_EQ(parsed.meta.slot, file.meta.slot);
  EXPECT_EQ(parsed.meta.decisions, file.meta.decisions);
  EXPECT_EQ(parsed.meta.events_emitted, file.meta.events_emitted);
  ASSERT_EQ(parsed.sections.size(), 2u);
  EXPECT_EQ(parsed.sections[0].name, "kernel");
  EXPECT_EQ(parsed.sections[0].payload, file.sections[0].payload);
  EXPECT_EQ(parsed.sections[1].name, "scheduler");
  EXPECT_EQ(parsed.sections[1].payload, file.sections[1].payload);

  // Deterministic: same state, same bytes.
  EXPECT_EQ(serialize_checkpoint(file), bytes);
}

TEST(CheckpointFormat, FileRoundTripAndOverwrite) {
  const std::string path = ::testing::TempDir() + "ckpt_roundtrip.bin";
  const CheckpointFile file = sample_file();
  write_checkpoint_file(path, file);
  write_checkpoint_file(path, file);  // atomic rename overwrites cleanly
  const CheckpointFile parsed = read_checkpoint_file(path);
  EXPECT_EQ(parsed.meta.decisions, file.meta.decisions);
  EXPECT_EQ(parsed.source, path);
  ASSERT_NE(parsed.find_section("kernel"), nullptr);
  EXPECT_EQ(parsed.find_section("missing"), nullptr);
}

TEST(CheckpointFormat, VersionSkewIsDiagnosed) {
  CheckpointFile file = sample_file();
  file.meta.schema = "dagsched.checkpoint/2";
  const std::string bytes = serialize_checkpoint(file);
  try {
    parse_checkpoint_bytes(bytes, "<mem>");
    FAIL() << "version skew accepted";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("dagsched.checkpoint/2"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointFormat, ResumeCompatibilityDiagnostics) {
  const CheckpointFile file = sample_file();
  CheckpointMeta current = file.meta;
  EXPECT_NO_THROW(verify_resume_compatible(file, current));

  auto expect_mismatch = [&file](CheckpointMeta meta,
                                 const std::string& needle) {
    try {
      verify_resume_compatible(file, meta);
      FAIL() << "mismatch in '" << needle << "' accepted";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  CheckpointMeta meta = current;
  meta.scheduler = "edf";
  expect_mismatch(meta, "scheduler");
  meta = current;
  meta.engine = "slot";
  expect_mismatch(meta, "engine");
  meta = current;
  meta.m = 8;
  expect_mismatch(meta, "m");
  meta = current;
  meta.speed = 2.0;
  expect_mismatch(meta, "speed");
  meta = current;
  meta.jobs = 99;
  expect_mismatch(meta, "job");
  meta = current;
  meta.fault_spec = "";
  expect_mismatch(meta, "fault");
  meta = current;
  meta.config_hash ^= 1;
  expect_mismatch(meta, "config");
}

TEST(CheckpointFormat, FingerprintValueIsPinned) {
  // Checkpoints written by earlier builds must keep resuming: the hash of
  // the workload bytes and flags is part of the file format.
  EXPECT_EQ(run_config_fingerprint("dagsched-workload 1\n", "s", 0.5, 4, 1.0,
                                   "event", "fifo", ""),
            9621715377253786510u);
}

TEST(CheckpointFormat, FingerprintCoversEveryInput) {
  const std::uint64_t base = run_config_fingerprint(
      "bytes", "s", 0.5, 4, 1.0, "event", "fifo", "mtbf=10");
  EXPECT_EQ(base, run_config_fingerprint("bytes", "s", 0.5, 4, 1.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("byteZ", "s", 0.5, 4, 1.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "edf", 0.5, 4, 1.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.25, 4, 1.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.5, 8, 1.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.5, 4, 2.0, "event",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.5, 4, 1.0, "slot",
                                         "fifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.5, 4, 1.0, "event",
                                         "lifo", "mtbf=10"));
  EXPECT_NE(base, run_config_fingerprint("bytes", "s", 0.5, 4, 1.0, "event",
                                         "fifo", ""));
}

// ---------------------------------------------------------------------------
// Kill-resume decision parity: for every scheduler x engine x fault mode,
// a run resumed from a mid-run snapshot must produce an event-log suffix
// byte-identical to the uninterrupted run, and land on the same result.

constexpr ProcCount kParityM = 4;

JobSet parity_jobs() {
  Rng rng(21);
  WorkloadConfig config = scenario_shootout(1.2, kParityM, 0.3, 1.2);
  config.horizon = 60.0;
  return generate_workload(rng, config);
}

std::optional<FaultInjector> parity_faults(const std::string& spec) {
  std::optional<FaultInjector> injector;
  if (spec.empty()) return injector;
  std::string error;
  const auto config = parse_fault_spec(spec, &error);
  EXPECT_TRUE(config.has_value()) << error;
  injector.emplace(build_fault_plan(*config, kParityM));
  return injector;
}

SimResult parity_run(const JobSet& jobs, const std::string& scheduler_name,
                     EngineKind engine, const std::string& fault_spec,
                     EventLog* log, CheckpointSink* checkpoint,
                     const CheckpointFile* resume) {
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  std::optional<FaultInjector> injector = parity_faults(fault_spec);
  ObsSink sink;
  sink.events = log;
  SimOptions options;
  options.num_procs = kParityM;
  options.obs = log != nullptr ? &sink : nullptr;
  options.faults = injector ? &*injector : nullptr;
  options.checkpoint = checkpoint;
  options.resume = resume;
  return run_simulation(engine, jobs, *scheduler, *selector, options);
}

class KillResumeParity
    : public ::testing::TestWithParam<
          std::tuple<std::string, EngineKind, std::string>> {};

TEST_P(KillResumeParity, ResumedSuffixIsByteIdentical) {
  const auto& [scheduler_name, engine, fault_spec] = GetParam();
  if (scheduler_name == "profit" && engine == EngineKind::kEvent) {
    GTEST_SKIP() << "profit is slot-engine only";
  }
  const JobSet jobs = parity_jobs();

  // Uninterrupted reference run.
  EventLog full_log;
  const SimResult full = parity_run(jobs, scheduler_name, engine, fault_spec,
                                    &full_log, nullptr, nullptr);
  if (full.decisions < 3) GTEST_SKIP() << "too few decisions to bisect";

  // Checkpointing run: snapshots must not perturb the simulation, and the
  // last snapshot lands mid-run (limit 2 at ~quarter intervals).
  // The path must be unique per parameter combo: ctest runs each combo as
  // its own process, and the two churn variants of one scheduler x engine
  // pair are adjacent in the suite -- a shared name makes them clobber each
  // other's snapshot under parallel ctest.
  const std::string fault_tag =
      fault_spec.empty()
          ? "_nofault"
          : (fault_spec.find("restart=zero") != std::string::npos ? "_zero"
                                                                  : "_resume");
  const std::string path = ::testing::TempDir() + "parity_" + scheduler_name +
                           (engine == EngineKind::kEvent ? "_ev" : "_sl") +
                           fault_tag + ".ckpt";
  const auto interval =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(full.decisions) / 4);
  EventLog ck_log;
  CheckpointMeta base;
  base.scheduler = scheduler_name;
  CheckpointSink sink(path, interval, base, &ck_log);
  sink.set_snapshot_limit(2);
  const SimResult with_ck = parity_run(jobs, scheduler_name, engine,
                                       fault_spec, &ck_log, &sink, nullptr);
  EXPECT_EQ(with_ck.decisions, full.decisions);
  EXPECT_EQ(with_ck.total_profit, full.total_profit);
  EXPECT_EQ(ck_log.events(), full_log.events())
      << "checkpointing perturbed the run";
  ASSERT_GT(sink.snapshots(), 0u);

  // Resume from the last on-disk snapshot.
  const CheckpointFile file = read_checkpoint_file(path);
  ASSERT_LE(file.meta.events_emitted, full_log.size());
  EventLog resumed_log;
  const SimResult resumed = parity_run(jobs, scheduler_name, engine,
                                       fault_spec, &resumed_log, nullptr,
                                       &file);

  const std::vector<DecisionEvent> suffix(
      full_log.events().begin() +
          static_cast<std::ptrdiff_t>(file.meta.events_emitted),
      full_log.events().end());
  EXPECT_EQ(resumed_log.events(), suffix);
  EXPECT_EQ(resumed.decisions, full.decisions);
  EXPECT_EQ(resumed.jobs_completed, full.jobs_completed);
  EXPECT_EQ(resumed.total_profit, full.total_profit);  // bitwise, not NEAR
  EXPECT_EQ(resumed.busy_proc_time, full.busy_proc_time);
  EXPECT_EQ(resumed.failed(), full.failed());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, KillResumeParity,
    ::testing::Combine(
        ::testing::ValuesIn(named_scheduler_list()),
        ::testing::Values(EngineKind::kEvent, EngineKind::kSlot),
        ::testing::Values(
            std::string(),
            std::string(
                "mtbf=30,mttr=5,horizon=60,seed=3,integral=1,restart=resume"),
            std::string(
                "mtbf=30,mttr=5,horizon=60,seed=3,integral=1,restart=zero"))),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, EngineKind, std::string>>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += std::get<1>(param_info.param) == EngineKind::kEvent ? "_event"
                                                            : "_slot";
      const std::string& faults = std::get<2>(param_info.param);
      if (faults.empty()) {
        name += "_none";
      } else if (faults.find("restart=zero") != std::string::npos) {
        name += "_churn_zero";
      } else {
        name += "_churn_resume";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Registry counters across a kill: a process resumed from a checkpoint
// reports the kernel's engine.* counters as whole-run totals, so they agree
// with the SimResult the same process returns.

SimResult counted_run(const JobSet& jobs, MetricRegistry& registry,
                      CheckpointSink* checkpoint, const CheckpointFile* resume,
                      std::size_t die_at_decision) {
  auto scheduler = make_named_scheduler("s", 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  ObsSink sink;
  sink.metrics = &registry;
  SimOptions options;
  options.num_procs = kParityM;
  options.obs = &sink;
  options.checkpoint = checkpoint;
  options.resume = resume;
  options.die_at_decision = die_at_decision;
  return run_simulation(EngineKind::kEvent, jobs, *scheduler, *selector,
                        options);
}

TEST(KillResumeCountersDeathTest, ResumedCountersMatchSimResult) {
  const JobSet jobs = parity_jobs();
  MetricRegistry reference_registry;
  const SimResult full =
      counted_run(jobs, reference_registry, nullptr, nullptr, 0);
  ASSERT_GE(full.decisions, 8u);
  const std::size_t kill_at = full.decisions / 2;

  // The death-test child checkpoints every kill_at/3 decisions and is
  // killed (exit 9, no unwinding) at decision kill_at.
  const std::string path = ::testing::TempDir() + "resume_counters.ckpt";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        MetricRegistry registry;
        CheckpointMeta base;
        base.scheduler = "s";
        CheckpointSink sink(path, kill_at / 3, base, nullptr);
        counted_run(jobs, registry, &sink, nullptr, kill_at);
      },
      ::testing::ExitedWithCode(9), "");

  const CheckpointFile file = read_checkpoint_file(path);
  ASSERT_GT(file.meta.decisions, 0u);
  ASSERT_LT(file.meta.decisions, kill_at);
  MetricRegistry registry;
  const SimResult resumed = counted_run(jobs, registry, nullptr, &file, 0);
  ASSERT_EQ(resumed.decisions, full.decisions);

  auto counter = [&registry](const char* name) {
    return registry.counter(name)->value();
  };
  EXPECT_EQ(counter("engine.decisions"),
            static_cast<double>(resumed.decisions));
  EXPECT_EQ(counter("engine.busy_proc_time"), resumed.busy_proc_time);
  EXPECT_EQ(counter("engine.job_completions"),
            static_cast<double>(resumed.jobs_completed));
  EXPECT_EQ(counter("engine.node_preemptions"),
            static_cast<double>(resumed.node_preemptions));
  // Machine-time conservation from the counters alone: the event engine
  // starts accounting at the first release.
  const double machine_time = static_cast<double>(kParityM) *
                              (resumed.end_time - jobs[0].release());
  EXPECT_NEAR(counter("engine.busy_proc_time") +
                  counter("engine.idle_proc_time"),
              machine_time, 1e-6 * std::max(1.0, machine_time));
}

// ---------------------------------------------------------------------------
// Corruption fuzzing.  Every mutation of a real checkpoint must either
// parse (benign, e.g. a flipped bit inside an uncovered length prefix that
// still checks out) or throw CheckpointError -- never any other exception,
// never a crash, never UB (the sanitizer jobs run this file too).

std::string real_checkpoint_bytes() {
  const JobSet jobs = parity_jobs();
  // One file per test: ctest runs the fuzz cases as concurrent processes.
  const std::string path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";
  EventLog log;
  CheckpointMeta base;
  base.scheduler = "s";
  CheckpointSink sink(path, 5, base, &log);
  sink.set_snapshot_limit(1);
  parity_run(jobs, "s", EngineKind::kEvent, "", &log, &sink, nullptr);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CheckpointFuzz, EveryTruncationIsAStructuredError) {
  const std::string bytes = real_checkpoint_bytes();
  ASSERT_GT(bytes.size(), 64u);
  // Every prefix is a truncation somewhere -- exhaustively over the header
  // region, strided through the sections, and the exact end minus one.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len < std::min<std::size_t>(96, bytes.size());
       ++len) {
    lengths.push_back(len);
  }
  for (std::size_t len = 96; len < bytes.size(); len += 31) {
    lengths.push_back(len);
  }
  lengths.push_back(bytes.size() - 1);
  for (const std::size_t len : lengths) {
    EXPECT_THROW(parse_checkpoint_bytes(bytes.substr(0, len), "<fuzz>"),
                 CheckpointError)
        << "truncation at " << len << " of " << bytes.size();
  }
  // Trailing garbage is diagnosed too.
  EXPECT_THROW(parse_checkpoint_bytes(bytes + "x", "<fuzz>"), CheckpointError);
}

TEST(CheckpointFuzz, BitFlipsNeverEscapeTheErrorType) {
  const std::string bytes = real_checkpoint_bytes();
  std::size_t caught = 0, parsed_ok = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 3) {
    for (const int bit : {0, 6}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      try {
        (void)parse_checkpoint_bytes(mutated, "<fuzz>");
        ++parsed_ok;  // e.g. a flip inside the ignored tmp-file slack
      } catch (const CheckpointError&) {
        ++caught;
      }
      // Anything else (std::bad_alloc, std::length_error, segfault)
      // propagates and fails the test.
    }
  }
  // CRC coverage means nearly every flip is detected.
  EXPECT_GT(caught, 10 * (parsed_ok + 1));
}

TEST(CheckpointFuzz, SemanticCorruptionIsRejectedOnLoadNotCrashed) {
  // Valid container, corrupt *content*: mutate section payload bytes and
  // re-serialize (CRCs recomputed), then drive the full load path.  The
  // load must throw CheckpointError on inconsistent state -- reaching a
  // DS_CHECK abort would kill this test.
  const std::string bytes = real_checkpoint_bytes();
  const CheckpointFile pristine = parse_checkpoint_bytes(bytes, "<fuzz>");
  const JobSet jobs = parity_jobs();

  std::size_t rejected = 0, accepted = 0;
  for (std::size_t section = 0; section < pristine.sections.size();
       ++section) {
    const std::size_t payload_size =
        pristine.sections[section].payload.size();
    for (std::size_t pos = 0; pos < payload_size; pos += 17) {
      CheckpointFile mutated = pristine;
      std::string& payload = mutated.sections[section].payload;
      payload[pos] = static_cast<char>(payload[pos] ^ 0x41);
      const std::string rebuilt = serialize_checkpoint(mutated);
      const CheckpointFile file = parse_checkpoint_bytes(rebuilt, "<fuzz>");

      auto scheduler = make_named_scheduler("s", 0.5);
      auto selector = make_selector(SelectorKind::kFifo, 1);
      SimOptions options;
      options.num_procs = kParityM;
      SimKernel kernel(jobs, *scheduler, *selector, options);
      kernel.begin(jobs[0].release());
      try {
        CheckpointReader kernel_in = file.section_reader("kernel");
        CheckpointReader sched_in = file.section_reader("scheduler");
        kernel.load_checkpoint_state(kernel_in, sched_in);
        ++accepted;  // benign flip (e.g. low mantissa bit of a work value)
      } catch (const CheckpointError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  (void)accepted;
}

}  // namespace
}  // namespace dagsched

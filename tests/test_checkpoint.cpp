// Durable checkpoint/restore: wire primitives, the dagsched.checkpoint/5
// container, kill-resume decision parity across every scheduler x engine x
// fault mode, the rebuild of jobs that had not started, the kernel facts a
// resume derives instead of reading, and corruption
// fuzzing (bit flips, truncation at every boundary, version skew) -- a
// corrupt checkpoint must always surface as a structured CheckpointError,
// never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/telemetry/telemetry.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "sim/kernel/kernel.h"
#include "forwarding_scheduler.h"
#include "util/file_bytes.h"
#include "util/rng.h"
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

TEST(Wire, JobIdsAndPerJobTablesAreBoundedByTheJobCount) {
  CheckpointWriter out;
  out.u32(0);
  out.u32(2);
  out.u32(3);
  {
    // No bound set: every id is rejected.
    CheckpointReader in(out.data(), "<test>", "t");
    EXPECT_THROW(in.job_id(), CheckpointError);
  }
  {
    CheckpointReader in(out.data(), "<test>", "t");
    in.set_job_bound(3);
    EXPECT_EQ(in.job_id(), 0u);
    EXPECT_EQ(in.job_id(), 2u);
    EXPECT_THROW(in.job_id(), CheckpointError);  // id == job count
  }
  // A per-job table has 0 rows (saved before any arrival) or one per job.
  for (const std::uint64_t rows : {0u, 3u, 2u}) {
    CheckpointWriter table;
    table.u64(rows);
    for (std::uint64_t i = 0; i < rows; ++i) table.u32(0);
    CheckpointReader in(table.data(), "<test>", "t");
    in.set_job_bound(3);
    if (rows == 2) {
      EXPECT_THROW(in.job_rows(4), CheckpointError);
    } else {
      EXPECT_EQ(in.job_rows(4), rows);
    }
  }
}

/// Bit-at-a-time CRC-32, the definition the table-driven crc32 must match.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char byte : data) {
    crc ^= static_cast<unsigned char>(byte);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Wire, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(5);
  std::string buffer(72, '\0');
  for (char& byte : buffer) {
    byte = static_cast<char>(rng.uniform_int(0, 255));
  }
  // Every start offset 0-7 puts the 8-byte slices at every alignment, and
  // every length 0-64 covers zero to eight slices plus each tail length.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view slice(buffer.data() + offset, length);
      EXPECT_EQ(crc32(slice), crc32_bitwise(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Wire, BulkWritesMatchTheScalarLoop) {
  const std::vector<std::uint32_t> words = {0u, 1u, 0xDEADBEEFu, 0x80000000u,
                                            0xFFFFFFFFu, 42u};
  const std::vector<double> values = {
      0.0,  -0.0, 1.5, -2.25, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), 1e308};
  CheckpointWriter scalar;
  for (const std::uint32_t word : words) scalar.u32(word);
  for (const double value : values) scalar.f64(value);
  CheckpointWriter bulk;
  bulk.u32s(words);
  bulk.f64s(values);
  EXPECT_EQ(bulk.data(), scalar.data());
  // Little-endian on the wire regardless of the host.
  EXPECT_EQ(bulk.data().substr(8, 4), std::string("\xEF\xBE\xAD\xDE", 4));

  CheckpointReader in(bulk.data(), "<test>", "t");
  std::vector<std::uint32_t> words_back(words.size());
  std::vector<double> values_back(values.size());
  in.u32s(words_back);
  in.f64s(values_back);
  in.expect_done();
  EXPECT_EQ(words_back, words);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(values_back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i;
  }
}

TEST(Wire, BulkReadsOfATruncatedPayloadThrowPositioned) {
  CheckpointWriter out;
  out.u64(3);
  out.u32s(std::vector<std::uint32_t>{1, 2, 3});
  out.f64(1.0);
  {
    // Six u32s (24 bytes) after the 8-byte prefix, where only 20 remain.
    CheckpointReader in(out.data(), "<test>", "t");
    in.u64();
    std::vector<std::uint32_t> column(6);
    try {
      in.u32s(column);
      FAIL() << "truncated u32 column accepted";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.column(), 9u) << error.what();  // the column's 1st byte
      EXPECT_NE(std::string(error.what()).find("section 't'"),
                std::string::npos)
          << error.what();
    }
  }
  {
    CheckpointReader in(out.data(), "<test>", "t");
    in.u64();
    in.u32();
    std::vector<double> column(3);
    try {
      in.f64s(column);
      FAIL() << "truncated f64 column accepted";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.column(), 13u) << error.what();
    }
  }
  {
    // An exact fit is not a truncation.
    CheckpointReader in(out.data(), "<test>", "t");
    in.u64();
    std::vector<std::uint32_t> column(5);
    in.u32s(column);
    EXPECT_TRUE(in.done());
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
  // No earlier schema is read as /5: not a /1 file (every unfolding
  // written out), a /2 file (the active set, cursors and queues stored
  // beside the flags that determine them), a /3 file (LLF's candidate set
  // stored beside its shed set), nor a /4 file (S's incremental-drain
  // state).
  for (const char* schema :
       {"dagsched.checkpoint/1", "dagsched.checkpoint/2",
        "dagsched.checkpoint/3", "dagsched.checkpoint/4"}) {
    CheckpointFile file = sample_file();
    file.meta.schema = schema;
    const std::string bytes = serialize_checkpoint(file);
    try {
      parse_checkpoint_bytes(bytes, "<mem>");
      FAIL() << "version skew accepted for " << schema;
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(schema), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find(kCheckpointSchema),
                std::string::npos)
          << error.what();
    }
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
  // The CLI hashes the bytes while it parses them and passes the digest.
  EXPECT_EQ(run_config_fingerprint(fnv1a64("dagsched-workload 1\n"), "s", 0.5,
                                   4, 1.0, "event", "fifo", ""),
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

SimResult parity_run(const JobSet& jobs, SchedulerBase& scheduler,
                     EngineKind engine, const std::string& fault_spec,
                     EventLog* log, CheckpointSink* checkpoint,
                     const CheckpointFile* resume) {
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
  return run_simulation(engine, jobs, scheduler, *selector, options);
}

SimResult parity_run(const JobSet& jobs, const std::string& scheduler_name,
                     EngineKind engine, const std::string& fault_spec,
                     EventLog* log, CheckpointSink* checkpoint,
                     const CheckpointFile* resume) {
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  return parity_run(jobs, *scheduler, engine, fault_spec, log, checkpoint,
                    resume);
}

// Churn with restart-from-zero plus work overruns: some jobs arrive with
// scaled works, so a checkpoint must rebuild a not-yet-started job with the
// scaling its arrival applied.
const char* const kOverrunSpec =
    "mtbf=30,mttr=5,horizon=60,seed=3,integral=1,restart=zero,"
    "overrun-prob=0.3,overrun-factor=2";

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
          : (fault_spec.find("overrun") != std::string::npos
                 ? "_overrun"
                 : (fault_spec.find("restart=zero") != std::string::npos
                        ? "_zero"
                        : "_resume"));
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
                "mtbf=30,mttr=5,horizon=60,seed=3,integral=1,restart=zero"),
            std::string(kOverrunSpec))),
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
      } else if (faults.find("overrun") != std::string::npos) {
        name += "_churn_overrun";
      } else if (faults.find("restart=zero") != std::string::npos) {
        name += "_churn_zero";
      } else {
        name += "_churn_resume";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Rebuild of jobs that had not started.  A checkpoint omits their per-node
// blocks.  Only a job whose works fault injection scaled has one before it
// first runs, and the loader rebuilds it as arrival did; the rebuilt bytes
// must equal the uninterrupted run's at the same decision.

/// On its `capture_at`-th decide(), records the save_state bytes of every
/// active job's unfolding; a job without one is left out.
class UnfoldingCapture final : public ForwardingScheduler {
 public:
  UnfoldingCapture(SchedulerBase& inner, std::size_t capture_at)
      : ForwardingScheduler(inner), capture_at_(capture_at) {}

  void decide(const EngineContext& ctx, Assignment& out) override {
    if (++calls_ == capture_at_) {
      for (const JobId id : ctx.active_jobs()) {
        const UnfoldingState* unfolding = ctx.unfolding_of(id);
        if (unfolding == nullptr) continue;
        CheckpointWriter bytes;
        unfolding->save_state(bytes);
        captured[id] = bytes.take();
      }
    }
    ForwardingScheduler::decide(ctx, out);
  }

  std::map<JobId, std::string> captured;

 private:
  std::size_t capture_at_;
  std::size_t calls_ = 0;
};

class NeverStartedRebuild : public ::testing::TestWithParam<EngineKind> {};

TEST_P(NeverStartedRebuild, RestoredBytesEqualTheUninterruptedRun) {
  const EngineKind engine = GetParam();
  const JobSet jobs = parity_jobs();
  const SimResult plain =
      parity_run(jobs, "s", engine, kOverrunSpec, nullptr, nullptr, nullptr);
  ASSERT_GE(plain.decisions, 8u);

  // Two identical checkpointing runs: one mid-run snapshot each, and the
  // two files must be byte-identical.
  const std::string tag =
      engine == EngineKind::kEvent ? "rebuild_ev" : "rebuild_sl";
  std::string snapshots[2];
  for (int run = 0; run < 2; ++run) {
    const std::string path = ::testing::TempDir() + tag +
                             std::to_string(run) + ".ckpt";
    CheckpointMeta base;
    base.scheduler = "s";
    CheckpointSink sink(path, plain.decisions / 2, base, nullptr);
    sink.set_snapshot_limit(1);
    parity_run(jobs, "s", engine, kOverrunSpec, nullptr, &sink, nullptr);
    ASSERT_EQ(sink.snapshots(), 1u);
    snapshots[run] = std::string(FileBytes(path).view());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]) << "checkpoints are not deterministic";
  const CheckpointFile file = parse_checkpoint_bytes(snapshots[0], "<mem>");
  const std::size_t at = file.meta.decisions;

  // The uninterrupted run and the resumed one, each read at the first
  // decide() after the snapshot point.
  auto reference_inner = make_named_scheduler("s", 0.5);
  UnfoldingCapture reference(*reference_inner, at + 1);
  const SimResult full = parity_run(jobs, reference, engine, kOverrunSpec,
                                    nullptr, nullptr, nullptr);
  auto resumed_inner = make_named_scheduler("s", 0.5);
  UnfoldingCapture resumed(*resumed_inner, 1);
  const SimResult after = parity_run(jobs, resumed, engine, kOverrunSpec,
                                     nullptr, nullptr, &file);
  EXPECT_EQ(after.decisions, full.decisions);
  ASSERT_FALSE(reference.captured.empty());

  // Jobs that had arrived at the snapshot but started no earlier than it
  // are the ones the checkpoint omitted: the scaled ones were rebuilt, the
  // rest have no unfolding on either side.
  const std::optional<FaultInjector> faults = parity_faults(kOverrunSpec);
  std::size_t omitted_scaled = 0;
  for (JobId id = 0; id < jobs.size(); ++id) {
    if (!(jobs[id].release() < file.meta.sim_time) ||
        full.outcomes[id].first_start < file.meta.sim_time) {
      continue;
    }
    const auto reference_bytes = reference.captured.find(id);
    const auto restored = resumed.captured.find(id);
    if (faults->scaled_works(id, jobs[id].dag()).empty()) {
      EXPECT_EQ(reference_bytes, reference.captured.end()) << "job " << id;
      EXPECT_EQ(restored, resumed.captured.end()) << "job " << id;
      continue;
    }
    if (reference_bytes == reference.captured.end()) continue;  // not active
    ++omitted_scaled;
    ASSERT_NE(restored, resumed.captured.end()) << "job " << id;
    EXPECT_EQ(restored->second, reference_bytes->second) << "job " << id;
  }
  EXPECT_GT(omitted_scaled, 0u);
  // Every other job active at that decision matches too, and the two runs
  // hold unfoldings for the same jobs.
  EXPECT_EQ(resumed.captured, reference.captured);
}

INSTANTIATE_TEST_SUITE_P(Engines, NeverStartedRebuild,
                         ::testing::Values(EngineKind::kEvent,
                                           EngineKind::kSlot),
                         [](const ::testing::TestParamInfo<EngineKind>& p) {
                           return std::string(p.param == EngineKind::kEvent
                                                  ? "event"
                                                  : "slot");
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
// Derived kernel facts across a resume.  A checkpoint stores neither the
// arrival cursor, the completed and expired counts nor the active set: the
// loader derives them from the job flags.  A wrong derivation need not
// change any decision, so event-log parity cannot see it; the counters and
// the final in-flight gauge are compared with the uninterrupted run's.

/// The parity workload over a longer horizon, under churn with
/// restart-from-zero all along it (no overruns: with them the profit
/// scheduler completes no job).
const char* const kFactsSpec =
    "mtbf=30,mttr=5,horizon=200,seed=3,integral=1,restart=zero";

JobSet facts_jobs() {
  Rng rng(21);
  WorkloadConfig config = scenario_shootout(1.2, kParityM, 0.3, 1.2);
  config.horizon = 200.0;
  return generate_workload(rng, config);
}

/// `events_at_decision`, when set, receives the log's size after each
/// decision (`log` must be set too).
SimResult facts_run(const JobSet& jobs, const std::string& scheduler_name,
                    EngineKind engine, MetricRegistry& registry,
                    TelemetryRecorder& telemetry, EventLog* log,
                    CheckpointSink* checkpoint, const CheckpointFile* resume,
                    std::vector<std::size_t>* events_at_decision = nullptr) {
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  std::optional<FaultInjector> injector = parity_faults(kFactsSpec);
  ObsSink sink;
  sink.metrics = &registry;
  sink.events = log;
  SimOptions options;
  options.num_procs = kParityM;
  options.obs = &sink;
  options.telemetry = &telemetry;
  options.faults = &*injector;
  options.checkpoint = checkpoint;
  options.resume = resume;
  if (events_at_decision != nullptr) {
    options.observer = [log, events_at_decision](const EngineContext&,
                                                 const Assignment&) {
      events_at_decision->push_back(log->size());
    };
  }
  return run_simulation(engine, jobs, *scheduler, *selector, options);
}

class ResumedDerivedFacts
    : public ::testing::TestWithParam<std::tuple<std::string, EngineKind>> {};

TEST_P(ResumedDerivedFacts, CountersAndInFlightGaugeMatchTheFullRun) {
  const auto& [scheduler_name, engine] = GetParam();
  if (scheduler_name == "profit" && engine == EngineKind::kEvent) {
    GTEST_SKIP() << "profit is slot-engine only";
  }
  const JobSet jobs = facts_jobs();
  MetricRegistry full_registry;
  TelemetryRecorder full_telemetry;
  EventLog full_log;
  std::vector<std::size_t> events_at_decision;
  const SimResult full =
      facts_run(jobs, scheduler_name, engine, full_registry, full_telemetry,
                &full_log, nullptr, nullptr, &events_at_decision);
  ASSERT_GE(full.decisions, 8u);

  // One snapshot halfway between the first decision by which a job has
  // completed and one has expired and the end of the run, so the resume
  // derives nonzero counts and still has work left.  The snapshot's
  // prefix covers that decision's events.
  std::size_t first = 0;
  bool completed = false;
  bool expired = false;
  for (std::size_t e = 0; first < events_at_decision.size(); ++first) {
    for (; e < events_at_decision[first]; ++e) {
      completed |= full_log.events()[e].kind == ObsEventKind::kComplete;
      expired |= full_log.events()[e].kind == ObsEventKind::kExpire;
    }
    if (completed && expired) break;
  }
  ASSERT_LT(first, events_at_decision.size()) << "no completion and expiry";
  const std::string path = ::testing::TempDir() + "facts_" + scheduler_name +
                           (engine == EngineKind::kEvent ? "_ev" : "_sl") +
                           ".ckpt";
  CheckpointMeta base;
  base.scheduler = scheduler_name;
  CheckpointSink sink(path, (first + 1 + full.decisions) / 2, base, nullptr);
  sink.set_snapshot_limit(1);
  MetricRegistry ck_registry;
  TelemetryRecorder ck_telemetry;
  facts_run(jobs, scheduler_name, engine, ck_registry, ck_telemetry, nullptr,
            &sink, nullptr);
  ASSERT_EQ(sink.snapshots(), 1u);
  const CheckpointFile file = read_checkpoint_file(path);

  MetricRegistry registry;
  TelemetryRecorder telemetry;
  const SimResult resumed = facts_run(jobs, scheduler_name, engine, registry,
                                      telemetry, nullptr, nullptr, &file);
  ASSERT_EQ(resumed.decisions, full.decisions);
  for (const char* name : {"engine.arrivals", "engine.job_completions",
                           "engine.deadline_expiries"}) {
    EXPECT_EQ(registry.counter(name)->value(),
              full_registry.counter(name)->value())
        << name;
  }
  ASSERT_TRUE(telemetry.has_sample());
  ASSERT_TRUE(full_telemetry.has_sample());
  EXPECT_EQ(telemetry.last_sample().jobs_in_flight,
            full_telemetry.last_sample().jobs_in_flight);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ResumedDerivedFacts,
    ::testing::Combine(::testing::ValuesIn(named_scheduler_list()),
                       ::testing::Values(EngineKind::kEvent,
                                         EngineKind::kSlot)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, EngineKind>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param_info.param) == EngineKind::kEvent
                         ? "_event"
                         : "_slot");
    });

// ---------------------------------------------------------------------------
// Corruption fuzzing.  Every mutation of a real checkpoint must either
// parse (benign, e.g. a flipped bit inside an uncovered length prefix that
// still checks out) or throw CheckpointError -- never any other exception,
// never a crash, never UB (the sanitizer jobs run this file too).

/// A mid-run checkpoint of the parity workload under `scheduler_name`.
std::string real_checkpoint_bytes(const std::string& scheduler_name = "s",
                                  EngineKind engine = EngineKind::kEvent) {
  const JobSet jobs = parity_jobs();
  // One file per test and scheduler: ctest runs the fuzz cases as
  // concurrent processes.
  const std::string path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      scheduler_name + ".ckpt";
  EventLog log;
  CheckpointMeta base;
  base.scheduler = scheduler_name;
  CheckpointSink sink(path, 5, base, &log);
  sink.set_snapshot_limit(1);
  parity_run(jobs, scheduler_name, engine, "", &log, &sink, nullptr);
  return std::string(FileBytes(path).view());
}

/// Drives the full kernel + scheduler load path of `file` on a fresh
/// kernel over the parity workload.
void load_into_fresh_kernel(const CheckpointFile& file,
                            const std::string& scheduler_name) {
  const JobSet jobs = parity_jobs();
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  SimOptions options;
  options.num_procs = kParityM;
  SimKernel kernel(jobs, *scheduler, *selector, options);
  kernel.begin(jobs[0].release());
  CheckpointReader kernel_in = file.section_reader("kernel");
  CheckpointReader sched_in = file.section_reader("scheduler");
  kernel.load_checkpoint_state(kernel_in, sched_in);
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
  // re-serialize (CRCs recomputed), then drive the full load path, for
  // every named scheduler's section.  The load must throw CheckpointError
  // on inconsistent state -- reaching a DS_CHECK abort or an out-of-range
  // index would kill this test (or trip the sanitizer jobs).
  for (const std::string& name : named_scheduler_list()) {
    const EngineKind engine = scheduler_engine_error(name, EngineKind::kEvent)
                                      .empty()
                                  ? EngineKind::kEvent
                                  : EngineKind::kSlot;
    const std::string bytes = real_checkpoint_bytes(name, engine);
    const CheckpointFile pristine = parse_checkpoint_bytes(bytes, "<fuzz>");

    std::size_t rejected = 0;
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
        try {
          load_into_fresh_kernel(file, name);
          // Accepted: a benign flip (e.g. a low mantissa bit of a work).
        } catch (const CheckpointError&) {
          ++rejected;
        }
      }
    }
    EXPECT_GT(rejected, 0u) << name;
  }
}

TEST(CheckpointLoad, OutOfRangeSchedulerJobIdIsRejected) {
  // An edf checkpoint whose first order-index entry names a job at or past
  // the job count: CRC-valid, so only the bounded id read can catch it.
  const std::string bytes = real_checkpoint_bytes("edf");
  const CheckpointFile pristine = parse_checkpoint_bytes(bytes, "<mem>");
  load_into_fresh_kernel(pristine, "edf");  // the unmodified file loads

  const CheckpointSection* section = pristine.find_section("scheduler");
  ASSERT_NE(section, nullptr);
  CheckpointReader in(section->payload, "<mem>", "scheduler");
  ASSERT_EQ(in.str(), "edf");
  ASSERT_GT(in.count(12), 0u) << "empty order index: nothing to corrupt";
  (void)in.f64();
  const std::size_t id_offset = in.offset();
  const std::uint32_t jobs = static_cast<std::uint32_t>(parity_jobs().size());
  for (const std::uint32_t bad : {jobs, jobs + 1000u, ~std::uint32_t{0}}) {
    CheckpointFile mutated = pristine;
    CheckpointWriter id;
    id.u32(bad);
    for (CheckpointSection& s : mutated.sections) {
      if (s.name == "scheduler") s.payload.replace(id_offset, 4, id.data());
    }
    const CheckpointFile file =
        parse_checkpoint_bytes(serialize_checkpoint(mutated), "<mem>");
    EXPECT_THROW(load_into_fresh_kernel(file, "edf"), CheckpointError)
        << "job id " << bad;
  }
}

}  // namespace
}  // namespace dagsched

// Durable checkpoint/restore for the simulation kernel.
//
// A checkpoint is one file in the `dagsched.checkpoint/5` format: an 8-byte
// magic, a single-line JSON header (human-inspectable with head -2; carries
// the schema version, a run-configuration fingerprint, and resume cursors),
// and CRC-32-guarded named binary sections -- one for the kernel, one for
// the scheduler -- encoded with util/wire.h.  Each fact is stored once:
// whatever other stored fields determine (the active set, the arrival
// cursor, S's queues, ...) is derived on load, and a job's per-node
// unfolding block is written only once the job has started; a job that has
// not started is rebuilt exactly as its arrival built it
// (docs/RECOVERY.md).  Files are written atomically
// (temp file + rename) so a crash mid-write can never leave a truncated
// checkpoint where a good one used to be, and every decode failure is a
// CheckpointError (a ParseError: file:1:byte: message, CLI exit 2), never
// UB -- tests/test_checkpoint.cpp fuzzes bit flips, truncations at every
// section boundary, and version skew against that contract.
//
// Restore contract: a checkpoint captures the state at the top of an
// stepping loop iteration, *before* that iteration's due events are
// delivered.  Resuming therefore replays the exact continuation: the event
// log of a resumed run is byte-identical to the suffix of an uninterrupted
// run's log starting at `events_emitted` (scripts/decision_parity.sh
// resume mode checks this across schedulers x engines x fault modes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"
#include "util/wire.h"

namespace dagsched {

class EventLog;
class SimKernel;

inline constexpr std::string_view kCheckpointSchema = "dagsched.checkpoint/5";

/// Decoded JSON header.  `config_hash` fingerprints everything that must
/// match between the checkpointing run and the resuming run (workload
/// bytes, scheduler, engine, m, speed, eps, selector, fault spec); the
/// named fields ride along for better mismatch diagnostics and for
/// `dagsched checkpoint info`.
struct CheckpointMeta {
  std::string schema{kCheckpointSchema};
  std::uint64_t config_hash = 0;
  std::string workload;  // informational (path as given on the CLI)
  std::string engine;
  std::string scheduler;
  std::string fault_spec;
  ProcCount m = 1;
  double speed = 1.0;
  std::uint64_t jobs = 0;
  // Resume cursors: simulation position at the loop top being captured.
  Time sim_time = 0.0;
  std::uint64_t slot = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events_emitted = 0;
};

struct CheckpointSection {
  std::string name;
  std::string payload;
};

/// A fully decoded (or about-to-be-encoded) checkpoint.
struct CheckpointFile {
  CheckpointMeta meta;
  std::vector<CheckpointSection> sections;
  /// Where the bytes came from, for diagnostics ("<memory>" if built
  /// in-process).
  std::string source{"<memory>"};

  const CheckpointSection* find_section(std::string_view name) const;
  /// Positioned reader over a named section; throws CheckpointError if the
  /// section is absent.  The file must outlive the reader.
  CheckpointReader section_reader(std::string_view name) const;
};

/// Serializes to the on-disk byte layout (exposed for the corruption-fuzz
/// tests; production callers use write_checkpoint_file).
std::string serialize_checkpoint(const CheckpointFile& file);

/// Decodes and fully validates a byte buffer: magic, header JSON + CRC,
/// schema version, section CRCs, no trailing garbage.  Throws
/// CheckpointError on any violation.
CheckpointFile parse_checkpoint_bytes(std::string_view bytes,
                                      const std::string& source);

/// Atomic durable write: serialize, write `path + ".tmp"`, flush + fsync,
/// rename over `path`.  Throws std::runtime_error on I/O failure.
void write_checkpoint_file(const std::string& path,
                           const CheckpointFile& file);

/// Reads and validates `path`; throws CheckpointError (exit 2 at the CLI)
/// on a missing, corrupt, truncated, or version-skewed file.
CheckpointFile read_checkpoint_file(const std::string& path);

/// Fingerprint of everything a resume must agree on.  Hashed over the raw
/// workload bytes plus a canonical parameter string, so editing the
/// workload file in place -- same path, different jobs -- still mismatches.
std::uint64_t run_config_fingerprint(std::string_view workload_bytes,
                                     std::string_view scheduler, double eps,
                                     ProcCount m, double speed,
                                     std::string_view engine,
                                     std::string_view selector,
                                     std::string_view fault_spec);
/// The same fingerprint from `workload_digest` = fnv1a64(workload_bytes),
/// for a caller that hashes the bytes while it parses them.
std::uint64_t run_config_fingerprint(std::uint64_t workload_digest,
                                     std::string_view scheduler, double eps,
                                     ProcCount m, double speed,
                                     std::string_view engine,
                                     std::string_view selector,
                                     std::string_view fault_spec);

/// Verifies a checkpoint belongs to the run configuration about to resume
/// it; throws CheckpointError naming the first mismatched field (scheduler,
/// engine, m, speed, job count, fault spec, then the config hash).
void verify_resume_compatible(const CheckpointFile& file,
                              const CheckpointMeta& current);

/// Periodic checkpoint emitter owned by the CLI and polled by SimKernel::run
/// at the top of every loop iteration: `due()` fires every `interval`
/// decisions, `write()` snapshots the kernel + scheduler into a rolling
/// file (each snapshot atomically replaces the previous one).
class CheckpointSink {
 public:
  /// `events` may be null; when set, the header records how many events the
  /// attached log had emitted at snapshot time (the resume parity cursor).
  CheckpointSink(std::string path, std::uint64_t interval_decisions,
                 CheckpointMeta base, const EventLog* events);

  bool due(std::uint64_t decisions) const {
    return (snapshot_limit_ == 0 || snapshots_ < snapshot_limit_) &&
           decisions >= last_decisions_ + interval_;
  }
  void write(const SimKernel& kernel, Time now, std::uint64_t slot);
  /// After restoring from a checkpoint taken at `decisions`, restart the
  /// cadence from there instead of writing immediately.
  void note_resumed(std::uint64_t decisions) { last_decisions_ = decisions; }

  /// Test hook: stop after `limit` snapshots (0 = unbounded) so a test can
  /// pin the rolling file to a known mid-run decision count.
  void set_snapshot_limit(std::uint64_t limit) { snapshot_limit_ = limit; }

  std::uint64_t snapshots() const { return snapshots_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t interval_;
  CheckpointMeta base_;
  const EventLog* events_;
  std::uint64_t last_decisions_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t snapshot_limit_ = 0;
  /// Kernel-section size of the previous snapshot: the next one reserves
  /// it up front instead of growing by doubling.
  std::size_t last_kernel_bytes_ = 0;
};

}  // namespace dagsched

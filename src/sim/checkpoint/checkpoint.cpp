#include "sim/checkpoint/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/event_log.h"
#include "sim/kernel/kernel.h"
#include "util/file_bytes.h"
#include "util/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dagsched {
namespace {

// Fixed 8-byte magic; the trailing newline makes `head -1` on a checkpoint
// print something sensible.
constexpr std::string_view kMagic = "DSCKPT1\n";

std::string hash_to_hex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[hash & 0xfu];
    hash >>= 4;
  }
  return hex;
}

std::uint64_t hex_to_hash(std::string_view hex, const std::string& source) {
  if (hex.size() != 16) {
    throw CheckpointError(source, "header", 0,
                          "config_hash is not a 16-digit hex string");
  }
  std::uint64_t hash = 0;
  for (const char c : hex) {
    hash <<= 4;
    if (c >= '0' && c <= '9') {
      hash |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      hash |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw CheckpointError(source, "header", 0,
                            "config_hash is not a 16-digit hex string");
    }
  }
  return hash;
}

std::string header_json(const CheckpointMeta& meta) {
  JsonValue header = JsonValue::object();
  header.set("schema", JsonValue(meta.schema));
  header.set("config_hash", JsonValue(hash_to_hex(meta.config_hash)));
  header.set("workload", JsonValue(meta.workload));
  header.set("engine", JsonValue(meta.engine));
  header.set("scheduler", JsonValue(meta.scheduler));
  header.set("fault_spec", JsonValue(meta.fault_spec));
  header.set("m", JsonValue(static_cast<double>(meta.m)));
  header.set("speed", JsonValue(meta.speed));
  header.set("jobs", JsonValue(static_cast<double>(meta.jobs)));
  header.set("sim_time", JsonValue(meta.sim_time));
  header.set("slot", JsonValue(static_cast<double>(meta.slot)));
  header.set("decisions", JsonValue(static_cast<double>(meta.decisions)));
  header.set("events_emitted",
             JsonValue(static_cast<double>(meta.events_emitted)));
  std::ostringstream out;
  header.write(out);
  return out.str();
}

CheckpointMeta parse_header(std::string_view header_bytes,
                            const std::string& source) {
  auto fail = [&source](const std::string& message) -> CheckpointMeta {
    throw CheckpointError(source, "header", 0, message);
  };
  const JsonParseResult parsed = json_parse(header_bytes);
  if (!parsed.ok) return fail("header is not valid JSON: " + parsed.error);
  const JsonValue& doc = parsed.value;
  if (!doc.is_object()) return fail("header is not a JSON object");

  auto need_string = [&](const char* key) -> const std::string& {
    const JsonValue* value = doc.find(key);
    if (value == nullptr || !value->is_string()) {
      fail(std::string("header field '") + key +
           "' is missing or not a string");
    }
    return value->as_string();
  };
  auto need_number = [&](const char* key) -> double {
    const JsonValue* value = doc.find(key);
    if (value == nullptr || !value->is_number()) {
      fail(std::string("header field '") + key +
           "' is missing or not a number");
    }
    return value->as_number();
  };

  CheckpointMeta meta;
  meta.schema = need_string("schema");
  // Version skew is its own diagnostic, checked before anything else the
  // header claims to contain.
  if (meta.schema != kCheckpointSchema) {
    return fail("unsupported checkpoint schema '" + meta.schema +
                "' (this build reads '" + std::string(kCheckpointSchema) +
                "')");
  }
  meta.config_hash = hex_to_hash(need_string("config_hash"), source);
  meta.workload = need_string("workload");
  meta.engine = need_string("engine");
  meta.scheduler = need_string("scheduler");
  meta.fault_spec = need_string("fault_spec");
  meta.m = static_cast<ProcCount>(need_number("m"));
  meta.speed = need_number("speed");
  meta.jobs = static_cast<std::uint64_t>(need_number("jobs"));
  meta.sim_time = need_number("sim_time");
  meta.slot = static_cast<std::uint64_t>(need_number("slot"));
  meta.decisions = static_cast<std::uint64_t>(need_number("decisions"));
  meta.events_emitted =
      static_cast<std::uint64_t>(need_number("events_emitted"));
  return meta;
}

}  // namespace

const CheckpointSection* CheckpointFile::find_section(
    std::string_view name) const {
  for (const CheckpointSection& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

CheckpointReader CheckpointFile::section_reader(std::string_view name) const {
  const CheckpointSection* section = find_section(name);
  if (section == nullptr) {
    throw CheckpointError(source, std::string(name), 0, "section is missing");
  }
  return CheckpointReader(section->payload, source, std::string(name));
}

std::string serialize_checkpoint(const CheckpointFile& file) {
  const std::string header = header_json(file.meta);
  // One exactly sized buffer per snapshot.  Growing it by doubling copies
  // each snapshot several times and, through glibc's dynamic mmap
  // threshold, leaves freed megabyte-sized blocks on the heap, which shows
  // as peak RSS on checkpointing runs.
  std::size_t size = kMagic.size() + 4 + header.size() + 4 + 4;
  for (const CheckpointSection& section : file.sections) {
    size += 4 + section.name.size() + 8 + section.payload.size() + 4;
  }
  CheckpointWriter out;
  out.reserve(size);
  out.raw(kMagic);
  out.u32(static_cast<std::uint32_t>(header.size()));
  out.raw(header);
  out.u32(crc32(header));
  out.u32(static_cast<std::uint32_t>(file.sections.size()));
  for (const CheckpointSection& section : file.sections) {
    out.u32(static_cast<std::uint32_t>(section.name.size()));
    out.raw(section.name);
    out.u64(section.payload.size());
    out.raw(section.payload);
    out.u32(crc32(section.payload));
  }
  return out.take();
}

CheckpointFile parse_checkpoint_bytes(std::string_view bytes,
                                      const std::string& source) {
  CheckpointReader reader(bytes, source, "file");
  if (reader.remaining() < kMagic.size() ||
      reader.bytes(kMagic.size()) != kMagic) {
    throw CheckpointError(source, "file", 0,
                          "not a dagsched checkpoint (bad magic)");
  }
  const std::uint32_t header_len = reader.u32();
  const std::string_view header_bytes = reader.bytes(header_len);
  const std::uint32_t header_crc = reader.u32();
  if (crc32(header_bytes) != header_crc) {
    throw CheckpointError(source, "header", 0,
                          "CRC mismatch (corrupt or bit-flipped header)");
  }

  CheckpointFile file;
  file.source = source;
  file.meta = parse_header(header_bytes, source);

  const std::uint32_t section_count = reader.u32();
  for (std::uint32_t i = 0; i < section_count; ++i) {
    CheckpointSection section;
    const std::uint32_t name_len = reader.u32();
    section.name = std::string(reader.bytes(name_len));
    const std::uint64_t payload_len = reader.u64();
    if (payload_len > reader.remaining()) {
      throw CheckpointError(
          source, section.name, reader.offset(),
          "truncated: section claims " + std::to_string(payload_len) +
              " bytes but only " + std::to_string(reader.remaining()) +
              " remain");
    }
    section.payload =
        std::string(reader.bytes(static_cast<std::size_t>(payload_len)));
    const std::uint32_t payload_crc = reader.u32();
    if (crc32(section.payload) != payload_crc) {
      throw CheckpointError(source, section.name, 0,
                            "CRC mismatch (corrupt or bit-flipped section)");
    }
    file.sections.push_back(std::move(section));
  }
  reader.expect_done();
  return file;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointFile& file) {
  const std::string bytes = serialize_checkpoint(file);
  const std::string tmp = path + ".tmp";
  // Plain stdio instead of ofstream: fsync needs the file descriptor, and a
  // checkpoint that is not durable before the rename defeats its purpose.
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size() &&
      std::fflush(out) == 0;
#if defined(__unix__) || defined(__APPLE__)
  const bool synced = !wrote || ::fsync(::fileno(out)) == 0;
#else
  const bool synced = true;
#endif
  const bool closed = std::fclose(out) == 0;
  if (!wrote || !synced || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: failed writing " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " over " +
                             path + ": " + ec.message());
  }
}

CheckpointFile read_checkpoint_file(const std::string& path) {
  std::optional<FileBytes> bytes;
  try {
    bytes.emplace(path);
  } catch (const std::runtime_error& error) {
    throw CheckpointError(path, "file", 0,
                          std::string("cannot read checkpoint file: ") +
                              error.what());
  }
  return parse_checkpoint_bytes(bytes->view(), path);
}

std::uint64_t run_config_fingerprint(std::string_view workload_bytes,
                                     std::string_view scheduler, double eps,
                                     ProcCount m, double speed,
                                     std::string_view engine,
                                     std::string_view selector,
                                     std::string_view fault_spec) {
  return run_config_fingerprint(fnv1a64(workload_bytes), scheduler, eps, m,
                                speed, engine, selector, fault_spec);
}

std::uint64_t run_config_fingerprint(std::uint64_t workload_digest,
                                     std::string_view scheduler, double eps,
                                     ProcCount m, double speed,
                                     std::string_view engine,
                                     std::string_view selector,
                                     std::string_view fault_spec) {
  std::ostringstream params;
  params << "scheduler=" << scheduler << "|eps=" << eps << "|m=" << m
         << "|speed=" << speed << "|engine=" << engine
         << "|selector=" << selector << "|faults=" << fault_spec;
  return fnv1a64(params.str(), workload_digest);
}

void verify_resume_compatible(const CheckpointFile& file,
                              const CheckpointMeta& current) {
  const CheckpointMeta& saved = file.meta;
  auto mismatch = [&file](const std::string& what, const std::string& have,
                          const std::string& want) {
    throw CheckpointError(
        file.source, "header", 0,
        "checkpoint does not match this run: " + what + " is '" + have +
            "' in the checkpoint but '" + want + "' here");
  };
  if (saved.scheduler != current.scheduler) {
    mismatch("scheduler", saved.scheduler, current.scheduler);
  }
  if (saved.engine != current.engine) {
    mismatch("engine", saved.engine, current.engine);
  }
  if (saved.m != current.m) {
    mismatch("m", std::to_string(saved.m), std::to_string(current.m));
  }
  if (saved.speed != current.speed) {
    mismatch("speed", std::to_string(saved.speed),
             std::to_string(current.speed));
  }
  if (saved.jobs != current.jobs) {
    mismatch("job count", std::to_string(saved.jobs),
             std::to_string(current.jobs));
  }
  if (saved.fault_spec != current.fault_spec) {
    mismatch("fault spec", saved.fault_spec, current.fault_spec);
  }
  if (saved.config_hash != current.config_hash) {
    mismatch("config-hash", hash_to_hex(saved.config_hash),
             hash_to_hex(current.config_hash));
  }
}

CheckpointSink::CheckpointSink(std::string path,
                               std::uint64_t interval_decisions,
                               CheckpointMeta base, const EventLog* events)
    : path_(std::move(path)),
      interval_(interval_decisions == 0 ? 1 : interval_decisions),
      base_(std::move(base)),
      events_(events) {}

void CheckpointSink::write(const SimKernel& kernel, Time now,
                           std::uint64_t slot) {
  CheckpointFile file;
  file.meta = base_;
  file.meta.sim_time = now;
  file.meta.slot = slot;
  file.meta.decisions = kernel.decisions();
  file.meta.events_emitted = events_ != nullptr ? events_->size() : 0;
  if (events_ != nullptr && events_->stream() != nullptr) {
    // Push the streamed log at least as far as the cursor we record, so a
    // kill after this snapshot leaves the on-disk log covering it.
    events_->stream()->flush();
  }
  CheckpointWriter kernel_out;
  kernel_out.reserve(last_kernel_bytes_);
  CheckpointWriter scheduler_out;
  kernel.save_checkpoint_state(kernel_out, scheduler_out);
  last_kernel_bytes_ = kernel_out.size();
  file.sections.push_back({"kernel", kernel_out.take()});
  file.sections.push_back({"scheduler", scheduler_out.take()});
  write_checkpoint_file(path_, file);
  last_decisions_ = file.meta.decisions;
  ++snapshots_;
}

}  // namespace dagsched

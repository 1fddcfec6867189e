// Binary wire primitives for the checkpoint subsystem (sim/checkpoint/).
//
// CheckpointWriter appends fixed-width little-endian scalars and
// length-prefixed strings to a growable buffer; CheckpointReader replays
// them with bounds checking and throws CheckpointError -- a ParseError
// subclass, so the CLI's parse-failure handling (exit 2) covers corrupt
// checkpoints with no extra plumbing -- on any structural violation.
// Determinism matters more than speed here: every value has exactly one
// encoding (doubles as IEEE-754 bit patterns, never a text round-trip), so
// serializing the same state twice produces identical bytes and checkpoint
// files can be compared with cmp.
//
// The primitives live in util/ rather than sim/checkpoint/ because layers
// below sim (dag/unfolding arenas, core/baselines scheduler state) encode
// their own sections and must not depend upward on the engine library.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/parse_error.h"

namespace dagsched {

/// Structural failure while decoding a checkpoint: truncation, CRC
/// mismatch, bad magic, version skew, malformed header.  The ParseError
/// "column" carries the 1-based byte offset inside the named region, so
/// diagnostics read `run.ckpt:1:17: section 'kernel': ...`.
class CheckpointError : public ParseError {
 public:
  CheckpointError(std::string source, const std::string& region,
                  std::size_t byte_offset, const std::string& message)
      : ParseError(std::move(source), 1, byte_offset + 1,
                   region.empty() ? message
                                  : "section '" + region + "': " + message) {}
};

/// Append-only little-endian encoder.
class CheckpointWriter {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(std::string_view value) {
    u64(value.size());
    buf_.append(value);
  }
  /// Un-prefixed bytes; the reader side must know the length.
  void raw(std::string_view value) { buf_.append(value); }
  /// Capacity hint for a writer whose final size is known up front.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a borrowed byte range; the underlying
/// storage must outlive the reader.  Every primitive throws
/// CheckpointError instead of reading past the end, and `count` guards
/// element counts against the remaining payload so a corrupt length can
/// never drive a multi-gigabyte allocation.
class CheckpointReader {
 public:
  CheckpointReader(std::string_view data, std::string source,
                   std::string region)
      : data_(data), source_(std::move(source)), region_(std::move(region)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();
  std::string_view bytes(std::size_t n);

  /// Reads a u64 element count and verifies the remaining bytes can hold
  /// `count * min_element_bytes`.
  std::uint64_t count(std::size_t min_element_bytes);

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Fails unless every byte has been consumed (catches reader/writer
  /// schema drift and appended garbage).
  void expect_done();

  [[noreturn]] void fail(const std::string& message) const;

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::string source_;
  std::string region_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the variant zlib
/// uses; guards each checkpoint section against bit rot.
std::uint32_t crc32(std::string_view data);

/// FNV-1a 64-bit; used for the run-configuration fingerprint stored in the
/// checkpoint header.  `seed` chains multi-part hashes.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

}  // namespace dagsched

// Binary wire primitives for the checkpoint subsystem (sim/checkpoint/).
//
// CheckpointWriter appends fixed-width little-endian scalars and
// length-prefixed strings to a growable buffer; CheckpointReader replays
// them with bounds checking and throws CheckpointError -- a ParseError
// subclass, so the CLI's parse-failure handling (exit 2) covers corrupt
// checkpoints with no extra plumbing -- on any structural violation.
//
// The codec is both deterministic and fast.  Every value has exactly one
// encoding (doubles as IEEE-754 bit patterns, never a text round-trip), so
// serializing the same state twice produces identical bytes and checkpoint
// files can be compared with cmp.  Scalars move a whole word at a time
// (memcpy on little-endian hosts, a byte swap elsewhere), the bulk
// u32s/f64s calls move a whole column per call, and crc32 runs slice-by-8;
// none of that changes a single byte of the format.
//
// The primitives live in util/ rather than sim/checkpoint/ because layers
// below sim (dag/unfolding arenas, core/baselines scheduler state) encode
// their own sections and must not depend upward on the engine library.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

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

namespace wire_detail {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

/// `value` with its bytes in little-endian order, whatever the host's
/// order is; T is a 4- or 8-byte integer or double.
template <typename T>
constexpr T to_little(T value) {
  if constexpr (std::endian::native == std::endian::little) {
    return value;
  } else {
    using Bits =
        std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    auto bits = std::bit_cast<Bits>(value);
    Bits swapped = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      swapped = static_cast<Bits>((swapped << 8) | (bits & 0xffu));
      bits = static_cast<Bits>(bits >> 8);
    }
    return std::bit_cast<T>(swapped);
  }
}

}  // namespace wire_detail

/// Append-only little-endian encoder.
class CheckpointWriter {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) { word(value); }
  void u64(std::uint64_t value) { word(value); }
  void f64(double value) { word(value); }
  /// Bulk forms: the same bytes as one u32/f64 call per element.
  void u32s(std::span<const std::uint32_t> values) { words(values); }
  void f64s(std::span<const double> values) { words(values); }
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
  template <typename T>
  void word(T value) {
    value = wire_detail::to_little(value);
    buf_.append(reinterpret_cast<const char*>(&value), sizeof value);
  }
  template <typename T>
  void words(std::span<const T> values) {
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    } else {
      for (const T value : values) word(value);
    }
  }

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
  std::uint32_t u32() { return word<std::uint32_t>("a 4-byte integer"); }
  std::uint64_t u64() { return word<std::uint64_t>("an 8-byte integer"); }
  double f64() { return word<double>("an 8-byte double"); }
  /// Bulk forms: fill `out` from out.size() consecutive u32/f64 values,
  /// or throw (positioned at the column's first byte) if the payload ends
  /// before the column does.
  void u32s(std::span<std::uint32_t> out) { words(out); }
  void f64s(std::span<double> out) { words(out); }
  bool boolean();
  std::string str();
  std::string_view bytes(std::size_t n);

  /// Reads a u64 element count and verifies the remaining bytes can hold
  /// `count * min_element_bytes`.
  std::uint64_t count(std::size_t min_element_bytes);

  /// Reads a u32 job id and fails unless it is below the job bound (0, so
  /// every id fails, until the kernel sets it to the run's job count).
  std::uint32_t job_id();
  void set_job_bound(std::size_t jobs) { job_bound_ = jobs; }
  std::size_t job_bound() const { return job_bound_; }
  /// count() for a per-job table: fails unless the row count is 0 (saved
  /// before the first arrival sized it) or the job bound.  Loaders size the
  /// table to job_bound() either way, as that arrival would.
  std::uint64_t job_rows(std::size_t min_row_bytes);

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Fails unless every byte has been consumed (catches reader/writer
  /// schema drift and appended garbage).
  void expect_done();

  [[noreturn]] void fail(const std::string& message) const;

 private:
  template <typename T>
  T word(const char* what) {
    if (remaining() < sizeof(T)) fail_truncated(what);
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof value);
    pos_ += sizeof value;
    return wire_detail::to_little(value);
  }
  /// Out of line, so the inline scalar reads stay small.
  [[noreturn]] void fail_truncated(const char* what) const;
  /// Bounds check for a bulk read of `n` elements of `width` bytes.
  void need_column(std::size_t n, std::size_t width);
  template <typename T>
  void words(std::span<T> out) {
    need_column(out.size(), sizeof(T));
    std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    pos_ += out.size_bytes();
    if constexpr (std::endian::native != std::endian::little) {
      for (T& value : out) value = wire_detail::to_little(value);
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string source_;
  std::string region_;
  std::size_t job_bound_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the variant zlib
/// uses; guards each checkpoint section against bit rot.  Slice-by-8: eight
/// table lookups per 8-byte word, same value as the bytewise algorithm.
std::uint32_t crc32(std::string_view data);

/// FNV-1a 64-bit; used for the run-configuration fingerprint stored in the
/// checkpoint header.  `seed` chains multi-part hashes.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

}  // namespace dagsched

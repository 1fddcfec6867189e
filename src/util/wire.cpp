#include "util/wire.h"

#include <array>

namespace dagsched {

std::uint8_t CheckpointReader::u8() {
  if (remaining() < 1) fail("truncated: expected 1 more byte");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

void CheckpointReader::fail_truncated(const char* what) const {
  fail(std::string("truncated: expected ") + what);
}

void CheckpointReader::need_column(std::size_t n, std::size_t width) {
  if (n > remaining() / width) {
    fail("truncated: a column of " + std::to_string(n) + " x " +
         std::to_string(width) + " bytes exceeds the " +
         std::to_string(remaining()) + " remaining bytes");
  }
}

bool CheckpointReader::boolean() {
  const std::uint8_t value = u8();
  if (value > 1) {
    fail("malformed boolean (byte " + std::to_string(value) + ")");
  }
  return value == 1;
}

std::string CheckpointReader::str() {
  const std::uint64_t length = u64();
  if (length > remaining()) {
    fail("truncated: string of length " + std::to_string(length) +
         " exceeds the " + std::to_string(remaining()) + " remaining bytes");
  }
  std::string value(data_.substr(pos_, static_cast<std::size_t>(length)));
  pos_ += static_cast<std::size_t>(length);
  return value;
}

std::string_view CheckpointReader::bytes(std::size_t n) {
  if (n > remaining()) {
    fail("truncated: expected " + std::to_string(n) + " more bytes, have " +
         std::to_string(remaining()));
  }
  const std::string_view view = data_.substr(pos_, n);
  pos_ += n;
  return view;
}

std::uint64_t CheckpointReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  const std::uint64_t floor_bytes =
      min_element_bytes == 0 ? 0 : n * static_cast<std::uint64_t>(min_element_bytes);
  if (min_element_bytes != 0 &&
      (n > remaining() || floor_bytes / min_element_bytes != n ||
       floor_bytes > remaining())) {
    fail("malformed count " + std::to_string(n) + ": needs at least " +
         std::to_string(min_element_bytes) + " bytes per element but only " +
         std::to_string(remaining()) + " remain");
  }
  return n;
}

std::uint32_t CheckpointReader::job_id() {
  const std::uint32_t id = u32();
  if (id >= job_bound_) {
    fail("job id " + std::to_string(id) + " out of range (" +
         std::to_string(job_bound_) + " jobs)");
  }
  return id;
}

std::uint64_t CheckpointReader::job_rows(std::size_t min_row_bytes) {
  const std::uint64_t rows = count(min_row_bytes);
  if (rows != 0 && rows != job_bound_) {
    fail("per-job table of " + std::to_string(rows) + " rows for " +
         std::to_string(job_bound_) + " jobs");
  }
  return rows;
}

void CheckpointReader::expect_done() {
  if (!done()) {
    fail(std::to_string(remaining()) +
         " trailing bytes after the last expected field");
  }
}

void CheckpointReader::fail(const std::string& message) const {
  throw CheckpointError(source_, region_, pos_, message);
}

namespace {

/// Slice-by-8 tables: table[0] is the bytewise CRC table, and table[k][b]
/// is the CRC of byte b followed by k zero bytes.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const Crc32Tables tables = make_crc32_tables();
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    // Little-endian assembly of the two words, independent of host order.
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(bytes[0]) |
               static_cast<std::uint32_t>(bytes[1]) << 8 |
               static_cast<std::uint32_t>(bytes[2]) << 16 |
               static_cast<std::uint32_t>(bytes[3]) << 24);
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][bytes[4]] ^ tables[2][bytes[5]] ^ tables[1][bytes[6]] ^
          tables[0][bytes[7]];
  }
  for (; n > 0; --n, ++bytes) {
    crc = tables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char byte : data) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace dagsched

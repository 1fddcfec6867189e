// Whole-file byte sources for parsers that scan one in-memory buffer.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace dagsched {

/// The bytes of one file, held until release() or destruction.
///
/// A regular non-empty file is mapped read-only (PROT_READ, MAP_PRIVATE):
/// the parser reads the page cache in place, with no zero-filled buffer
/// and no copy.  MAP_POPULATE measured no different on a 5 MB workload, so
/// each parse thread faults in its own pages.  A pipe, a FIFO, an empty
/// file (procfs reports size 0), or a file the kernel will not map is read
/// into an owned buffer instead: one sized read for a regular file, chunks
/// for the rest and for a file that grew meanwhile.  A mapping is a
/// snapshot of the file's size at open; a file that another process
/// truncates while the bytes are read raises SIGBUS.
class FileBytes {
 public:
  /// Opens and maps (or reads) `path`.  Throws std::runtime_error
  /// "cannot open PATH" or "cannot read PATH: ...".
  explicit FileBytes(const std::string& path);
  ~FileBytes() { release(); }

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  /// The file's bytes; valid until release() or destruction.
  std::string_view view() const {
    return map_ != nullptr ? std::string_view(map_, map_size_)
                           : std::string_view(owned_);
  }

  /// True when view() reads a mapping rather than an owned buffer.
  bool mapped() const { return map_ != nullptr; }

  /// Unmaps or frees the bytes now; view() is empty afterwards.
  void release() noexcept;

 private:
  const char* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::string owned_;
};

}  // namespace dagsched

// Whole-file reads for parsers that scan one in-memory buffer.
#pragma once

#include <string>

namespace dagsched {

/// Returns the bytes of the file at `path`, read with one sized read for a
/// regular file (and in chunks for a pipe or a file that grew meanwhile).
/// Throws std::runtime_error "cannot open PATH" or "cannot read PATH: ...".
std::string read_file_bytes(const std::string& path);

}  // namespace dagsched

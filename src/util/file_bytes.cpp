#include "util/file_bytes.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace dagsched {

namespace {

/// Closes the descriptor on every exit path.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }

 private:
  int fd_;
};

/// read(2) retried on EINTR; throws on any other error.
std::size_t read_some(int fd, char* into, std::size_t size,
                      const std::string& path) {
  for (;;) {
    const ssize_t got = ::read(fd, into, size);
    if (got >= 0) return static_cast<std::size_t>(got);
    if (errno != EINTR) {
      throw std::runtime_error("cannot read " + path + ": " +
                               std::strerror(errno));
    }
  }
}

/// Reads the rest of `fd` into `bytes`: one sized read of `size` bytes
/// (the regular file's size at fstat), then chunks until end of file.
void read_all(int fd, std::size_t size, const std::string& path,
              std::string& bytes) {
  bytes.resize(size);
  std::size_t filled = 0;
  while (filled < bytes.size()) {
    const std::size_t got =
        read_some(fd, bytes.data() + filled, bytes.size() - filled, path);
    if (got == 0) break;  // the file shrank since fstat
    filled += got;
  }
  bytes.resize(filled);
  char chunk[1 << 16];
  while (const std::size_t got = read_some(fd, chunk, sizeof chunk, path)) {
    bytes.append(chunk, got);
  }
}

}  // namespace

FileBytes::FileBytes(const std::string& path) {
  const FileDescriptor fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) throw std::runtime_error("cannot open " + path);
  struct stat info {};
  const bool regular = ::fstat(fd.get(), &info) == 0 && S_ISREG(info.st_mode);
  const std::size_t size =
      regular ? static_cast<std::size_t>(info.st_size) : 0;
  if (size > 0) {
    void* const map =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
    if (map != MAP_FAILED) {
      map_ = static_cast<const char*>(map);
      map_size_ = size;
      return;
    }
  }
  read_all(fd.get(), size, path, owned_);
}

void FileBytes::release() noexcept {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
  std::string().swap(owned_);
}

}  // namespace dagsched

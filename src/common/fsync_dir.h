// Durable publication of a file renamed into place.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace samie {

/// fsyncs the directory holding `path`, making its directory entry
/// durable: fsyncing a file persists its contents, but the rename that
/// published it lives in the directory, and a machine crash before the
/// directory is synced can lose the file. Returns whether the directory
/// opened and synced.
[[nodiscard]] inline bool fsync_parent_dir(const std::string& path) noexcept {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace samie

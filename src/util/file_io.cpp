#include "util/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace gt::util {

namespace testing {
namespace {
WriteFn g_write_override = nullptr;
}  // namespace
void set_write_override(WriteFn fn) noexcept { g_write_override = fn; }
}  // namespace testing

namespace {

Status errno_status(const std::string& what) {
    return Status{StatusCode::IoError,
                  what + " failed: " + std::strerror(errno)};
}

/// The directory holding `path` ("." for a bare file name).
std::string parent_dir(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) {
        return ".";
    }
    return slash == 0 ? "/" : path.substr(0, slash);
}

/// `dir/name.ext` -> `dir/name.tmp.ext`; `dir/name` -> `dir/name.tmp`.
std::string tmp_sibling(const std::string& path) {
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + ".tmp";
    }
    return path.substr(0, dot) + ".tmp" + path.substr(dot);
}

}  // namespace

bool write_all(int fd, const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    while (len > 0) {
        errno = 0;
        const ssize_t n = testing::g_write_override != nullptr
                              ? testing::g_write_override(fd, p, len)
                              : ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        if (n == 0) {
            if (errno == 0) {
                errno = ENOSPC;
            }
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

ReadOutcome pread_exact(int fd, void* data, std::size_t len,
                        std::uint64_t offset) noexcept {
    auto* p = static_cast<unsigned char*>(data);
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::pread(fd, p + done, len - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return ReadOutcome::Error;
        }
        if (n == 0) {
            return done == 0 ? ReadOutcome::Eof : ReadOutcome::Short;
        }
        done += static_cast<std::size_t>(n);
    }
    return ReadOutcome::Full;
}

Status fsync_path(const std::string& path, bool directory) {
    const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
    const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
    if (fd < 0) {
        return errno_status("open('" + path + "') for fsync");
    }
    Status st = ::fsync(fd) == 0 ? Status::success()
                                 : errno_status("fsync('" + path + "')");
    ::close(fd);
    return st;
}

Status ensure_dir(const std::string& path) {
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
        return Status::success();
    }
    return errno_status("mkdir('" + path + "')");
}

Status atomic_replace(const std::string& path,
                      std::span<const unsigned char> bytes) {
    const std::string tmp = tmp_sibling(path);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        return errno_status("open('" + tmp + "')");
    }
    Status st = !write_all(fd, bytes.data(), bytes.size())
                    ? errno_status("write('" + tmp + "')")
                : ::fsync(fd) != 0 ? errno_status("fsync('" + tmp + "')")
                                   : Status::success();
    ::close(fd);
    if (!st.ok()) {
        return st;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return errno_status("rename('" + tmp + "')");
    }
    // Fence the rename itself, or a power loss can bring the old file back.
    return fsync_path(parent_dir(path), /*directory=*/true);
}

}  // namespace gt::util

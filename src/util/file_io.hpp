// Regular-file I/O for the durability layer (src/recover/): the syscall
// loops the WAL, the term sidecar and the snapshot rotation share, written
// once. Sockets have their own loops in src/net/io.hpp.
//
//   - writes retry EINTR and treat a zero return as a failure, never as
//     progress (retrying it would spin forever near ENOSPC);
//   - reads are offset-based (pread), so a reader never moves a shared fd
//     position, and tell a clean EOF from a short read from an error;
//   - atomic_replace is the tmp + fsync + rename + directory-fsync sequence
//     that makes a small file's replacement crash-atomic.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/status.hpp"

namespace gt::util {

namespace testing {
/// write(2)-shaped hook every write_all routes through when set. Tests use
/// it to provoke outcomes real filesystems won't produce on demand —
/// notably the `write() == 0` boundary — without touching the kernel. Not
/// thread-safe: install before I/O starts, clear (nullptr) when done.
using WriteFn = ssize_t (*)(int fd, const void* buf, std::size_t len);
void set_write_override(WriteFn fn) noexcept;
}  // namespace testing

/// Writes all `len` bytes. EINTR and partial writes retry; a zero return
/// is terminal and fails with errno latched (ENOSPC when the kernel left it
/// unset). false means failure, errno says why.
[[nodiscard]] bool write_all(int fd, const void* data,
                             std::size_t len) noexcept;

/// Why a full-buffer read stopped. Callers must tell a torn tail (EOF)
/// apart from a failing read: truncating a log at a transient I/O error
/// would discard the valid records that follow.
enum class ReadOutcome : std::uint8_t {
    Full,   ///< all `len` bytes read
    Eof,    ///< EOF before the first byte
    Short,  ///< EOF after some bytes
    Error,  ///< pread() failed (errno holds the cause)
};

/// Reads `len` bytes at `offset` (EINTR retries).
[[nodiscard]] ReadOutcome pread_exact(int fd, void* data, std::size_t len,
                                      std::uint64_t offset) noexcept;

/// open + fsync + close of `path`; `directory` opens it as a directory (to
/// make a rename in it durable).
[[nodiscard]] Status fsync_path(const std::string& path, bool directory);

/// mkdir(path, 0755), where an existing entry counts as success.
[[nodiscard]] Status ensure_dir(const std::string& path);

/// Crash-atomically replaces `path` with `bytes`: writes them to a sibling
/// tmp file (`name.ext` -> `name.tmp.ext`, truncating a stale one), fsyncs
/// it, renames it over `path` and fsyncs the directory. A crash leaves
/// either the old file or the new one.
[[nodiscard]] Status atomic_replace(const std::string& path,
                                    std::span<const unsigned char> bytes);

}  // namespace gt::util

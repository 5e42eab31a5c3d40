#include "recover/term.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/file_io.hpp"

namespace gt::recover {

namespace {

constexpr std::uint32_t kTermMagic = 0x4754544DU;  // "GTTM" little-endian
constexpr std::uint32_t kTermVersion = 1;
/// magic | version | term
constexpr std::size_t kTermBytes =
    sizeof(kTermMagic) + sizeof(kTermVersion) + sizeof(std::uint64_t);

std::string term_path(const std::string& dir) { return dir + "/term.gtt"; }

Status errno_status(const std::string& what) {
    return Status{StatusCode::IoError, what + ": " + std::strerror(errno)};
}

}  // namespace

Status load_term(const std::string& dir, std::uint64_t& term) {
    term = 0;
    const std::string path = term_path(dir);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT) {
            return Status::success();  // never promoted: term 0
        }
        return errno_status("open('" + path + "')");
    }
    unsigned char buf[kTermBytes];
    const bool full = util::pread_exact(fd, buf, sizeof(buf), 0) ==
                      util::ReadOutcome::Full;
    ::close(fd);
    if (!full) {
        return Status{StatusCode::IoError,
                      "term file '" + path + "' is truncated or unreadable"};
    }
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::memcpy(&magic, buf, sizeof(magic));
    std::memcpy(&version, buf + 4, sizeof(version));
    if (magic != kTermMagic) {
        return Status{StatusCode::IoError,
                      "term file '" + path + "' has a bad magic"};
    }
    if (version != kTermVersion) {
        return Status{StatusCode::IoError,
                      "term file '" + path + "' has unsupported version " +
                          std::to_string(version)};
    }
    std::memcpy(&term, buf + 8, sizeof(term));
    return Status::success();
}

Status store_term(const std::string& dir, std::uint64_t term) {
    std::uint64_t current = 0;
    if (const Status st = load_term(dir, current); !st.ok()) {
        return st;
    }
    if (term < current) {
        return Status{StatusCode::InvalidArgument,
                      "refusing to lower term " + std::to_string(current) +
                          " to " + std::to_string(term),
                      current};
    }
    if (term == current && term != 0) {
        return Status::success();  // already durable at this term
    }
    unsigned char buf[kTermBytes];
    std::memcpy(buf, &kTermMagic, sizeof(kTermMagic));
    std::memcpy(buf + 4, &kTermVersion, sizeof(kTermVersion));
    std::memcpy(buf + 8, &term, sizeof(term));
    // atomic_replace fences the rename too: a promotion must not evaporate
    // on power loss, or a resurrected stale primary could win the next
    // election.
    return util::atomic_replace(term_path(dir), buf);
}

}  // namespace gt::recover

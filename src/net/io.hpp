// Socket plumbing for gt::net — the only files in the tree allowed to call
// the raw socket syscalls (::send/::recv/::read/::write on fds that may be
// sockets); tools/gt_lint.py's raw-socket-io rule enforces that boundary.
// Everything here encodes the loop disciplines the rest of the server must
// not re-derive per call site:
//
//   - EINTR retries on every syscall (accept included),
//   - MSG_NOSIGNAL on sends so a vanished peer raises EPIPE instead of
//     delivering SIGPIPE and killing the daemon,
//   - a zero return from a *send* treated as an error, never progress
//     (the write_all spin bug from wal.cpp, fixed once, stays fixed here),
//   - EAGAIN surfaced as WouldBlock so nonblocking event loops can park,
//   - poll-based deadlines on every blocking operation (connect included):
//     a stalled or half-open peer costs at most the deadline, never a hung
//     client. tools/gt_lint.py's deadline-discipline rule keeps the rest
//     of src/net/ on these helpers with explicit deadlines.
//
// Fault injection: the gt::fail sites named net.* live here (short writes,
// EINTR storms, connection resets, stalled reads). They use the
// non-throwing GT_FAILPOINT_HIT form — these functions are noexcept, so a
// fired site mutates the syscall outcome (errno + return) instead of
// throwing.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/status.hpp"

namespace gt::net {

/// Absolute monotonic deadline for a blocking io operation. Default
/// construction means "no deadline" (legacy blocking behaviour); bounded
/// deadlines are enforced with poll(2) before every syscall that could
/// block, so expiry surfaces as StatusCode::TimedOut within one poll
/// granularity.
class Deadline {
public:
    constexpr Deadline() noexcept = default;

    /// A deadline `ms` from now (monotonic clock).
    [[nodiscard]] static Deadline after(std::chrono::milliseconds ms) noexcept {
        Deadline d;
        d.bounded_ = true;
        d.at_ = std::chrono::steady_clock::now() + ms;
        return d;
    }
    [[nodiscard]] static constexpr Deadline infinite() noexcept { return {}; }

    [[nodiscard]] bool bounded() const noexcept { return bounded_; }
    [[nodiscard]] bool expired() const noexcept {
        return bounded_ && std::chrono::steady_clock::now() >= at_;
    }
    /// Remaining time as a poll(2) timeout: -1 when unbounded, else >= 0
    /// milliseconds (rounded up so a 0.5ms remainder still waits).
    [[nodiscard]] int poll_timeout_ms() const noexcept {
        if (!bounded_) {
            return -1;
        }
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            at_ - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
            return 0;
        }
        constexpr long kMaxPollMs = 1000L * 60 * 60 * 24;  // cap at a day
        return static_cast<int>(std::min<long>(left.count(), kMaxPollMs));
    }

private:
    std::chrono::steady_clock::time_point at_{};
    bool bounded_ = false;
};

/// Owning fd handle (close-on-destroy, move-only).
class Fd {
public:
    Fd() = default;
    explicit Fd(int fd) noexcept : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& other) noexcept : fd_(other.release()) {}
    Fd& operator=(Fd&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int release() noexcept {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }
    void reset() noexcept;

private:
    int fd_ = -1;
};

/// Outcome of one nonblocking transfer attempt.
enum class IoResult : std::uint8_t {
    Ok,          ///< made progress (`n` bytes)
    WouldBlock,  ///< EAGAIN/EWOULDBLOCK — park until the poller fires
    Closed,      ///< orderly peer shutdown (recv == 0) or EPIPE/ECONNRESET
    Error,       ///< anything else; errno holds the cause
};

/// One recv() attempt with EINTR retry. `n` receives the byte count on Ok.
[[nodiscard]] IoResult recv_some(int fd, unsigned char* buf, std::size_t cap,
                                 std::size_t& n) noexcept;

/// One send() attempt (MSG_NOSIGNAL) with EINTR retry; partial sends
/// return Ok with the short count. A zero return from send() on a nonempty
/// buffer is reported as Error with errno latched (ENOSPC-style refusal to
/// spin), mirroring the WAL's write_all fix.
[[nodiscard]] IoResult send_some(int fd, const unsigned char* buf,
                                 std::size_t len, std::size_t& n) noexcept;

/// Blocking full-buffer send for the client side: loops send_some until
/// done, polling for writability when a bounded deadline is set. Closed
/// peers surface as IoError with an EPIPE message; deadline expiry as
/// TimedOut (the peer may have received a prefix — the connection is no
/// longer frame-aligned and must be closed).
[[nodiscard]] Status send_all(int fd, std::span<const unsigned char> buf,
                              Deadline deadline = {}) noexcept;

/// Blocking full-buffer receive for the client side; an early EOF is an
/// IoError ("connection closed mid-frame"), matching read_exact's Short.
/// A bounded deadline turns a stalled peer into TimedOut.
[[nodiscard]] Status recv_exact(int fd, unsigned char* buf, std::size_t len,
                                Deadline deadline = {}) noexcept;

/// Polls `fd` for readability until data arrives, EOF, or the deadline.
/// Ok = readable now (recv will not block), TimedOut = deadline expired.
/// The frame readers use it to bound the wait *before* committing to a
/// recv_exact of a whole header.
[[nodiscard]] Status wait_readable(int fd, Deadline deadline) noexcept;

/// accept(2) with EINTR retry; the accepted socket gets TCP_NODELAY, as
/// tcp_connect's does. Returns the fd, or -1 with errno set (EAGAIN when
/// the nonblocking backlog is empty).
[[nodiscard]] int accept_retry(int listen_fd) noexcept;

[[nodiscard]] Status set_nonblocking(int fd) noexcept;

/// Binds + listens on host:port (TCP, SO_REUSEADDR). `port` 0 picks an
/// ephemeral port; `bound_port` receives the actual one.
[[nodiscard]] Status tcp_listen(const std::string& host, std::uint16_t port,
                                Fd& out, std::uint16_t& bound_port);

/// TCP connect (TCP_NODELAY — the protocol is request/response with small
/// frames, Nagle only adds latency). With a bounded deadline the connect
/// runs nonblocking + poll + SO_ERROR, so an unresponsive host costs the
/// deadline, not the kernel's SYN-retry minutes; the returned fd is back
/// in blocking mode either way.
[[nodiscard]] Status tcp_connect(const std::string& host, std::uint16_t port,
                                 Fd& out, Deadline deadline = {});

/// Nonblocking close-on-exec self-pipe: the event loop's wake/stop channel.
[[nodiscard]] Status make_wake_pipe(Fd& read_end, Fd& write_end);

/// Best-effort single-byte write to the pipe. Async-signal-safe — this is
/// what a SIGINT handler calls; a full pipe already means a wake is
/// pending, so the dropped byte is harmless.
void wake(int write_fd) noexcept;

/// Drains all pending wake bytes (nonblocking read end).
void drain_wake(int read_fd) noexcept;

}  // namespace gt::net

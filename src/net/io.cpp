#include "net/io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/failpoint.hpp"

namespace gt::net {

namespace {

Status errno_status(const std::string& what) {
    return Status{StatusCode::IoError, what + ": " + std::strerror(errno)};
}

/// Both ends of every connection: the protocol is request/response with
/// small frames, so Nagle only holds pipelined ones back.
void set_nodelay(int fd) noexcept {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status timeout_status(const char* what) {
    return Status{StatusCode::TimedOut,
                  std::string(what) + " deadline expired"};
}

/// Waits until `fd` is ready for `events` or the deadline passes.
/// Ok = ready; TimedOut = deadline; IoError = poll failure. Unbounded
/// deadlines skip the poll entirely (the subsequent blocking syscall is
/// the wait).
Status poll_ready(int fd, short events, Deadline deadline,
                  const char* what) noexcept {
    if (!deadline.bounded()) {
        return Status::success();
    }
    for (;;) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = events;
        const int timeout = deadline.poll_timeout_ms();
        if (timeout == 0) {
            return timeout_status(what);
        }
        const int n = ::poll(&pfd, 1, timeout);
        if (n > 0) {
            return Status::success();  // ready, or HUP/ERR — syscall tells
        }
        if (n == 0) {
            return timeout_status(what);
        }
        if (errno == EINTR) {
            continue;  // re-derive the remaining timeout and re-poll
        }
        return errno_status("poll");
    }
}

/// Burns the remaining deadline, then reports TimedOut — the simulated
/// behaviour of a peer that accepted the connection and went silent. An
/// unbounded deadline reports TimedOut immediately instead of hanging the
/// test binary forever.
Status stall_until(Deadline deadline, const char* what) noexcept {
    if (!deadline.bounded()) {
        return timeout_status(what);
    }
    for (;;) {
        const int timeout = deadline.poll_timeout_ms();
        if (timeout == 0) {
            return timeout_status(what);
        }
        // Poll on no fds: a pure bounded sleep that stays EINTR-correct.
        if (::poll(nullptr, 0, timeout) == 0) {
            return timeout_status(what);
        }
    }
}

}  // namespace

void Fd::reset() noexcept {
    if (fd_ >= 0) {
        // EINTR after close is unrecoverable by retry (the fd state is
        // unspecified); POSIX says don't loop here.
        ::close(fd_);
        fd_ = -1;
    }
}

IoResult recv_some(int fd, unsigned char* buf, std::size_t cap,
                   std::size_t& n) noexcept {
    n = 0;
    if (GT_FAILPOINT_HIT("net.recv.reset")) {
        errno = ECONNRESET;
        return IoResult::Closed;
    }
    for (;;) {
        // Injected EINTR storm: take the retry branch exactly as a real
        // signal interruption would (arm with countdown N for N spins).
        if (GT_FAILPOINT_HIT("net.recv.eintr")) {
            errno = EINTR;
            continue;
        }
        const ssize_t got = ::recv(fd, buf, cap, 0);
        if (got > 0) {
            n = static_cast<std::size_t>(got);
            return IoResult::Ok;
        }
        if (got == 0) {
            return IoResult::Closed;  // orderly shutdown
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return IoResult::WouldBlock;
        }
        if (errno == ECONNRESET) {
            return IoResult::Closed;
        }
        return IoResult::Error;
    }
}

IoResult send_some(int fd, const unsigned char* buf, std::size_t len,
                   std::size_t& n) noexcept {
    n = 0;
    if (GT_FAILPOINT_HIT("net.send.reset")) {
        errno = ECONNRESET;
        return IoResult::Closed;
    }
    // Injected short write: hand the kernel one byte so callers' partial-
    // send reassembly is exercised on loopback, where sends rarely split.
    if (len > 1 && GT_FAILPOINT_HIT("net.send.short")) {
        len = 1;
    }
    for (;;) {
        if (GT_FAILPOINT_HIT("net.send.eintr")) {
            errno = EINTR;
            continue;
        }
        const ssize_t sent = ::send(fd, buf, len, MSG_NOSIGNAL);
        if (sent > 0) {
            n = static_cast<std::size_t>(sent);
            return IoResult::Ok;
        }
        if (sent == 0) {
            // Zero progress on a nonempty buffer: retrying would spin
            // (the write_all lesson). Latch an errno and fail.
            if (len == 0) {
                return IoResult::Ok;
            }
            if (errno == 0) {
                errno = ENOSPC;
            }
            return IoResult::Error;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return IoResult::WouldBlock;
        }
        if (errno == EPIPE || errno == ECONNRESET) {
            return IoResult::Closed;
        }
        return IoResult::Error;
    }
}

Status send_all(int fd, std::span<const unsigned char> buf,
                Deadline deadline) noexcept {
    std::size_t off = 0;
    while (off < buf.size()) {
        if (const Status ready = poll_ready(fd, POLLOUT, deadline, "send");
            !ready.ok()) {
            return ready;
        }
        std::size_t n = 0;
        switch (send_some(fd, buf.data() + off, buf.size() - off, n)) {
            case IoResult::Ok:
                off += n;
                break;
            case IoResult::WouldBlock:
                if (deadline.bounded()) {
                    continue;  // nonblocking fd raced; re-poll
                }
                // Blocking socket: EAGAIN only fires with SO_SNDTIMEO,
                // which the client does not set — treat as an error rather
                // than busy-loop.
                return Status{StatusCode::IoError,
                              "send timed out (would block)"};
            case IoResult::Closed:
                return Status{StatusCode::IoError,
                              "peer closed the connection mid-send"};
            case IoResult::Error:
                return errno_status("send");
        }
    }
    return Status::success();
}

Status recv_exact(int fd, unsigned char* buf, std::size_t len,
                  Deadline deadline) noexcept {
    if (len > 0 && GT_FAILPOINT_HIT("net.recv.stall")) {
        return stall_until(deadline, "recv");
    }
    std::size_t off = 0;
    while (off < len) {
        if (const Status ready = poll_ready(fd, POLLIN, deadline, "recv");
            !ready.ok()) {
            return ready;
        }
        std::size_t n = 0;
        switch (recv_some(fd, buf + off, len - off, n)) {
            case IoResult::Ok:
                off += n;
                break;
            case IoResult::WouldBlock:
                if (deadline.bounded()) {
                    continue;  // spurious wakeup on a nonblocking fd
                }
                return Status{StatusCode::IoError,
                              "recv timed out (would block)"};
            case IoResult::Closed:
                return Status{StatusCode::IoError,
                              off == 0
                                  ? "connection closed"
                                  : "connection closed mid-frame"};
            case IoResult::Error:
                return errno_status("recv");
        }
    }
    return Status::success();
}

Status wait_readable(int fd, Deadline deadline) noexcept {
    if (GT_FAILPOINT_HIT("net.recv.stall")) {
        return stall_until(deadline, "recv");
    }
    return poll_ready(fd, POLLIN, deadline, "recv");
}

int accept_retry(int listen_fd) noexcept {
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            set_nodelay(fd);
            return fd;
        }
        if (errno != EINTR) {
            return fd;
        }
    }
}

Status set_nonblocking(int fd) noexcept {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        return errno_status("fcntl(O_NONBLOCK)");
    }
    return Status::success();
}

Status tcp_listen(const std::string& host, std::uint16_t port, Fd& out,
                  std::uint16_t& bound_port) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) {
        return errno_status("socket");
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status{StatusCode::InvalidArgument,
                      "not an IPv4 address: " + host};
    }
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        return errno_status("bind " + host + ":" + std::to_string(port));
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        return errno_status("listen");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
        return errno_status("getsockname");
    }
    bound_port = ntohs(bound.sin_port);
    out = std::move(fd);
    return Status::success();
}

Status tcp_connect(const std::string& host, std::uint16_t port, Fd& out,
                   Deadline deadline) {
    if (GT_FAILPOINT_HIT("net.connect.stall")) {
        return stall_until(deadline, "connect");
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) {
        return errno_status("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status{StatusCode::InvalidArgument,
                      "not an IPv4 address: " + host};
    }
    const std::string where = host + ":" + std::to_string(port);
    if (deadline.bounded()) {
        // Nonblocking connect + poll + SO_ERROR: an unreachable host costs
        // the deadline, not the kernel's SYN-retransmit minutes.
        if (const Status st = set_nonblocking(fd.get()); !st.ok()) {
            return st;
        }
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            if (errno != EINPROGRESS && errno != EINTR) {
                return errno_status("connect " + where);
            }
            if (const Status ready =
                    poll_ready(fd.get(), POLLOUT, deadline, "connect");
                !ready.ok()) {
                return ready;
            }
            int err = 0;
            socklen_t len = sizeof(err);
            if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) !=
                    0 ||
                err != 0) {
                errno = err != 0 ? err : errno;
                return errno_status("connect " + where);
            }
        }
        // Back to blocking: callers get the classic semantics, deadlines
        // come from poll_ready in send_all/recv_exact.
        const int flags = ::fcntl(fd.get(), F_GETFL, 0);
        if (flags < 0 ||
            ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
            return errno_status("fcntl(~O_NONBLOCK)");
        }
    } else {
        for (;;) {
            if (::connect(fd.get(),
                          reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0) {
                break;
            }
            if (errno == EINTR) {
                continue;
            }
            return errno_status("connect " + where);
        }
    }
    set_nodelay(fd.get());
    out = std::move(fd);
    return Status::success();
}

Status make_wake_pipe(Fd& read_end, Fd& write_end) {
    int fds[2];
    if (::pipe(fds) != 0) {
        return errno_status("pipe");
    }
    read_end = Fd(fds[0]);
    write_end = Fd(fds[1]);
    for (const int fd : fds) {
        (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
        if (const Status st = set_nonblocking(fd); !st.ok()) {
            return st;
        }
    }
    return Status::success();
}

void wake(int write_fd) noexcept {
    const unsigned char byte = 1;
    // Single attempt, no EINTR loop: signal handlers must not spin, and a
    // full pipe means the loop is already waking.
    (void)::write(write_fd, &byte, 1);
}

void drain_wake(int read_fd) noexcept {
    unsigned char sink[64];
    for (;;) {
        const ssize_t n = ::read(read_fd, sink, sizeof(sink));
        if (n > 0) {
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return;  // EAGAIN (drained), EOF, or a real error — all terminal
    }
}

}  // namespace gt::net

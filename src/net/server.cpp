#include "net/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "obs/export.hpp"
#include "recover/term.hpp"
#include "util/file_io.hpp"

namespace gt::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Compact the parsed prefix of a read buffer once it crosses this size —
/// below it, the memmove costs more than the memory it reclaims.
constexpr std::size_t kCompactThreshold = 64 * 1024;
/// Error messages are operator-facing, not a transport for bulk data.
constexpr std::size_t kMaxErrorMessage = 512;
/// Frames parsed+executed per connection per loop wake — fairness bound so
/// one pipelining client cannot starve the rest.
constexpr std::size_t kParseBudget = 64;
/// Target size of one shipped-WAL frame: large enough to amortize framing,
/// small enough that a follower never waits long behind one frame.
constexpr std::size_t kShipChunkBytes = 256 * 1024;
/// Per-record overhead inside a ship frame: u64 seq | u8 type | u32 len.
constexpr std::size_t kShipRecordOverhead = 13;
/// Hard ceiling for the records section of one ship frame (the outer
/// u64 term | u64 primary_seq | u32 count and the frame header need the
/// rest).
constexpr std::size_t kShipBudget = kMaxFramePayload - 64;
/// start() refuses larger reader pools before run() could spawn them.
constexpr std::size_t kMaxReaderThreads = 256;

/// Loop verbs that mutate store state and therefore need the exclusive
/// state lock. Subscribe/SubAck/Hello only touch loop-private follower
/// bookkeeping, so they run under a shared hold on the loop.
[[nodiscard]] bool needs_exclusive_lock(std::uint8_t type) noexcept {
    return type == static_cast<std::uint8_t>(MsgType::InsertBatch) ||
           type == static_cast<std::uint8_t>(MsgType::DeleteBatch) ||
           type == static_cast<std::uint8_t>(MsgType::Checkpoint) ||
           type == static_cast<std::uint8_t>(MsgType::Sync);
}

[[nodiscard]] bool is_loop_verb(std::uint8_t type) noexcept {
    return needs_exclusive_lock(type) ||
           type == static_cast<std::uint8_t>(MsgType::Subscribe) ||
           type == static_cast<std::uint8_t>(MsgType::SubAck) ||
           type == static_cast<std::uint8_t>(MsgType::Hello);
}

[[nodiscard]] bool is_read_verb(std::uint8_t type) noexcept {
    return type == static_cast<std::uint8_t>(MsgType::Degree) ||
           type == static_cast<std::uint8_t>(MsgType::Neighbors) ||
           type == static_cast<std::uint8_t>(MsgType::Bfs) ||
           type == static_cast<std::uint8_t>(MsgType::Sssp) ||
           type == static_cast<std::uint8_t>(MsgType::Cc) ||
           type == static_cast<std::uint8_t>(MsgType::EdgeCount) ||
           type == static_cast<std::uint8_t>(MsgType::StatsJson);
}

}  // namespace

// ---------------------------------------------------------------------------
// Poller — poll(2) over one pollfd per watched fd. The loop watches the
// listen socket, the wake pipe and at most max_conns connections, so a scan
// is short; add/mod/del keep the array current and wait() allocates
// nothing. Level-triggered: the loop re-arms nothing, it just leaves unread
// bytes in the kernel buffer and gets woken again.

class Server::Poller {
public:
    struct Event {
        int fd = -1;
        bool readable = false;
        bool writable = false;
        bool error = false;
    };

    void add(int fd, bool want_write) {
        pollfd p{};
        p.fd = fd;
        p.events = events_for(want_write);
        fds_.push_back(p);
    }

    void mod(int fd, bool want_write) {
        if (pollfd* p = find(fd); p != nullptr) {
            p->events = events_for(want_write);
        }
    }

    void del(int fd) {
        if (pollfd* p = find(fd); p != nullptr) {
            *p = fds_.back();
            fds_.pop_back();
        }
    }

    /// Blocks until at least one event; EINTR retries (the event loop
    /// discipline — a signal must wake stop(), not kill the wait).
    [[nodiscard]] Status wait(std::vector<Event>& out) {
        out.clear();
        while (::poll(fds_.data(), fds_.size(), -1) < 0) {
            if (errno != EINTR) {
                return Status{StatusCode::IoError,
                              std::string{"poll failed: "} +
                                  std::strerror(errno)};
            }
        }
        for (const pollfd& p : fds_) {
            if (p.revents == 0) {
                continue;
            }
            Event e;
            e.fd = p.fd;
            e.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
            e.writable = (p.revents & POLLOUT) != 0;
            e.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
            out.push_back(e);
        }
        return Status::success();
    }

private:
    [[nodiscard]] static short events_for(bool want_write) noexcept {
        return static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
    }

    [[nodiscard]] pollfd* find(int fd) noexcept {
        for (pollfd& p : fds_) {
            if (p.fd == fd) {
                return &p;
            }
        }
        return nullptr;
    }

    std::vector<pollfd> fds_;
};

// ---------------------------------------------------------------------------
// ReaderPool — the shared-lock analytics pool. Workers pull read tasks,
// take the graph's state lock shared, and run the verb; once the hold is
// released the result rides a Done message back to the loop, which also
// drains the graph's deferred mutations. A task against a graph with
// deferred mutations parks (same mu_ hold as the dequeue — the unpark in
// drain_deferred cannot miss it), which is what stops readers from starving
// writers through glibc's reader-preferring shared_mutex.

class Server::ReaderPool {
public:
    ReaderPool(Server& server, std::size_t threads)
        : server_(server), count_(threads) {}

    void start() {
        threads_.reserve(count_);
        for (std::size_t i = 0; i < count_; ++i) {
            threads_.emplace_back([this] { worker(); });
        }
    }

    void submit(GraphEntry* graph, std::uint64_t conn_id, const Frame& req) {
        {
            gt::LockGuard lk(mu_);
            queue_.push_back(Task{graph, conn_id, req});
        }
        cv_.notify_one();
    }

    /// Re-queues tasks parked on `graph` (called after its deferred
    /// mutations drained).
    void unpark(GraphEntry* graph) {
        bool moved = false;
        {
            gt::LockGuard lk(mu_);
            auto it = parked_.begin();
            while (it != parked_.end()) {
                if (it->graph == graph) {
                    queue_.push_back(std::move(*it));
                    it = parked_.erase(it);
                    moved = true;
                } else {
                    ++it;
                }
            }
        }
        if (moved) {
            cv_.notify_all();
        }
    }

    void stop_and_join() {
        {
            gt::LockGuard lk(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (std::thread& t : threads_) {
            if (t.joinable()) {
                t.join();
            }
        }
        threads_.clear();
    }

private:
    struct Task {
        GraphEntry* graph = nullptr;
        std::uint64_t conn_id = 0;
        Frame req;
    };

    void worker() {
        for (;;) {
            Task t;
            bool have = false;
            {
                gt::UniqueLock lk(mu_);
                while (queue_.empty() && !stopping_) {
                    cv_.wait(lk);
                }
                if (queue_.empty()) {
                    return;  // stopping, drained
                }
                t = std::move(queue_.front());
                queue_.pop_front();
                if (t.graph->has_deferred.load()) {
                    parked_.push_back(std::move(t));
                } else {
                    have = true;
                }
            }
            if (!have) {
                continue;
            }
            LoopMsg done;
            done.graph = t.graph;
            done.conn_id = t.conn_id;
            {
                gt::SharedLockGuard g(t.graph->state_lock);
                server_.execute_read(t.graph, t.req, done.reply);
            }
            // Posted after the release: this hold may have been the one a
            // deferred mutation waited on, and the loop drains on a Done.
            server_.post(std::move(done));
        }
    }

    Server& server_;
    std::size_t count_ = 0;
    gt::Mutex mu_;
    gt::CondVar cv_;
    std::deque<Task> queue_ GT_GUARDED_BY(mu_);
    std::vector<Task> parked_ GT_GUARDED_BY(mu_);
    bool stopping_ GT_GUARDED_BY(mu_) = false;
    std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Lifecycle

Server::Server() = default;
Server::~Server() = default;

void Server::bind_metrics() {
    obs::Registry& r = *registry_;
    accepted_m_ = &r.counter("net.conns_accepted");
    closed_m_ = &r.counter("net.conns_closed");
    frames_rx_m_ = &r.counter("net.frames_rx");
    frames_tx_m_ = &r.counter("net.frames_tx");
    bytes_rx_m_ = &r.counter("net.bytes_rx");
    bytes_tx_m_ = &r.counter("net.bytes_tx");
    busy_shed_m_ = &r.counter("net.busy_shed");
    bad_frames_m_ = &r.counter("net.bad_frames");
    errors_tx_m_ = &r.counter("net.errors_tx");
    deferred_m_ = &r.counter("net.deferred_ops");
    shipped_m_ = &r.counter("net.wal_frames_shipped");
    conns_gauge_ = &r.gauge("net.open_conns");
    wbuf_gauge_ = &r.gauge("net.wbuf_bytes");
    graphs_gauge_ = &r.gauge("net.open_graphs");
    subs_gauge_ = &r.gauge("net.subscribers");
    role_gauge_ = &r.gauge("net.role");
    term_gauge_ = &r.gauge("net.term");
}

void Server::update_gauges() {
    std::size_t wbuf = 0;
    for (const auto& [fd, conn] : conns_) {
        wbuf += conn->wbuf.size() - conn->wpos;
    }
    conns_gauge_->set(static_cast<double>(conns_.size()));
    wbuf_gauge_->set(static_cast<double>(wbuf));
    role_gauge_->set(read_only_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    gt::LockGuard lk(graphs_mu_);
    graphs_gauge_->set(static_cast<double>(graphs_.size()));
    std::size_t subs = 0;
    std::uint64_t max_term = 0;
    for (const auto& [name, g] : graphs_) {
        subs += g->subscribers.size();
        max_term = std::max(
            max_term, g->term.load(std::memory_order_relaxed));
    }
    subs_gauge_->set(static_cast<double>(subs));
    term_gauge_->set(static_cast<double>(max_term));
}

Status Server::start(const ServerOptions& options) {
    opts_ = options;
    if (opts_.root.empty()) {
        return Status{StatusCode::InvalidArgument,
                      "ServerOptions.root is required"};
    }
    if (opts_.loop_threads > 1) {
        return Status{StatusCode::InvalidArgument,
                      "ServerOptions.loop_threads is retired: the server "
                      "runs one event loop"};
    }
    if (opts_.reader_threads > kMaxReaderThreads) {
        return Status{StatusCode::InvalidArgument,
                      "ServerOptions.reader_threads exceeds " +
                          std::to_string(kMaxReaderThreads)};
    }
    opts_.max_inflight = std::max<std::size_t>(opts_.max_inflight, 1);
    read_only_.store(opts_.read_only, std::memory_order_relaxed);
    registry_ = opts_.registry;
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    bind_metrics();
    if (Status st = util::ensure_dir(opts_.root); !st.ok()) {
        return st;
    }
    if (Status st = make_wake_pipe(wake_r_, wake_w_); !st.ok()) {
        return st;
    }
    if (Status st = tcp_listen(opts_.host, opts_.port, listen_fd_, port_);
        !st.ok()) {
        return st;
    }
    if (Status st = set_nonblocking(listen_fd_.get()); !st.ok()) {
        return st;
    }
    poller_ = std::make_unique<Poller>();
    poller_->add(listen_fd_.get(), false);
    poller_->add(wake_r_.get(), false);
    if (opts_.reader_threads > 0) {
        readers_ = std::make_unique<ReaderPool>(*this, opts_.reader_threads);
    }
    return Status::success();
}

void Server::stop() noexcept {
    stopping_.store(true);
    if (wake_w_.valid()) {
        wake(wake_w_.get());
    }
}

Status Server::run() {
    if (poller_ == nullptr) {
        return Status{StatusCode::InvalidArgument, "start() first"};
    }
    Status result;
    std::thread loop([this, &result] { result = run_loop(); });
    if (readers_ != nullptr) {
        readers_->start();
    }
    loop.join();
    // Graceful teardown: the loop has dropped its connections; stop the
    // readers, then close every store (the DurableStore close flushes
    // buffered WAL bytes; FsyncBatch syncs).
    if (readers_ != nullptr) {
        readers_->stop_and_join();
    }
    {
        gt::LockGuard lk(graphs_mu_);
        for (auto& [name, entry] : graphs_) {
            entry->store.close();
        }
        graphs_.clear();
    }
    update_gauges();
    return result;
}

// ---------------------------------------------------------------------------
// The loop

void Server::post(LoopMsg&& msg) {
    {
        gt::LockGuard lk(inbox_mu_);
        inbox_.push_back(std::move(msg));
    }
    wake(wake_w_.get());
}

Status Server::run_loop() {
    Status result;
    std::vector<Poller::Event> events;
    while (!stopping_.load()) {
        if (Status st = poller_->wait(events); !st.ok()) {
            result = st;
            break;
        }
        bool woke = false;
        for (const Poller::Event& ev : events) {
            if (ev.fd == wake_r_.get()) {
                drain_wake(wake_r_.get());
                woke = true;
                continue;
            }
            if (ev.fd == listen_fd_.get()) {
                accept_new();
                continue;
            }
            // The connection may already have been torn down by an earlier
            // event in this batch.
            if (conns_.find(ev.fd) == conns_.end()) {
                continue;
            }
            if (ev.error) {
                teardown(ev.fd);
                continue;
            }
            if (ev.writable) {
                handle_writable(ev.fd);
            }
            if (conns_.find(ev.fd) != conns_.end() && ev.readable) {
                handle_readable(ev.fd);
            }
        }
        if (woke) {
            process_inbox();
        }
        drain_pending();
        flush_all();
        update_gauges();
    }
    stopping_.store(true);  // a poller failure stops the server too
    while (!conns_.empty()) {
        teardown(conns_.begin()->first);
    }
    return result;
}

void Server::accept_new() {
    for (;;) {
        const int fd = accept_retry(listen_fd_.get());
        if (fd < 0) {
            return;  // EAGAIN (drained) or transient accept failure
        }
        accepted_m_->inc();
        Fd sock(fd);
        if (conns_.size() >= opts_.max_conns) {
            // Over the connection cap: one best-effort Busy frame so a
            // well-behaved client backs off, then close.
            busy_shed_m_->inc();
            PayloadWriter w;
            w.u16(static_cast<std::uint16_t>(WireCode::Busy));
            w.str("connection limit reached; retry later");
            std::vector<unsigned char> frame;
            encode_frame(frame, kErrorType, 0, w.span());
            std::size_t sent = 0;
            (void)send_some(fd, frame.data(), frame.size(), sent);
            closed_m_->inc();
            continue;
        }
        if (!set_nonblocking(fd).ok()) {
            closed_m_->inc();
            continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = std::move(sock);
        conn->id = next_conn_id_++;
        poller_->add(fd, false);
        by_id_.emplace(conn->id, conn.get());
        conns_.emplace(fd, std::move(conn));
    }
}

void Server::process_inbox() {
    std::vector<LoopMsg> msgs;
    {
        gt::LockGuard lk(inbox_mu_);
        msgs.swap(inbox_);
    }
    for (LoopMsg& m : msgs) {
        switch (m.kind) {
            case LoopMsg::Kind::Done:
                // The reader has released its hold: the mutations queued
                // behind it run before its reply goes out.
                if (m.graph->has_deferred.load()) {
                    drain_deferred(m.graph);
                }
                deliver(m.conn_id, std::move(m.reply), 1);
                break;
            case LoopMsg::Kind::Pump:
                pump_subscribers(m.graph);
                break;
        }
    }
}

void Server::teardown(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) {
        return;
    }
    Conn& conn = *it->second;
    for (GraphEntry* g : conn.subscribed) {
        drop_subscriber(g, conn.id);
    }
    poller_->del(fd);
    by_id_.erase(conn.id);
    conns_.erase(it);  // Fd destructor closes
    closed_m_->inc();
}

void Server::maybe_finish(Conn& conn) {
    if (conn.closing && conn.wpos == conn.wbuf.size() &&
        conn.pending == 0) {
        teardown(conn.fd.get());
    }
}

void Server::handle_readable(int fd) {
    Conn& conn = *conns_.at(fd);
    bool peer_done = false;
    for (;;) {
        const std::size_t base = conn.rbuf.size();
        // Cap the buffered request bytes: header + payload cap + one read
        // chunk of slack. A peer that streams past an unread frame this
        // large is either broken or hostile.
        if (base - conn.rpos > kFrameHeaderBytes + kMaxFramePayload) {
            teardown(fd);
            return;
        }
        conn.rbuf.resize(base + kReadChunk);
        std::size_t n = 0;
        const IoResult got =
            recv_some(conn.fd.get(), conn.rbuf.data() + base, kReadChunk, n);
        conn.rbuf.resize(base + n);
        if (got == IoResult::Ok) {
            bytes_rx_m_->add(n);
            continue;
        }
        if (got == IoResult::WouldBlock) {
            break;
        }
        if (got == IoResult::Closed) {
            // Half-close: the peer may still be reading responses to the
            // requests it already pipelined — answer them, flush, close.
            peer_done = true;
            break;
        }
        teardown(fd);
        return;
    }
    parse_and_execute(conn);
    if (peer_done) {
        conn.closing = true;
    }
    if (!flush_conn(conn)) {
        teardown(fd);
        return;
    }
    maybe_finish(conn);
}

void Server::handle_writable(int fd) {
    Conn& conn = *conns_.at(fd);
    if (!flush_conn(conn)) {
        teardown(fd);
        return;
    }
    maybe_finish(conn);
}

bool Server::flush_conn(Conn& conn) {
    while (conn.wpos < conn.wbuf.size()) {
        std::size_t n = 0;
        const IoResult sent =
            send_some(conn.fd.get(), conn.wbuf.data() + conn.wpos,
                      conn.wbuf.size() - conn.wpos, n);
        if (sent == IoResult::Ok) {
            conn.wpos += n;
            bytes_tx_m_->add(n);
            continue;
        }
        if (sent == IoResult::WouldBlock) {
            if (!conn.want_write) {
                conn.want_write = true;
                poller_->mod(conn.fd.get(), true);
            }
            return true;
        }
        // Closed (EPIPE/ECONNRESET — the client vanished mid-reply) or a
        // real error: either way the connection is done. MSG_NOSIGNAL in
        // send_some is what turned the SIGPIPE crash into this branch.
        return false;
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    conn.inflight = 0;
    if (conn.want_write) {
        conn.want_write = false;
        poller_->mod(conn.fd.get(), false);
    }
    return true;
}

void Server::flush_all() {
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) {
        fds.push_back(fd);
    }
    for (const int fd : fds) {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) {
            continue;
        }
        Conn& conn = *it->second;
        // A subscriber that cannot keep up with the shipped stream would
        // buffer without bound — disconnect it (it can re-subscribe from
        // its applied seq). Ordinary connections are protected by the Busy
        // shed instead; what is buffered is replies they asked for.
        if (!conn.subscribed.empty() &&
            conn.wbuf.size() - conn.wpos > opts_.max_wbuf_bytes) {
            teardown(fd);
            continue;
        }
        if (!flush_conn(conn)) {
            teardown(fd);
            continue;
        }
        maybe_finish(conn);
    }
}

void Server::parse_and_execute(Conn& conn) {
    for (std::size_t parsed = 0;
         parsed < kParseBudget && !conn.closing; ++parsed) {
        const std::span<const unsigned char> rest(
            conn.rbuf.data() + conn.rpos, conn.rbuf.size() - conn.rpos);
        Frame req;
        std::size_t consumed = 0;
        DecodeError err;
        const DecodeResult got = decode_frame(rest, req, consumed, err);
        if (got == DecodeResult::NeedMore) {
            break;
        }
        if (got == DecodeResult::Bad) {
            // The stream cannot resynchronize after a framing violation:
            // reply once (the header's request id, when it parsed, lets
            // the client pair the failure), flush, close.
            bad_frames_m_->inc();
            conn_error(conn, req.request_id, err.code, err.message);
            conn.rpos = conn.rbuf.size();
            conn.closing = true;
            break;
        }
        conn.rpos += consumed;
        frames_rx_m_->inc();
        if (stopping_.load()) {
            conn_error(conn, req.request_id, WireCode::ShuttingDown,
                       "server is shutting down");
            continue;
        }
        // Backpressure: shed (retryable Busy) instead of queueing beyond
        // the per-connection caps. `pending` counts dispatched async ops
        // whose replies have not come back yet.
        if (conn.inflight + conn.pending >= opts_.max_inflight ||
            conn.wbuf.size() - conn.wpos > opts_.max_wbuf_bytes) {
            busy_shed_m_->inc();
            conn_error(conn, req.request_id, WireCode::Busy,
                       "connection backlog full; retry");
            continue;
        }
        execute(conn, req);
    }
    // Reclaim the parsed prefix (or the whole buffer when fully consumed).
    if (conn.rpos == conn.rbuf.size()) {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if (conn.rpos > kCompactThreshold) {
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.rpos));
        conn.rpos = 0;
    }
}

void Server::drain_pending() {
    // Passes repeat until no connection consumes anything: each pass gives
    // every connection at most kParseBudget frames, so one deep pipeline
    // cannot starve the others within a pass.
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<int> fds;
        fds.reserve(conns_.size());
        for (const auto& [fd, conn] : conns_) {
            fds.push_back(fd);
        }
        for (const int fd : fds) {
            const auto it = conns_.find(fd);
            if (it == conns_.end()) {
                continue;  // torn down earlier in this pass
            }
            Conn& conn = *it->second;
            const std::size_t before = conn.rbuf.size() - conn.rpos;
            if (conn.closing || before < kFrameHeaderBytes) {
                continue;
            }
            parse_and_execute(conn);
            if (!flush_conn(conn)) {
                teardown(fd);
                continue;
            }
            maybe_finish(conn);
            if (conns_.find(fd) != conns_.end() &&
                conn.rbuf.size() - conn.rpos < before) {
                progress = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reply plumbing

void Server::emit_reply(Sink& sink, const Frame& req,
                        std::span<const unsigned char> payload) {
    encode_frame(sink.bytes,
                 static_cast<std::uint8_t>(req.type | kResponseBit),
                 req.request_id, payload);
    frames_tx_m_->inc();
    ++sink.frames;
}

void Server::emit_error(Sink& sink, std::uint64_t request_id, WireCode code,
                        std::string_view message) {
    PayloadWriter w;
    w.u16(static_cast<std::uint16_t>(code));
    w.str(message.substr(0, kMaxErrorMessage));
    encode_frame(sink.bytes, kErrorType, request_id, w.span());
    frames_tx_m_->inc();
    errors_tx_m_->inc();
    ++sink.frames;
}

void Server::append_sink(Conn& conn, Sink&& sink) {
    if (sink.sub_graph != nullptr) {
        conn.subscribed.push_back(sink.sub_graph);
    }
    if (sink.bytes.empty()) {
        return;
    }
    conn.wbuf.insert(conn.wbuf.end(), sink.bytes.begin(), sink.bytes.end());
    conn.inflight += sink.frames;
}

void Server::conn_error(Conn& conn, std::uint64_t request_id, WireCode code,
                        std::string_view message) {
    Sink sink;
    emit_error(sink, request_id, code, message);
    append_sink(conn, std::move(sink));
}

void Server::deliver(std::uint64_t conn_id, Sink&& sink,
                     std::size_t ops_done) {
    const auto it = by_id_.find(conn_id);
    if (it == by_id_.end()) {
        return;  // the connection died while the op was in flight
    }
    Conn& conn = *it->second;
    conn.pending -= std::min(ops_done, conn.pending);
    append_sink(conn, std::move(sink));
}

// ---------------------------------------------------------------------------
// Graph registry

Server::GraphEntry* Server::find_graph(const std::string& name) {
    gt::LockGuard lk(graphs_mu_);
    const auto it = graphs_.find(name);
    return it == graphs_.end() ? nullptr : it->second.get();
}

void Server::pump_graph(const std::string& name) {
    if (stopping_.load(std::memory_order_relaxed)) {
        return;
    }
    GraphEntry* g = find_graph(name);
    if (g == nullptr) {
        return;
    }
    LoopMsg m;
    m.kind = LoopMsg::Kind::Pump;
    m.graph = g;
    post(std::move(m));
}

Status Server::open_entry(const std::string& name, std::uint8_t mode,
                          GraphEntry*& out) {
    gt::LockGuard lk(graphs_mu_);
    const auto it = graphs_.find(name);
    if (it != graphs_.end()) {
        out = it->second.get();
        return Status::success();
    }
    const std::string dir = opts_.root + "/" + name;
    auto fresh = std::make_unique<GraphEntry>();
    recover::DurableOptions dopts;
    dopts.mode = mode == 0     ? recover::DurabilityMode::Off
                 : mode == 1   ? recover::DurabilityMode::Buffered
                 : mode == 2   ? recover::DurabilityMode::FsyncBatch
                               : opts_.durability;  // 255: server default
    recover::RecoveryInfo info;
    if (Status st = fresh->store.open(dir, dopts, &info); !st.ok()) {
        return st;
    }
    std::uint64_t term = 0;
    if (Status st = recover::load_term(dir, term); !st.ok()) {
        return st;  // a malformed fence must never silently read as 0
    }
    fresh->term.store(term, std::memory_order_relaxed);
    fresh->name = name;
    fresh->recovery_source = static_cast<std::uint8_t>(info.source);
    fresh->mode = dopts.mode;
    out = graphs_.emplace(name, std::move(fresh)).first->second.get();
    return Status::success();
}

Status Server::promote_local(const std::string& name,
                             std::uint64_t new_term) {
    GraphEntry* g = find_graph(name);
    if (g == nullptr) {
        return Status{StatusCode::InvalidArgument,
                      "graph '" + name + "' is not open"};
    }
    const std::uint64_t cur = g->term.load(std::memory_order_relaxed);
    if (new_term <= cur) {
        return Status{StatusCode::InvalidArgument,
                      "promotion term " + std::to_string(new_term) +
                          " does not exceed current term " +
                          std::to_string(cur),
                      cur};
    }
    // Durable before visible: if we crash here, recovery reads the bumped
    // term from the sidecar; the reverse order could serve writes under a
    // term that evaporates on power loss.
    if (Status st = recover::store_term(g->store.dir(), new_term);
        !st.ok()) {
        return st;
    }
    g->term.store(new_term, std::memory_order_relaxed);
    g->stale.store(false, std::memory_order_relaxed);
    return Status::success();
}

Status Server::open_local(const std::string& name, LocalGraph& out) {
    if (poller_ == nullptr) {
        return Status{StatusCode::InvalidArgument, "start() first"};
    }
    if (!validate_graph_name(name)) {
        return Status{StatusCode::InvalidArgument,
                      "graph names are [A-Za-z0-9_-]{1,64}, alnum first"};
    }
    GraphEntry* entry = nullptr;
    if (Status st = open_entry(name, 255, entry); !st.ok()) {
        return st;
    }
    out.store = &entry->store;
    out.lock = &entry->state_lock;
    return Status::success();
}

void Server::handle_open_graph(Conn& conn, const Frame& req) {
    PayloadReader r(req.payload);
    const std::string name = r.str();
    const std::uint8_t mode = r.u8();
    if (!r.ok() || !r.exhausted() || (mode > 2 && mode != 255)) {
        conn_error(conn, req.request_id, WireCode::BadPayload,
                   "OpenGraph payload: name | u8 durability(0..2, 255)");
        return;
    }
    if (!validate_graph_name(name)) {
        conn_error(conn, req.request_id, WireCode::BadGraphName,
                   "graph names are [A-Za-z0-9_-]{1,64}, alnum first");
        return;
    }
    GraphEntry* entry = nullptr;
    if (Status st = open_entry(name, mode, entry); !st.ok()) {
        conn_error(conn, req.request_id, wire_code_of(st), st.to_string());
        return;
    }
    PayloadWriter w;
    w.u8(entry->recovery_source);
    Sink sink;
    emit_reply(sink, req, w.span());
    append_sink(conn, std::move(sink));
}

// ---------------------------------------------------------------------------
// Request routing

void Server::execute(Conn& conn, const Frame& req) {
    if (req.type == static_cast<std::uint8_t>(MsgType::Ping)) {
        Sink sink;
        emit_reply(sink, req, req.payload);
        append_sink(conn, std::move(sink));
        return;
    }
    if (req.type == static_cast<std::uint8_t>(MsgType::OpenGraph)) {
        handle_open_graph(conn, req);
        return;
    }
    if (!is_loop_verb(req.type) && !is_read_verb(req.type)) {
        conn_error(conn, req.request_id, WireCode::UnknownType,
                   "unknown request type " + std::to_string(req.type));
        return;
    }
    // Everything from here is graph-scoped: the payload starts with the
    // name.
    PayloadReader r(req.payload);
    const std::string name = r.str();
    if (!r.ok()) {
        conn_error(conn, req.request_id, WireCode::BadPayload,
                   "graph-scoped payloads start with the graph name");
        return;
    }
    // Only the *exclusive* verbs are a primary's privilege: a read-only
    // replica still answers Subscribe/SubAck/Hello, which is what lets it
    // feed a downstream replica (chains) and report its role.
    if (needs_exclusive_lock(req.type) &&
        read_only_.load(std::memory_order_relaxed)) {
        conn_error(conn, req.request_id, WireCode::ReadOnly,
                   "read-only replica; route mutations to the primary");
        return;
    }
    GraphEntry* g = find_graph(name);
    if (g == nullptr) {
        conn_error(conn, req.request_id,
                   validate_graph_name(name) ? WireCode::UnknownGraph
                                             : WireCode::BadGraphName,
                   "graph '" + name + "' is not open (OpenGraph first)");
        return;
    }
    // A fenced graph (a higher term exists elsewhere) refuses mutations —
    // the split-brain guard. Reads stay up: stale data is labeled, not
    // hidden (Hello reports the fence).
    if (needs_exclusive_lock(req.type) &&
        g->stale.load(std::memory_order_relaxed)) {
        conn_error(conn, req.request_id, WireCode::StaleTerm,
                   "term " + std::to_string(g->term.load()) +
                       " is fenced: a higher-term primary exists; find it");
        return;
    }
    if (is_loop_verb(req.type)) {
        ++conn.pending;
        execute_on_loop(g, conn.id, req);
        return;
    }
    // Read verb.
    if (readers_ != nullptr) {
        ++conn.pending;
        readers_->submit(g, conn.id, req);
        return;
    }
    Sink sink;
    {
        gt::SharedLockGuard lk(g->state_lock);
        execute_read(g, req, sink);
    }
    if (g->has_deferred.load()) {
        drain_deferred(g);
    }
    append_sink(conn, std::move(sink));
}

// ---------------------------------------------------------------------------
// Loop verbs

void Server::execute_on_loop(GraphEntry* g, std::uint64_t conn_id,
                             const Frame& req) {
    DeferredOp op;
    op.conn_id = conn_id;
    op.req = req;
    if (!needs_exclusive_lock(req.type)) {
        // Subscribe/SubAck/Hello: loop-private bookkeeping, but held shared
        // against the state lock — on a chained replica a Replicator thread
        // appends to the WAL these verbs read (durable_seq, tailer open)
        // under the exclusive lock.
        Sink sink;
        {
            gt::SharedLockGuard lk(g->state_lock);
            execute_loop_op(g, op, sink);
        }
        deliver(conn_id, std::move(sink), 1);
        pump_subscribers(g);
        return;
    }
    if (g->has_deferred.load() || !g->state_lock.try_lock()) {
        // Readers hold the lock (or earlier ops already queued): keep FIFO
        // order. Every pool reader posts its Done after releasing, so the
        // hold that failed this try_lock brings the loop back to drain.
        g->deferred.push_back(std::move(op));
        g->has_deferred.store(true);
        deferred_m_->inc();
        drain_deferred(g);
        return;
    }
    Sink sink;
    execute_loop_op(g, op, sink);
    g->state_lock.unlock();
    deliver(conn_id, std::move(sink), 1);
    pump_subscribers(g);
}

void Server::drain_deferred(GraphEntry* g) {
    while (!g->deferred.empty()) {
        if (!g->state_lock.try_lock()) {
            return;  // a reader is still in; its Done drains again
        }
        std::vector<std::pair<DeferredOp, Sink>> done;
        while (!g->deferred.empty()) {
            DeferredOp op = std::move(g->deferred.front());
            g->deferred.pop_front();
            Sink sink;
            execute_loop_op(g, op, sink);
            done.emplace_back(std::move(op), std::move(sink));
        }
        g->state_lock.unlock();
        for (auto& [op, sink] : done) {
            deliver(op.conn_id, std::move(sink), 1);
        }
        pump_subscribers(g);
    }
    g->has_deferred.store(false);
    if (readers_ != nullptr) {
        readers_->unpark(g);
    }
}

void Server::execute_loop_op(GraphEntry* g, const DeferredOp& op,
                             Sink& sink) {
    const Frame& req = op.req;
    switch (req.type) {
        case static_cast<std::uint8_t>(MsgType::InsertBatch):
        case static_cast<std::uint8_t>(MsgType::DeleteBatch): {
            PayloadReader r(req.payload);
            (void)r.str();  // name, validated by the router
            const std::uint32_t n = r.u32();
            if (!r.ok() || r.remaining() != static_cast<std::size_t>(n) * 3 *
                                                sizeof(VertexId)) {
                emit_error(sink, req.request_id, WireCode::BadPayload,
                           "mutation payload: name | u32 n | n edges");
                return;
            }
            std::vector<Edge> edges(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                edges[i].src = r.u32();
                edges[i].dst = r.u32();
                edges[i].weight = r.u32();
            }
            core::GraphTinker& graph = g->store.graph();
            const Status st =
                req.type == static_cast<std::uint8_t>(MsgType::InsertBatch)
                    ? graph.insert_batch(edges)
                    : graph.delete_batch(edges);
            if (!st.ok()) {
                emit_error(sink, req.request_id, wire_code_of(st),
                           st.to_string());
                return;
            }
            PayloadWriter w;
            w.u64(graph.num_edges());
            emit_reply(sink, req, w.span());
            return;
        }
        case static_cast<std::uint8_t>(MsgType::Checkpoint):
            handle_checkpoint(g, op, sink);
            return;
        case static_cast<std::uint8_t>(MsgType::Sync): {
            PayloadReader r(req.payload);
            (void)r.str();
            if (!r.ok() || !r.exhausted()) {
                emit_error(sink, req.request_id, WireCode::BadPayload,
                           "Sync payload is just the graph name");
                return;
            }
            if (const Status st = g->store.sync(); !st.ok()) {
                emit_error(sink, req.request_id, wire_code_of(st),
                           st.to_string());
                return;
            }
            emit_reply(sink, req, {});
            return;
        }
        case static_cast<std::uint8_t>(MsgType::Subscribe):
            handle_subscribe(g, op, sink);
            return;
        case static_cast<std::uint8_t>(MsgType::SubAck):
            handle_sub_ack(g, op, sink);
            return;
        case static_cast<std::uint8_t>(MsgType::Hello):
            handle_hello(g, op, sink);
            return;
        default:
            emit_error(sink, req.request_id, WireCode::Internal,
                       "read verb routed to the loop");
            return;
    }
}

void Server::handle_hello(GraphEntry* g, const DeferredOp& op, Sink& sink) {
    PayloadReader r(op.req.payload);
    (void)r.str();  // name
    const std::uint64_t known_term = r.u64();
    if (!r.ok() || !r.exhausted()) {
        emit_error(sink, op.req.request_id, WireCode::BadPayload,
                   "Hello payload: name | u64 known_term");
        return;
    }
    const std::uint64_t cur = g->term.load(std::memory_order_relaxed);
    if (known_term > cur) {
        // The caller has witnessed a promotion this server missed: fence
        // the graph for good. This is exactly how a client that saw the
        // new primary protects itself from a resurrected old one.
        g->stale.store(true, std::memory_order_relaxed);
    }
    if (g->stale.load(std::memory_order_relaxed)) {
        emit_error(sink, op.req.request_id, WireCode::StaleTerm,
                   "term " + std::to_string(cur) + " is fenced (caller knows "
                       "term " + std::to_string(known_term) +
                       "); find the current primary");
        return;
    }
    const bool replica = read_only_.load(std::memory_order_relaxed);
    PayloadWriter w;
    w.u8(replica ? kRoleReplica : kRolePrimary);
    w.u64(cur);
    w.u64(g->mode == recover::DurabilityMode::Off
              ? 0
              : g->store.wal().durable_seq());
    w.u64(replica ? replication_lag_.load(std::memory_order_relaxed) : 0);
    emit_reply(sink, op.req, w.span());
}

void Server::handle_subscribe(GraphEntry* g, const DeferredOp& op,
                              Sink& sink) {
    PayloadReader r(op.req.payload);
    (void)r.str();  // name
    const std::uint64_t from_seq = r.u64();
    const std::uint64_t sub_term = r.u64();
    if (!r.ok() || !r.exhausted()) {
        emit_error(sink, op.req.request_id, WireCode::BadPayload,
                   "Subscribe payload: name | u64 from_seq | u64 term");
        return;
    }
    if (sub_term > g->term.load(std::memory_order_relaxed)) {
        // A subscriber from a newer history must never be fed ours.
        g->stale.store(true, std::memory_order_relaxed);
    }
    if (g->stale.load(std::memory_order_relaxed)) {
        emit_error(sink, op.req.request_id, WireCode::StaleTerm,
                   "term " + std::to_string(g->term.load()) +
                       " is fenced; subscribe to the current primary");
        return;
    }
    if (g->mode == recover::DurabilityMode::Off) {
        emit_error(sink, op.req.request_id, WireCode::WalError,
                   "subscribe requires a durable graph (durability off "
                   "keeps no WAL)");
        return;
    }
    auto tailer = std::make_unique<recover::WalTailer>();
    if (Status st = tailer->open(g->store.wal_path(), from_seq); !st.ok()) {
        emit_error(sink, op.req.request_id, wire_code_of(st),
                   st.to_string());
        return;
    }
    std::uint64_t floor = tailer->first_seq();
    if (floor == 0) {
        floor = g->store.wal().next_seq();  // fresh/pruned log, no records
    }
    if (from_seq + 1 < floor) {
        emit_error(sink, op.req.request_id, WireCode::SeqUnavailable,
                   "primary WAL starts at seq " + std::to_string(floor) +
                       "; from_seq " + std::to_string(from_seq) +
                       " was pruned — re-seed from a snapshot");
        return;
    }
    PayloadWriter w;
    w.u64(floor);
    w.u64(g->store.wal().durable_seq());
    w.u64(g->term.load(std::memory_order_relaxed));
    emit_reply(sink, op.req, w.span());
    sink.sub_graph = g;
    Subscriber sub;
    sub.conn_id = op.conn_id;
    sub.request_id = op.req.request_id;
    sub.sent_seq = from_seq;
    sub.acked_seq = from_seq;
    sub.tailer = std::move(tailer);
    g->subscribers.push_back(std::move(sub));
}

void Server::handle_sub_ack(GraphEntry* g, const DeferredOp& op,
                            Sink& sink) {
    PayloadReader r(op.req.payload);
    (void)r.str();  // name
    const std::uint64_t acked = r.u64();
    if (!r.ok() || !r.exhausted()) {
        emit_error(sink, op.req.request_id, WireCode::BadPayload,
                   "SubAck payload: name | u64 acked_seq");
        return;
    }
    bool found = false;
    for (Subscriber& sub : g->subscribers) {
        if (sub.conn_id == op.conn_id) {
            sub.acked_seq = std::max(sub.acked_seq, acked);
            while (!sub.unacked.empty() &&
                   sub.unacked.front().first <= sub.acked_seq) {
                sub.unacked_bytes -= sub.unacked.front().second;
                sub.unacked.pop_front();
            }
            found = true;
        }
    }
    if (!found) {
        emit_error(sink, op.req.request_id, WireCode::BadPayload,
                   "no subscription on this connection");
        return;
    }
    emit_reply(sink, op.req, {});
}

void Server::handle_checkpoint(GraphEntry* g, const DeferredOp& op,
                               Sink& sink) {
    PayloadReader r(op.req.payload);
    (void)r.str();
    if (!r.ok() || !r.exhausted()) {
        emit_error(sink, op.req.request_id, WireCode::BadPayload,
                   "Checkpoint payload is just the graph name");
        return;
    }
    if (const Status st = g->store.checkpoint(); !st.ok()) {
        emit_error(sink, op.req.request_id, wire_code_of(st),
                   st.to_string());
        return;
    }
    // The checkpoint/prune fence: with followers attached, the WAL may be
    // pruned only once every follower has acked everything the snapshot
    // covers — otherwise a lagging follower's unshipped records would be
    // destroyed. Without followers the WAL is kept (the historical
    // behavior: prune stays an explicit, separate decision).
    if (!g->subscribers.empty() &&
        g->mode != recover::DurabilityMode::Off) {
        const std::uint64_t durable = g->store.wal().durable_seq();
        bool fenced = false;
        for (const Subscriber& sub : g->subscribers) {
            // Unshipped records are unacked whatever the follower claims.
            if (std::min(sub.acked_seq, sub.sent_seq) < durable) {
                fenced = true;
                break;
            }
        }
        if (!fenced) {
            if (const Status st = g->store.prune_wal(); !st.ok()) {
                emit_error(sink, op.req.request_id, wire_code_of(st),
                           st.to_string());
                return;
            }
            // The prune rewrote the log file and orphaned every tailer fd;
            // reopen each at its shipped position (== durable, thanks to
            // the fence) on the fresh log.
            auto it = g->subscribers.begin();
            while (it != g->subscribers.end()) {
                it->tailer = std::make_unique<recover::WalTailer>();
                if (Status st = it->tailer->open(g->store.wal_path(),
                                                 it->sent_seq);
                    !st.ok()) {
                    Sink err;
                    emit_error(err, it->request_id, wire_code_of(st),
                               "subscription lost across WAL prune: " +
                                   st.to_string());
                    deliver(it->conn_id, std::move(err), 0);
                    it = g->subscribers.erase(it);
                    continue;
                }
                ++it;
            }
        }
    }
    emit_reply(sink, op.req, {});
}

void Server::pump_subscribers(GraphEntry* g) {
    if (g->subscribers.empty()) {
        return;
    }
    // Shared against the graph's state lock: on a chained replica the
    // Replicator thread appends to this WAL (under the exclusive lock)
    // while we tail it here — never concurrently, or the tailer could see
    // a torn record and durable_seq would be read mid-update. Callers on
    // the exclusive path release the lock before pumping.
    gt::SharedLockGuard lk(g->state_lock);
    if (g->stale.load(std::memory_order_relaxed)) {
        // A fenced history must not keep feeding followers: end every
        // stream loudly so each follower re-subscribes to the new primary.
        for (Subscriber& sub : g->subscribers) {
            Sink err;
            emit_error(err, sub.request_id, WireCode::StaleTerm,
                       "upstream term " + std::to_string(g->term.load()) +
                           " is fenced; re-subscribe to the current primary");
            deliver(sub.conn_id, std::move(err), 0);
        }
        g->subscribers.clear();
        return;
    }
    const std::uint64_t term = g->term.load(std::memory_order_relaxed);
    const std::uint64_t primary_seq = g->store.wal().durable_seq();
    // Flow control: ship at most about half the write-buffer cap beyond a
    // subscriber's last SubAck, so a catch-up backlog streams at the
    // follower's pace instead of tripping flush_all's slow-subscriber
    // teardown. Each SubAck re-pumps (execute_on_loop). The window only
    // binds while the follower holds a closed frame it can apply and ack —
    // a batch larger than the window still streams through.
    const std::size_t window = opts_.max_wbuf_bytes / 2;
    auto it = g->subscribers.begin();
    while (it != g->subscribers.end()) {
        Subscriber& sub = *it;
        bool dropped = false;
        bool drained = false;
        while (!drained && !dropped &&
               (sub.unacked_bytes < window ||
                sub.acked_seq >= sub.closed_seq)) {
            PayloadWriter rec_w;
            std::uint32_t count = 0;
            std::uint64_t last_shipped = sub.sent_seq;
            std::uint64_t last_closed = sub.closed_seq;
            const auto add = [&](const recover::WalRecord& rec) {
                rec_w.u64(rec.seq);
                rec_w.u8(static_cast<std::uint8_t>(rec.type));
                rec_w.u32(static_cast<std::uint32_t>(rec.payload.size()));
                rec_w.bytes(rec.payload);
                last_shipped = rec.seq;
                if (recover::closes_frame(rec.type)) {
                    last_closed = rec.seq;
                }
                ++count;
            };
            if (sub.carry.has_value()) {
                add(*sub.carry);
                sub.carry.reset();
            }
            while (rec_w.span().size() < kShipChunkBytes &&
                   !sub.carry.has_value()) {
                const std::size_t got = sub.tailer->poll(
                    [&](const recover::WalRecord& rec) {
                        const std::size_t need =
                            kShipRecordOverhead + rec.payload.size();
                        if (count > 0 &&
                            rec_w.span().size() + need > kShipBudget) {
                            sub.carry = rec;  // next frame's first record
                            return;
                        }
                        add(rec);
                    },
                    1);
                if (got == 0) {
                    drained = true;
                    break;
                }
            }
            if (!sub.tailer->status().ok()) {
                Sink err;
                emit_error(err, sub.request_id, WireCode::WalError,
                           "WAL tail failed: " +
                               sub.tailer->status().to_string());
                deliver(sub.conn_id, std::move(err), 0);
                dropped = true;
                break;
            }
            if (count == 0) {
                break;  // caught up
            }
            if (rec_w.span().size() + 20 > kMaxFramePayload) {
                // A single record larger than a frame can carry cannot be
                // shipped; the follower must re-seed from a snapshot.
                Sink err;
                emit_error(err, sub.request_id, WireCode::TooLarge,
                           "WAL record exceeds the frame cap; re-seed the "
                           "replica from a snapshot");
                deliver(sub.conn_id, std::move(err), 0);
                dropped = true;
                break;
            }
            PayloadWriter w;
            w.u64(term);
            w.u64(primary_seq);
            w.u32(count);
            w.bytes(rec_w.span());
            Sink ship;
            encode_frame(
                ship.bytes,
                static_cast<std::uint8_t>(
                    static_cast<std::uint8_t>(MsgType::Subscribe) |
                    kResponseBit),
                sub.request_id, w.span(), kFlagShipData);
            // Shipped frames ride outside the request/response accounting:
            // frames = 0 keeps them from consuming the inflight budget.
            shipped_m_->inc();
            frames_tx_m_->inc();
            sub.sent_seq = last_shipped;
            sub.closed_seq = last_closed;
            sub.unacked.emplace_back(last_shipped, ship.bytes.size());
            sub.unacked_bytes += ship.bytes.size();
            deliver(sub.conn_id, std::move(ship), 0);
        }
        if (dropped) {
            it = g->subscribers.erase(it);
        } else {
            ++it;
        }
    }
}

void Server::drop_subscriber(GraphEntry* g, std::uint64_t conn_id) {
    auto it = g->subscribers.begin();
    while (it != g->subscribers.end()) {
        if (it->conn_id == conn_id) {
            it = g->subscribers.erase(it);
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------------------
// Read verbs (reader pool or inline, shared state-lock hold)

void Server::execute_read(GraphEntry* g, const Frame& req, Sink& sink) {
    PayloadReader r(req.payload);
    (void)r.str();  // name, validated by the router
    core::GraphTinker& graph = g->store.graph();
    PayloadWriter w;

    const auto finish = [&](const PayloadReader& rr) {
        if (!rr.ok() || !rr.exhausted()) {
            emit_error(sink, req.request_id, WireCode::BadPayload,
                       "malformed query payload");
            return false;
        }
        return true;
    };
    /// Shared shape of the BFS/SSSP/CC replies: k requested vertices, k
    /// property values.
    const auto run_props = [&](auto&& analysis,
                               const std::vector<VertexId>& targets) {
        analysis.run_from_scratch();
        w.u32(static_cast<std::uint32_t>(targets.size()));
        for (const VertexId v : targets) {
            w.u32(analysis.property(v));
        }
        emit_reply(sink, req, w.span());
    };
    const auto read_targets = [&](std::vector<VertexId>& out) {
        const std::uint32_t k = r.u32();
        if (!r.ok() ||
            r.remaining() != static_cast<std::size_t>(k) * sizeof(VertexId)) {
            return false;
        }
        out.resize(k);
        for (std::uint32_t i = 0; i < k; ++i) {
            out[i] = r.u32();
        }
        return true;
    };

    switch (req.type) {
        case static_cast<std::uint8_t>(MsgType::Degree): {
            const VertexId v = r.u32();
            if (!finish(r)) {
                return;
            }
            w.u64(graph.degree(v));
            emit_reply(sink, req, w.span());
            return;
        }
        case static_cast<std::uint8_t>(MsgType::Neighbors): {
            const VertexId v = r.u32();
            const std::uint32_t max = r.u32();
            if (!finish(r)) {
                return;
            }
            std::vector<std::pair<VertexId, Weight>> out;
            (void)graph.visit_out_edges(v, [&](VertexId dst, Weight wt) {
                out.emplace_back(dst, wt);
                return max == 0 || out.size() < max;
            });
            w.u32(static_cast<std::uint32_t>(out.size()));
            for (const auto& [dst, wt] : out) {
                w.u32(dst);
                w.u32(wt);
            }
            emit_reply(sink, req, w.span());
            return;
        }
        case static_cast<std::uint8_t>(MsgType::Bfs):
        case static_cast<std::uint8_t>(MsgType::Sssp): {
            const VertexId root = r.u32();
            std::vector<VertexId> targets;
            if (!read_targets(targets) || !finish(r)) {
                emit_error(sink, req.request_id, WireCode::BadPayload,
                           "payload: name | u32 root | u32 k | k targets");
                return;
            }
            if (root >= graph.num_vertices()) {
                // Past the vertex bound a root has no out-edges and reaches
                // only itself; the engine would size its arrays to it.
                w.u32(static_cast<std::uint32_t>(targets.size()));
                for (const VertexId v : targets) {
                    w.u32(v == root ? 0 : kInfDistance);
                }
                emit_reply(sink, req, w.span());
            } else if (req.type == static_cast<std::uint8_t>(MsgType::Bfs)) {
                engine::DynamicAnalysis<core::GraphTinker, engine::Bfs> a(
                    graph);
                a.set_root(root);
                run_props(a, targets);
            } else {
                engine::DynamicAnalysis<core::GraphTinker, engine::Sssp> a(
                    graph);
                a.set_root(root);
                run_props(a, targets);
            }
            return;
        }
        case static_cast<std::uint8_t>(MsgType::Cc): {
            std::vector<VertexId> targets;
            if (!read_targets(targets) || !finish(r)) {
                emit_error(sink, req.request_id, WireCode::BadPayload,
                           "payload: name | u32 k | k targets");
                return;
            }
            engine::DynamicAnalysis<core::GraphTinker, engine::Cc> a(graph);
            run_props(a, targets);
            return;
        }
        case static_cast<std::uint8_t>(MsgType::EdgeCount): {
            if (!finish(r)) {
                return;
            }
            w.u64(graph.num_edges());
            w.u64(graph.num_vertices());
            emit_reply(sink, req, w.span());
            return;
        }
        case static_cast<std::uint8_t>(MsgType::StatsJson): {
            if (!finish(r)) {
                return;
            }
            std::ostringstream os;
            obs::Exporter::write_json(os, graph.telemetry());
            const std::string json = os.str();
            if (json.size() > kMaxFramePayload - 64) {
                emit_error(sink, req.request_id, WireCode::TooLarge,
                           "stats snapshot exceeds the frame cap");
                return;
            }
            w.u32(static_cast<std::uint32_t>(json.size()));
            w.bytes(std::span<const unsigned char>(
                reinterpret_cast<const unsigned char*>(json.data()),
                json.size()));
            emit_reply(sink, req, w.span());
            return;
        }
        default:
            emit_error(sink, req.request_id, WireCode::UnknownType,
                       "unhandled query type");
            return;
    }
}

}  // namespace gt::net

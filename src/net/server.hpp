// gt serve — the networked front end over DurableStore (DESIGN.md §14/§15).
//
// Threading model (DESIGN.md §15): one event loop plus an optional reader
// pool.
//
//   - The loop is one poll(2) thread that owns the listen socket and
//     every connection: it accepts, reads, parses, runs the mutation and
//     replication verbs, and writes. With reader_threads == 0 it is the only
//     thread on the request path.
//   - Read-only verbs (Degree/Neighbors/Bfs/Sssp/Cc/EdgeCount/StatsJson)
//     run on the reader pool under a shared (reader) hold of the graph's
//     state lock, so long analytics overlap ingest and each other. With
//     reader_threads == 0 they run inline on the loop (shared hold, may
//     briefly block).
//   - Other threads reach the loop only through its inbox, a mutex-guarded
//     vector woken by a self-pipe: readers post their replies once they
//     have released the graph's lock, a replica feeder posts WAL pumps, and
//     stop() writes the pipe.
//
// Writer/reader coordination per graph: the loop never blocks behind
// readers. A mutation that cannot take the state lock immediately
// (try_lock fails, or earlier ops are already queued) joins the graph's
// deferred FIFO; each reader's reply reaches the loop after its release,
// and the loop drains the FIFO under one exclusive hold before delivering
// that reply. Queued reads for a graph with deferred mutations park until
// the drain finishes — writers cannot starve behind glibc's
// reader-preferring shared_mutex. Ordering contract:
// mutations from one connection apply in send order; a *read* pipelined
// behind an unacknowledged mutation may observe the pre-mutation state
// (wait for the mutation's reply when read-your-writes matters).
//
// WAL shipping: Subscribe registers the connection as a replication
// follower of one graph. The loop tails the graph's WAL file and streams
// committed records (kFlagShipData frames, the Subscribe request id) after
// every commit; SubAck reports the follower's applied low-water mark, and
// Checkpoint only prunes the WAL once every follower has acked what the
// snapshot covers (the checkpoint/prune fence). read_only mode turns the
// server into a serving replica: mutation verbs are refused with ReadOnly
// while an external feeder (net::Replicator via open_local()) applies the
// shipped stream.
//
// Backpressure (admission control): the per-connection in-flight cap counts
// unflushed responses *plus* dispatched-but-unanswered ops (deferred
// mutations, pool reads); the write buffer byte cap and the max_conns shed
// complete it. All caps surface as
// retryable Busy errors.
//
// Robustness: malformed, truncated, fuzzed, or oversized frames produce a
// clean error reply (or connection close for unsynchronizable streams) —
// never a crash, never a hang; a mid-batch kill is exactly the WAL crash
// contract (recovery replays the committed prefix).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/io.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "recover/durable.hpp"
#include "recover/wal.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"

namespace gt::net {

struct ServerOptions {
    /// Directory the named graphs live under (<root>/<name>/...); created
    /// if absent. Required.
    std::string root;
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; Server::port() reports the bound one.
    std::uint16_t port = 0;
    /// Default durability for graphs a client opens without a mode.
    recover::DurabilityMode durability = recover::DurabilityMode::Buffered;
    /// Retired: the server runs one event loop, and start() refuses values
    /// above 1 with InvalidArgument. Kept for callers that still set it.
    std::size_t loop_threads = 1;
    /// Reader-pool threads for the read-only verbs, at most 256; 0 runs
    /// reads inline on the loop.
    std::size_t reader_threads = 0;
    /// Refuse exclusive mutation verbs (Insert/Delete/Checkpoint/Sync) with
    /// ReadOnly (warm-replica mode: an external feeder owns the store's
    /// write side via open_local()). Subscribe/SubAck/Hello still serve, so
    /// a replica can feed downstream replicas (replica chains). Runtime-
    /// flippable via Server::set_read_only() — that is the promotion path.
    bool read_only = false;
    std::size_t max_conns = 64;
    /// Per-connection cap on unflushed responses + in-flight async ops
    /// (requests past it shed Busy).
    std::size_t max_inflight = 64;
    /// Per-connection write-buffer byte cap (requests past it shed Busy; a
    /// subscriber that falls this far behind is disconnected).
    std::size_t max_wbuf_bytes = std::size_t{8} << 20;
    /// Server metrics ("net.*") land here; null keeps a private registry.
    obs::Registry* registry = nullptr;
};

class Server {
public:
    Server();
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds and listens (no thread is spawned — call run() to serve).
    /// Refuses loop_threads > 1 and reader_threads > 256 (InvalidArgument).
    [[nodiscard]] Status start(const ServerOptions& options);

    /// Spawns the loop thread, then the reader threads, and waits until the
    /// loop exits after stop() (dropping its connections); then joins the
    /// readers and closes every open graph (flushing WALs). Returns the
    /// loop's fatal poller error, Ok on a requested shutdown.
    [[nodiscard]] Status run();

    /// Requests shutdown. Async-signal-safe and callable from any thread,
    /// also before run(): sets the stop flag, then writes one byte to the
    /// loop's self-pipe.
    void stop() noexcept;

    /// Port actually bound (valid after start()).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// The registry receiving the "net.*" series (the options-supplied one
    /// or the private fallback).
    [[nodiscard]] obs::Registry& obs() noexcept { return *registry_; }

    /// In-process handle to a served graph — the replica feeder's doorway.
    /// `lock` is the graph's state lock: hold it exclusively while mutating
    /// through `store` (sound only with read_only == true, which keeps the
    /// loop from ever writing). Lifetime: the pointers dangle once
    /// run() returns — its teardown closes and frees every store — so a
    /// feeder must be detached (Replicator::close()) before the server is
    /// stopped.
    struct LocalGraph {
        recover::DurableStore* store = nullptr;
        gt::SharedMutex* lock = nullptr;
    };

    /// Opens (creating/recovering if needed) graph `name` exactly as an
    /// OpenGraph request would, and returns the in-process handle. Callable
    /// from any thread once start() succeeded.
    [[nodiscard]] Status open_local(const std::string& name, LocalGraph& out);

    /// Runtime read-only flip. Promotion clears it so a warm replica starts
    /// answering mutations; callable from any thread.
    void set_read_only(bool read_only) noexcept {
        read_only_.store(read_only, std::memory_order_relaxed);
    }
    [[nodiscard]] bool read_only() const noexcept {
        return read_only_.load(std::memory_order_relaxed);
    }

    /// Promotes a served graph to primary under `new_term`: durably records
    /// the term (sidecar, ratchet-only), adopts it on the entry and clears
    /// any stale fence. Refuses a term that does not exceed the current
    /// one. Callable from any thread (the replication watcher's thread in
    /// practice); pair with set_read_only(false) to start taking writes.
    [[nodiscard]] Status promote_local(const std::string& name,
                                       std::uint64_t new_term);

    /// Replication lag (primary durable seq minus locally applied seq) as
    /// reported by the external feeder; surfaces in Hello replies while the
    /// server is a replica.
    void set_replication_lag(std::uint64_t lag) noexcept {
        replication_lag_.store(lag, std::memory_order_relaxed);
    }

    /// Ships WAL records appended *outside* the request path (a Replicator
    /// mirroring an upstream) to this graph's subscribers — the link that
    /// keeps replica chains flowing live. Safe from any thread: posts to
    /// the loop. No-op for unknown graphs or while stopping.
    void pump_graph(const std::string& name);

private:
    struct GraphEntry;
    class Poller;
    class ReaderPool;

    struct Conn {
        Fd fd;
        std::uint64_t id = 0;  // process-unique; async results route by it
        std::vector<unsigned char> rbuf;
        std::size_t rpos = 0;  // parsed prefix of rbuf
        std::vector<unsigned char> wbuf;
        std::size_t wpos = 0;      // flushed prefix of wbuf
        std::size_t inflight = 0;  // responses in wbuf, not yet flushed
        std::size_t pending = 0;   // dispatched async ops, reply not back
        bool want_write = false;
        bool closing = false;  // flush wbuf + drain pending, then close
        /// Graphs this connection subscribed to (teardown unsubscribes).
        std::vector<GraphEntry*> subscribed;
    };

    /// A loop verb waiting for the graph's exclusive lock.
    struct DeferredOp {
        std::uint64_t conn_id = 0;
        Frame req;
    };

    /// One attached WAL-shipping follower (loop state).
    struct Subscriber {
        std::uint64_t conn_id = 0;
        std::uint64_t request_id = 0;  // stream frames carry it
        std::uint64_t sent_seq = 0;    // last record shipped
        std::uint64_t acked_seq = 0;   // follower's applied low-water mark
        std::unique_ptr<recover::WalTailer> tailer;
        /// Flow control: the ship frames not yet covered by a SubAck, as
        /// (last seq in the frame, frame bytes), and their byte total.
        std::deque<std::pair<std::uint64_t, std::size_t>> unacked;
        std::size_t unacked_bytes = 0;
        /// Last frame-closing record shipped: the follower can apply (and
        /// so ack) everything up to it without another frame.
        std::uint64_t closed_seq = 0;
        /// A polled record that did not fit the last frame; it opens the
        /// next one.
        std::optional<recover::WalRecord> carry;
    };

    struct GraphEntry {
        std::string name;
        recover::DurableStore store;
        std::uint8_t recovery_source = 0;
        recover::DurabilityMode mode{};
        /// Readers (pool / inline) hold shared; the loop (or the read_only
        /// feeder) holds exclusive around mutations.
        gt::SharedMutex state_lock;
        /// True while `deferred` is non-empty — readers check it to park
        /// (writer gate), and the loop to drain when a reader's Done
        /// arrives.
        std::atomic<bool> has_deferred{false};
        /// Loop-private FIFO of ops awaiting the exclusive lock.
        std::deque<DeferredOp> deferred;
        /// Loop-private follower list.
        std::vector<Subscriber> subscribers;
        /// Primary term this graph's history belongs to (term.gtt sidecar;
        /// adopted at open, bumped by promote_local).
        std::atomic<std::uint64_t> term{0};
        /// Fenced: a Hello/Subscribe proved a higher term exists elsewhere.
        /// Mutations, new subscriptions and shipping refuse with StaleTerm
        /// until a promotion (promote_local) clears the fence.
        std::atomic<bool> stale{false};
    };

    /// Reply frames for one connection, plus a subscription to record on
    /// it when they are delivered.
    struct Sink {
        std::vector<unsigned char> bytes;
        std::size_t frames = 0;
        GraphEntry* sub_graph = nullptr;
    };

    /// Cross-thread message into the loop's inbox.
    struct LoopMsg {
        enum class Kind : std::uint8_t {
            Done,  // pool -> loop: a read verb's reply, lock released
            Pump,  // feeder thread -> loop: ship fresh WAL records
        };
        Kind kind = Kind::Done;
        GraphEntry* graph = nullptr;
        std::uint64_t conn_id = 0;    // Done
        Sink reply;                   // Done
    };

    // ---- loop thread ------------------------------------------------------
    /// Serves until stop(), then drops every connection. Returns the
    /// poller's fatal error, Ok on a requested shutdown.
    [[nodiscard]] Status run_loop();
    void accept_new();
    void process_inbox();
    void handle_readable(int fd);
    void handle_writable(int fd);
    [[nodiscard]] bool flush_conn(Conn& conn);
    /// Flush every connection, disconnect subscribers whose backlog
    /// overflowed, finish closing connections — the per-wake sweep.
    void flush_all();
    void parse_and_execute(Conn& conn);
    void drain_pending();
    void execute(Conn& conn, const Frame& req);
    void teardown(int fd);
    void maybe_finish(Conn& conn);
    /// Queues a message for the loop and wakes it; callable from any thread.
    void post(LoopMsg&& msg);

    // ---- loop verbs (mutations + replication bookkeeping) ----------------
    /// Entry point for loop verbs: respects the deferred FIFO, executes
    /// inline when the exclusive lock is free.
    void execute_on_loop(GraphEntry* g, std::uint64_t conn_id,
                         const Frame& req);
    void drain_deferred(GraphEntry* g);
    /// Runs one loop verb (state lock held for mutations). Appends replies
    /// to `sink`.
    void execute_loop_op(GraphEntry* g, const DeferredOp& op, Sink& sink);
    void handle_hello(GraphEntry* g, const DeferredOp& op, Sink& sink);
    void handle_subscribe(GraphEntry* g, const DeferredOp& op, Sink& sink);
    void handle_sub_ack(GraphEntry* g, const DeferredOp& op, Sink& sink);
    void handle_checkpoint(GraphEntry* g, const DeferredOp& op, Sink& sink);
    /// Ships newly committed WAL records to every subscriber (after commits
    /// and on subscribe catch-up).
    void pump_subscribers(GraphEntry* g);
    void drop_subscriber(GraphEntry* g, std::uint64_t conn_id);

    // ---- read verbs (pool or inline) -------------------------------------
    /// Runs one read verb under a shared hold of g->state_lock.
    void execute_read(GraphEntry* g, const Frame& req, Sink& sink);

    // ---- shared helpers ---------------------------------------------------
    void emit_reply(Sink& sink, const Frame& req,
                    std::span<const unsigned char> payload);
    void emit_error(Sink& sink, std::uint64_t request_id, WireCode code,
                    std::string_view message);
    /// Appends a sink to its connection's write buffer and retires
    /// `ops_done` pending ops (loop thread). A connection that has gone
    /// drops the reply.
    void deliver(std::uint64_t conn_id, Sink&& sink, std::size_t ops_done);
    void append_sink(Conn& conn, Sink&& sink);
    void conn_error(Conn& conn, std::uint64_t request_id, WireCode code,
                    std::string_view message);
    [[nodiscard]] GraphEntry* find_graph(const std::string& name);
    /// Find-or-create under graphs_mu_. `mode`: 0..2 explicit, 255 the
    /// server default.
    [[nodiscard]] Status open_entry(const std::string& name,
                                    std::uint8_t mode, GraphEntry*& out);
    void handle_open_graph(Conn& conn, const Frame& req);

    void bind_metrics();
    /// Loop thread, or run() once the loop has exited.
    void update_gauges();

    ServerOptions opts_;
    obs::Registry* registry_ = nullptr;
    std::unique_ptr<obs::Registry> owned_registry_;
    Fd listen_fd_;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> read_only_{false};  // seeded from opts_, flipped by
                                          // promotion
    std::atomic<std::uint64_t> replication_lag_{0};
    std::unique_ptr<ReaderPool> readers_;

    // The loop. Other threads touch only its self-pipe and inbox; the
    // poller and the connections are loop-thread state.
    Fd wake_r_;
    Fd wake_w_;
    gt::Mutex inbox_mu_;
    std::vector<LoopMsg> inbox_ GT_GUARDED_BY(inbox_mu_);
    std::unique_ptr<Poller> poller_;
    std::map<int, std::unique_ptr<Conn>> conns_;
    std::unordered_map<std::uint64_t, Conn*> by_id_;
    std::uint64_t next_conn_id_ = 1;

    gt::Mutex graphs_mu_;
    /// Entries are never erased while the server lives: GraphEntry* is
    /// stable and safe to pass between threads.
    std::map<std::string, std::unique_ptr<GraphEntry>> graphs_
        GT_GUARDED_BY(graphs_mu_);

    // Handles bound once in start() (obs hot-path discipline; counters and
    // gauges are atomics, safe from every thread).
    obs::Counter* accepted_m_ = nullptr;
    obs::Counter* closed_m_ = nullptr;
    obs::Counter* frames_rx_m_ = nullptr;
    obs::Counter* frames_tx_m_ = nullptr;
    obs::Counter* bytes_rx_m_ = nullptr;
    obs::Counter* bytes_tx_m_ = nullptr;
    obs::Counter* busy_shed_m_ = nullptr;
    obs::Counter* bad_frames_m_ = nullptr;
    obs::Counter* errors_tx_m_ = nullptr;
    obs::Counter* deferred_m_ = nullptr;
    obs::Counter* shipped_m_ = nullptr;
    obs::Gauge* conns_gauge_ = nullptr;
    obs::Gauge* wbuf_gauge_ = nullptr;
    obs::Gauge* graphs_gauge_ = nullptr;
    obs::Gauge* subs_gauge_ = nullptr;
    obs::Gauge* role_gauge_ = nullptr;  // 0 primary, 1 replica
    obs::Gauge* term_gauge_ = nullptr;  // max term across open graphs
};

}  // namespace gt::net

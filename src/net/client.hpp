// Blocking client for the gt.net.v1 protocol — what the CLI's `remote-*`
// subcommands, the tests, bench/ext_server_echo and the replication feeder
// talk through.
//
// Three layers:
//   - raw pipelining: send_request() stamps a fresh request id, registers
//     it as pending, and writes one frame; recv_reply() blocks for the next
//     response belonging to *some* pending request. Callers may stack N
//     send_request()s before draining — that is the protocol's throughput
//     lever.
//   - session handles: Client::open(name, graph) binds a RemoteGraph to one
//     named graph; its verbs (insert_edges/bfs_distances/degree_of/...)
//     carry the name on the wire so the caller never repeats it. They share
//     names and signatures with recover::DurableStore's, so code templated
//     over the graph type runs over a local store or a socket.
//   - subscriptions: RemoteGraph::subscribe() registers a WAL-shipping
//     stream; Client::recv_shipment() drains its frames (replies to other
//     in-flight requests are buffered, not lost).
//
// Reply pairing is deterministic: every reply frame must match a pending
// request id (or a live subscription id). Out-of-order replies — possible
// now that the server runs reads on a pool — are buffered until their
// requester asks; a reply with an id this client never sent (or already
// consumed) closes the connection with an explicit "stale reply" error
// instead of being silently matched to the wrong request.
//
// Failover: connect() also takes an *endpoint list*. Session verbs (every
// RemoteGraph call, open, ping — anything routed through round_trip) then
// retry on retryable failures: transport loss and timeouts reconnect to the
// next live endpoint with jittered exponential backoff, Busy/ShuttingDown
// back off in place, and ReadOnly/StaleTerm rotate endpoints hunting for
// the current primary. Resends are id-guarded: a retried request is always
// re-encoded under a fresh request id, so a late reply to the original can
// never be matched to the retry (and a reconnect empties the pending set
// wholesale). All gt.net.v1 mutations are idempotent (insert is upsert,
// delete of a missing edge is a no-op), which is what makes blind resend
// after an ambiguous failure safe. Reconnects replay the session: every
// graph this client opened is re-opened, then greeted with Hello carrying
// the highest term the client has observed — a resurrected stale primary
// answers StaleTerm and is skipped.
//
// Every socket operation is deadline-bounded by ClientConfig (a stalled or
// half-open peer surfaces StatusCode::TimedOut instead of hanging forever).
//
// Not thread-safe: one Client per thread, like a file handle.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/io.hpp"
#include "net/protocol.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace gt::net {

class Client;

/// One server address. connect() takes a list of these; the client hunts
/// through them for the current primary on every reconnect.
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
};

/// Deadlines and retry policy for one Client. The defaults suit tests and
/// CLI use: every socket op is bounded (nothing hangs on a half-open peer)
/// and a handful of retries with jittered exponential backoff rides out a
/// promotion. A timeout of 0 means unbounded (legacy blocking behavior).
struct ClientConfig {
    std::uint32_t op_timeout_ms = 30'000;       ///< per send/recv deadline
    std::uint32_t connect_timeout_ms = 5'000;   ///< per tcp_connect deadline
    std::uint32_t max_attempts = 8;             ///< per logical request
    std::uint32_t backoff_base_ms = 25;         ///< first retry delay
    std::uint32_t backoff_max_ms = 1'000;       ///< exponential cap
};

/// What Hello reports: who answers writes here, under which term, and how
/// far behind the upstream this server is (0 on a primary).
struct HelloInfo {
    std::uint8_t role = kRolePrimary;
    std::uint64_t term = 0;
    std::uint64_t durable_seq = 0;
    std::uint64_t lag_seqs = 0;
};

/// What Subscribe negotiated: the stream id (frames carry it), the lowest
/// seq the primary can still serve, its committed seq at ack time, and the
/// term its history belongs to.
struct Subscription {
    std::uint64_t id = 0;
    std::uint64_t wal_floor = 0;
    std::uint64_t primary_seq = 0;
    std::uint64_t term = 0;
};

/// Session handle bound to one named graph on one Client connection.
/// Obtained from Client::open(); copyable (it is a name plus a connection
/// pointer) and valid for as long as the Client outlives it. All verbs are
/// one request / one reply over the owning client.
class RemoteGraph {
public:
    RemoteGraph() = default;

    [[nodiscard]] bool valid() const noexcept { return client_ != nullptr; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    /// RecoveryInfo::Source the server reported when this open first
    /// materialized the graph.
    [[nodiscard]] std::uint8_t recovery_source() const noexcept {
        return recovery_source_;
    }

    // ---- verbs shared with recover::DurableStore ---------------------------
    /// Applies `edges` as one committed batch; `edge_count`, when non-null,
    /// receives the graph's edge count after it.
    [[nodiscard]] Status insert_edges(std::span<const Edge> edges,
                                      std::uint64_t* edge_count);
    [[nodiscard]] Status delete_edges(std::span<const Edge> edges,
                                      std::uint64_t* edge_count);
    [[nodiscard]] Status degree_of(VertexId v, std::uint64_t& out);
    /// BFS hop distances from `root`, one per target (kInfDistance =
    /// unreachable).
    [[nodiscard]] Status bfs_distances(
        VertexId root, std::span<const VertexId> targets,
        std::vector<std::uint32_t>& out);
    [[nodiscard]] Status count(std::uint64_t& edges,
                               std::uint64_t& vertices);

    // ---- wire-only verbs --------------------------------------------------
    /// Snapshot rotation on the server (the Checkpoint verb).
    [[nodiscard]] Status checkpoint_now();
    [[nodiscard]] Status neighbors(
        VertexId v, std::vector<std::pair<VertexId, Weight>>& out,
        std::uint32_t max = 0);
    [[nodiscard]] Status sssp(VertexId root,
                              std::span<const VertexId> targets,
                              std::vector<std::uint32_t>& out);
    [[nodiscard]] Status cc(std::span<const VertexId> targets,
                            std::vector<std::uint32_t>& out);
    /// Forces the server-side WAL to disk (the Sync verb).
    [[nodiscard]] Status sync_wal();
    [[nodiscard]] Status stats_json(std::string& json);

    /// Asks who serves this graph (role/term/lag), carrying the highest
    /// term this client has observed. A server whose term is lower fences
    /// itself and answers StaleTerm — the split-brain check. On success the
    /// client adopts the reported term if it is higher.
    [[nodiscard]] Status hello(HelloInfo& out);

    /// Starts a WAL-shipping subscription from `from_seq` (records with
    /// seq > from_seq will be streamed), announcing the subscriber's term.
    /// On success the stream is live: drain it with
    /// Client::recv_shipment(out.id). Fails SeqUnavailable (in
    /// Status::detail) when the primary pruned past from_seq, StaleTerm
    /// when the server's history is older than the subscriber's.
    [[nodiscard]] Status subscribe(std::uint64_t from_seq, Subscription& out);
    /// Reports the follower's applied low-water seq (feeds the primary's
    /// checkpoint/prune fence).
    [[nodiscard]] Status send_ack(std::uint64_t acked_seq);

private:
    friend class Client;
    RemoteGraph(Client* client, std::string name, std::uint8_t source)
        : client_(client), name_(std::move(name)),
          recovery_source_(source) {}

    [[nodiscard]] Status mutate(MsgType type, std::span<const Edge> edges,
                                std::uint64_t* edge_count);
    [[nodiscard]] Status props(MsgType type, const char* what, bool with_root,
                               VertexId root,
                               std::span<const VertexId> targets,
                               std::vector<std::uint32_t>& out);

    Client* client_ = nullptr;
    std::string name_;
    std::uint8_t recovery_source_ = 0;
};

class Client {
public:
    Client() = default;
    explicit Client(ClientConfig cfg) : cfg_(cfg) {}

    [[nodiscard]] Status connect(const std::string& host,
                                 std::uint16_t port);
    /// Failover form: remembers the whole list and connects to the first
    /// endpoint that answers. Session verbs reconnect through the list on
    /// retryable failures (see the header comment).
    [[nodiscard]] Status connect(std::vector<Endpoint> endpoints);
    void close() noexcept {
        fd_.reset();
        pending_.clear();
        buffered_.clear();
        stream_ids_.clear();
        stream_q_.clear();
        recv_buf_.clear();
    }
    [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
    /// Raw socket fd (-1 when closed) — lets a signal handler ::shutdown()
    /// a blocking recv from outside (gt replicate's clean-exit path).
    [[nodiscard]] int native_handle() const noexcept { return fd_.get(); }

    /// Deadline/retry policy. Mutable so tests and tools can tighten
    /// timeouts after construction; takes effect on the next operation.
    [[nodiscard]] ClientConfig& config() noexcept { return cfg_; }
    [[nodiscard]] const ClientConfig& config() const noexcept { return cfg_; }

    /// Highest primary term observed on this client (Hello and Subscribe
    /// replies, shipped frames). Reconnects announce it, which is what
    /// fences a resurrected stale primary off a client that saw the
    /// promotion.
    [[nodiscard]] std::uint64_t highest_term() const noexcept {
        return highest_term_;
    }
    /// Adopt `term` if it is higher than anything seen so far (shipped
    /// frames are parsed by the replication layer, which feeds terms back
    /// through here).
    void observe_term(std::uint64_t term) noexcept {
        if (term > highest_term_) {
            highest_term_ = term;
        }
    }

    // ---- session handles --------------------------------------------------

    /// Opens (creating/recovering server-side if needed) graph `name` and
    /// binds `out` to it. `durability`: 0 off, 1 buffered, 2 fsync_batch,
    /// 255 server default.
    [[nodiscard]] Status open(const std::string& name, RemoteGraph& out,
                              std::uint8_t durability = 255);

    [[nodiscard]] Status ping(std::span<const unsigned char> echo = {});

    // ---- raw pipelining layer ---------------------------------------------

    /// Encodes and writes one request frame; returns the request id (now
    /// pending) to pair the eventual reply with.
    [[nodiscard]] Status send_request(MsgType type,
                                      std::span<const unsigned char> payload,
                                      std::uint64_t& request_id);

    /// Blocks for the next reply belonging to any pending request (arrival
    /// order; buffered replies first). Transport failures and undecodable
    /// frames are IoError; a wire error frame is surfaced as its mapped
    /// Status, with the reply's request_id still reported so pipelined
    /// callers know which request failed. A reply that matches no pending
    /// request closes the connection ("stale reply").
    [[nodiscard]] Status recv_reply(Frame& out);

    /// Blocks for the next shipped frame of subscription `sub_id`
    /// (Subscribe|kResponseBit, kFlagShipData). Replies to other pending
    /// requests encountered on the way are buffered for their callers. An
    /// error frame on the subscription ends it (the id is retired) and
    /// surfaces as the mapped Status. `timeout_ms` overrides the config op
    /// deadline (-1: use config; 0: unbounded); on TimedOut the connection
    /// and subscription stay live — a partial frame is kept and the next
    /// call resumes it. That is the replica's heartbeat primitive.
    [[nodiscard]] Status recv_shipment(std::uint64_t sub_id, Frame& out,
                                       std::int64_t timeout_ms = -1);

private:
    friend class RemoteGraph;

    /// One request, one reply; fails if the reply id or type mismatches.
    /// With an endpoint list, this is also the retry/failover point: see
    /// the header comment for the policy.
    [[nodiscard]] Status round_trip(MsgType type,
                                    std::span<const unsigned char> payload,
                                    Frame& reply);
    /// One attempt of round_trip, no retries.
    [[nodiscard]] Status round_trip_once(
        MsgType type, std::span<const unsigned char> payload, Frame& reply);
    /// Blocks for the reply to pending request `id`, buffering replies to
    /// other pending requests encountered first.
    [[nodiscard]] Status recv_matching(std::uint64_t id, Frame& out);
    /// Reads exactly one frame off the socket (decoding from recv_buf_).
    /// TimedOut keeps the connection (and any partial frame) intact; every
    /// other failure closes it.
    [[nodiscard]] Status read_frame(Frame& out, Deadline deadline);
    /// Maps a consumed reply frame to a Status (error payloads decoded).
    [[nodiscard]] Status finish_reply(const Frame& f);

    /// Per-operation deadline from cfg_ (unbounded when op_timeout_ms==0).
    [[nodiscard]] Deadline op_deadline() const noexcept {
        return cfg_.op_timeout_ms == 0
                   ? Deadline{}
                   : Deadline::after(
                         std::chrono::milliseconds(cfg_.op_timeout_ms));
    }
    /// True if round_trip should retry after `st` (possibly on another
    /// endpoint). Transport loss / timeouts always; wire Busy/ShuttingDown
    /// always; ReadOnly/StaleTerm only when there is another endpoint to
    /// rotate to.
    [[nodiscard]] bool retryable_failure(const Status& st) const noexcept;
    /// Reconnects to the first endpoint (starting at ep_index_) that
    /// accepts, then replays the session: re-open every remembered graph
    /// and Hello it with highest_term_. An endpoint that answers StaleTerm
    /// is skipped.
    [[nodiscard]] Status reconnect();
    /// Sleeps the jittered exponential backoff for retry `attempt`.
    void backoff(std::uint32_t attempt);

    Fd fd_;
    ClientConfig cfg_;
    std::uint64_t next_id_ = 1;
    std::set<std::uint64_t> pending_;     // sent, reply not yet consumed
    std::deque<Frame> buffered_;          // replies awaiting their caller
    std::set<std::uint64_t> stream_ids_;  // live subscription ids
    std::deque<Frame> stream_q_;          // shipped frames awaiting drain
    std::vector<unsigned char> frame_buf_;
    std::vector<unsigned char> recv_buf_;

    // ---- failover state ----
    struct OpenedGraph {
        std::string name;
        std::uint8_t durability = 255;
    };
    std::vector<Endpoint> endpoints_;     // empty: single-endpoint client
    std::size_t ep_index_ = 0;            // endpoint currently connected
    std::vector<OpenedGraph> graphs_;     // session to replay on reconnect
    std::uint64_t highest_term_ = 0;
    std::uint64_t rng_state_ = 0;         // backoff jitter (lazily seeded)
    bool in_reconnect_ = false;           // reconnect() replays via
                                          // round_trip; no nested retries
};

}  // namespace gt::net

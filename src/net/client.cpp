#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/failpoint.hpp"

namespace gt::net {

namespace {

[[nodiscard]] Status decode_error_payload(const Frame& f) {
    PayloadReader r(f.payload);
    const auto code = static_cast<WireCode>(r.u16());
    const std::string msg = r.str();
    if (!r.ok()) {
        return Status{StatusCode::IoError,
                      "malformed error frame from server"};
    }
    return status_of_wire(code, "server: " + msg);
}

[[nodiscard]] Status parse_props(const Frame& reply, std::size_t expect,
                                 std::vector<std::uint32_t>& out,
                                 const char* what) {
    PayloadReader r(reply.payload);
    const std::uint32_t k = r.u32();
    if (k != expect) {
        return Status{StatusCode::IoError,
                      std::string{"short "} + what + " reply"};
    }
    out.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
        out[i] = r.u32();
    }
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError,
                      std::string{"malformed "} + what + " reply"};
    }
    return Status::success();
}

}  // namespace

// ---- Client: transport ----------------------------------------------------

Status Client::connect(const std::string& host, std::uint16_t port) {
    return connect(std::vector<Endpoint>{{host, port}});
}

Status Client::connect(std::vector<Endpoint> endpoints) {
    if (endpoints.empty()) {
        return Status{StatusCode::InvalidArgument, "endpoint list is empty"};
    }
    close();
    endpoints_ = std::move(endpoints);
    ep_index_ = 0;
    graphs_.clear();
    // highest_term_ survives a re-connect on purpose: a term, once seen,
    // must keep fencing for the lifetime of this client.
    return reconnect();
}

Status Client::reconnect() {
    close();
    Status last{StatusCode::InvalidArgument, "client has no endpoints"};
    const std::size_t n = endpoints_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (ep_index_ + i) % n;
        const Endpoint& ep = endpoints_[idx];
        const Deadline deadline =
            cfg_.connect_timeout_ms == 0
                ? Deadline{}
                : Deadline::after(
                      std::chrono::milliseconds(cfg_.connect_timeout_ms));
        Fd fd;
        if (Status st = tcp_connect(ep.host, ep.port, fd, deadline);
            !st.ok()) {
            last = st;
            continue;
        }
        fd_ = std::move(fd);
        ep_index_ = idx;
        // Replay the session: every graph this client opened gets re-opened
        // (restoring its durability choice) and greeted under the highest
        // term we have witnessed — the greeting is what keeps a resurrected
        // stale primary from quietly accepting our writes.
        in_reconnect_ = true;
        Status replay = Status::success();
        for (const OpenedGraph& g : graphs_) {
            RemoteGraph handle;
            replay = open(g.name, handle, g.durability);
            if (replay.ok()) {
                HelloInfo info;
                replay = handle.hello(info);
            }
            if (!replay.ok()) {
                break;
            }
        }
        in_reconnect_ = false;
        if (replay.ok()) {
            return Status::success();
        }
        last = replay;
        close();
    }
    return last;
}

bool Client::retryable_failure(const Status& st) const noexcept {
    if (st.ok()) {
        return false;
    }
    // Transport-level loss and deadline expiry: the server (or this
    // endpoint) is gone or wedged — reconnect and resend under a fresh id.
    if (st.code == StatusCode::TimedOut || st.code == StatusCode::IoError) {
        return true;
    }
    // Wire errors carry their WireCode in Status::detail.
    const auto wire = static_cast<WireCode>(st.detail);
    if (wire == WireCode::Busy || wire == WireCode::ShuttingDown) {
        return true;
    }
    // "You are talking to the wrong server": a replica that has not
    // promoted yet (ReadOnly) or a fenced stale primary (StaleTerm). Only
    // retryable when there is another endpoint to hunt through.
    if ((wire == WireCode::ReadOnly || wire == WireCode::StaleTerm) &&
        endpoints_.size() > 1) {
        return true;
    }
    return false;
}

void Client::backoff(std::uint32_t attempt) {
    if (cfg_.backoff_base_ms == 0) {
        return;
    }
    if (rng_state_ == 0) {
        rng_state_ =
            static_cast<std::uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count()) ^
            reinterpret_cast<std::uintptr_t>(this);
        rng_state_ |= 1;  // xorshift must never see zero
    }
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    const std::uint32_t shift = attempt > 10 ? 10U : attempt;
    std::uint64_t ms = std::uint64_t{cfg_.backoff_base_ms} << (shift - 1);
    ms = std::min<std::uint64_t>(ms, cfg_.backoff_max_ms);
    // Jitter to [ms/2, ms): concurrent clients must not retry in lockstep.
    const double u =
        static_cast<double>(rng_state_ >> 11) / 9007199254740992.0;
    ms = static_cast<std::uint64_t>(static_cast<double>(ms) * (0.5 + u / 2));
    if (ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
}

Status Client::send_request(MsgType type,
                            std::span<const unsigned char> payload,
                            std::uint64_t& request_id) {
    if (!fd_.valid()) {
        return Status{StatusCode::InvalidArgument, "client not connected"};
    }
    if (payload.size() > kMaxFramePayload) {
        return Status{StatusCode::InvalidArgument,
                      "request payload exceeds kMaxFramePayload; split the "
                      "batch"};
    }
    request_id = next_id_++;
    frame_buf_.clear();
    encode_frame(frame_buf_, static_cast<std::uint8_t>(type), request_id,
                 payload);
    if (Status st = send_all(fd_.get(), frame_buf_, op_deadline());
        !st.ok()) {
        // A failed (or timed-out) send may have left a partial frame on the
        // wire; the connection's framing is unknowable. Drop it.
        close();
        return st;
    }
    pending_.insert(request_id);
    return Status::success();
}

Status Client::read_frame(Frame& out, Deadline deadline) {
    if (!fd_.valid()) {
        return Status{StatusCode::InvalidArgument, "client not connected"};
    }
    // Frames arrive back-to-back when the server pipelines responses, so
    // recv_buf_ may already hold the next one (or a prefix of it).
    for (;;) {
        std::size_t consumed = 0;
        DecodeError err;
        switch (decode_frame(recv_buf_, out, consumed, err)) {
            case DecodeResult::Ok:
                recv_buf_.erase(recv_buf_.begin(),
                                recv_buf_.begin() +
                                    static_cast<std::ptrdiff_t>(consumed));
                if (GT_FAILPOINT_HIT("net.client.drop_frame")) {
                    // The decoded frame evaporates, as if the network ate
                    // the response: the caller's deadline now governs.
                    continue;
                }
                return Status::success();
            case DecodeResult::Bad:
                close();
                return Status{StatusCode::IoError,
                              "undecodable reply frame (" +
                                  std::string(to_string(err.code)) +
                                  "): " + err.message};
            case DecodeResult::NeedMore:
                break;
        }
        if (Status st = wait_readable(fd_.get(), deadline); !st.ok()) {
            if (st.code != StatusCode::TimedOut) {
                close();
            }
            // TimedOut keeps the connection and any partial frame in
            // recv_buf_: the next read resumes exactly where this left off
            // (recv_shipment's heartbeat relies on that).
            return st;
        }
        const std::size_t base = recv_buf_.size();
        recv_buf_.resize(base + 64 * 1024);
        std::size_t n = 0;
        const IoResult got =
            recv_some(fd_.get(), recv_buf_.data() + base, 64 * 1024, n);
        recv_buf_.resize(base + n);
        if (got == IoResult::Ok) {
            continue;
        }
        close();
        if (got == IoResult::Closed) {
            return Status{StatusCode::IoError,
                          base == 0 ? "server closed the connection"
                                    : "server closed mid-frame"};
        }
        return Status{StatusCode::IoError,
                      std::string{"recv failed: "} + std::strerror(errno)};
    }
}

Status Client::finish_reply(const Frame& f) {
    if (f.type == kErrorType) {
        return decode_error_payload(f);
    }
    if ((f.type & kResponseBit) == 0) {
        close();
        return Status{StatusCode::IoError,
                      "server sent a non-response frame"};
    }
    return Status::success();
}

Status Client::recv_reply(Frame& out) {
    if (!buffered_.empty()) {
        out = std::move(buffered_.front());
        buffered_.pop_front();
        pending_.erase(out.request_id);
        return finish_reply(out);
    }
    const Deadline deadline = op_deadline();
    for (;;) {
        Frame f;
        if (Status st = read_frame(f, deadline); !st.ok()) {
            return st;
        }
        if (stream_ids_.count(f.request_id) != 0) {
            stream_q_.push_back(std::move(f));
            continue;
        }
        if (pending_.erase(f.request_id) == 0) {
            close();
            return Status{StatusCode::IoError,
                          "stale reply: id " + std::to_string(f.request_id) +
                              " matches no pending request"};
        }
        out = std::move(f);
        return finish_reply(out);
    }
}

Status Client::recv_matching(std::uint64_t id, Frame& out) {
    const auto hit = std::find_if(
        buffered_.begin(), buffered_.end(),
        [id](const Frame& f) { return f.request_id == id; });
    if (hit != buffered_.end()) {
        out = std::move(*hit);
        buffered_.erase(hit);
        pending_.erase(id);
        return finish_reply(out);
    }
    const Deadline deadline = op_deadline();
    for (;;) {
        Frame f;
        if (Status st = read_frame(f, deadline); !st.ok()) {
            return st;
        }
        if (stream_ids_.count(f.request_id) != 0) {
            stream_q_.push_back(std::move(f));
            continue;
        }
        if (pending_.count(f.request_id) == 0) {
            close();
            return Status{StatusCode::IoError,
                          "stale reply: id " + std::to_string(f.request_id) +
                              " matches no pending request"};
        }
        if (f.request_id == id) {
            pending_.erase(id);
            out = std::move(f);
            return finish_reply(out);
        }
        buffered_.push_back(std::move(f));
    }
}

Status Client::recv_shipment(std::uint64_t sub_id, Frame& out,
                             std::int64_t timeout_ms) {
    if (stream_ids_.count(sub_id) == 0) {
        return Status{StatusCode::InvalidArgument,
                      "no live subscription with id " +
                          std::to_string(sub_id)};
    }
    const Deadline deadline =
        timeout_ms < 0
            ? op_deadline()
            : (timeout_ms == 0
                   ? Deadline{}
                   : Deadline::after(std::chrono::milliseconds(timeout_ms)));
    const auto deliver = [&](Frame&& f) {
        out = std::move(f);
        if (out.type == kErrorType) {
            // The primary tore this subscriber down (slow consumer, pruned
            // past its cursor, shutdown): the stream id is dead.
            stream_ids_.erase(sub_id);
            return decode_error_payload(out);
        }
        return Status::success();
    };
    const auto hit = std::find_if(
        stream_q_.begin(), stream_q_.end(),
        [sub_id](const Frame& f) { return f.request_id == sub_id; });
    if (hit != stream_q_.end()) {
        Frame f = std::move(*hit);
        stream_q_.erase(hit);
        return deliver(std::move(f));
    }
    for (;;) {
        Frame f;
        if (Status st = read_frame(f, deadline); !st.ok()) {
            return st;
        }
        if (f.request_id == sub_id) {
            return deliver(std::move(f));
        }
        if (stream_ids_.count(f.request_id) != 0) {
            stream_q_.push_back(std::move(f));
            continue;
        }
        if (pending_.count(f.request_id) != 0) {
            buffered_.push_back(std::move(f));
            continue;
        }
        close();
        return Status{StatusCode::IoError,
                      "stale reply: id " + std::to_string(f.request_id) +
                          " matches no pending request"};
    }
}

Status Client::round_trip_once(MsgType type,
                               std::span<const unsigned char> payload,
                               Frame& reply) {
    std::uint64_t id = 0;
    if (Status st = send_request(type, payload, id); !st.ok()) {
        return st;
    }
    if (Status st = recv_matching(id, reply); !st.ok()) {
        return st;
    }
    if (reply.type !=
        (static_cast<std::uint8_t>(type) | kResponseBit)) {
        close();
        return Status{StatusCode::IoError, "reply type mismatch"};
    }
    return Status::success();
}

Status Client::round_trip(MsgType type,
                          std::span<const unsigned char> payload,
                          Frame& reply) {
    if (in_reconnect_) {
        return round_trip_once(type, payload, reply);
    }
    Status st = round_trip_once(type, payload, reply);
    for (std::uint32_t attempt = 1;
         !st.ok() && attempt < cfg_.max_attempts && retryable_failure(st);
         ++attempt) {
        const auto wire = static_cast<WireCode>(st.detail);
        if (wire == WireCode::ReadOnly || wire == WireCode::StaleTerm) {
            // Wrong server: hunt from the next endpoint onward.
            close();
            if (!endpoints_.empty()) {
                ep_index_ = (ep_index_ + 1) % endpoints_.size();
            }
        } else if (wire != WireCode::Busy) {
            // Transport loss, timeout, or a shutting-down server: this
            // connection (if any survives) can no longer be trusted to be
            // frame-aligned or to answer. Busy alone keeps the connection —
            // the server shed load but the session is healthy.
            close();
        }
        backoff(attempt);
        if (!connected()) {
            if (Status rc = reconnect(); !rc.ok()) {
                st = rc;
                continue;
            }
        }
        // Resend under a fresh request id (send_request always stamps one):
        // if the original reply ever surfaces on a surviving connection it
        // can only match as "stale" and fail loudly, never pair with the
        // retry. Safe because every gt.net.v1 mutation is idempotent.
        st = round_trip_once(type, payload, reply);
    }
    return st;
}

// ---- Client: sessions -----------------------------------------------------

Status Client::ping(std::span<const unsigned char> echo) {
    Frame reply;
    if (Status st = round_trip(MsgType::Ping, echo, reply); !st.ok()) {
        return st;
    }
    if (reply.payload.size() != echo.size() ||
        (!echo.empty() &&
         std::memcmp(reply.payload.data(), echo.data(), echo.size()) != 0)) {
        return Status{StatusCode::IoError, "ping echo mismatch"};
    }
    return Status::success();
}

Status Client::open(const std::string& name, RemoteGraph& out,
                    std::uint8_t durability) {
    PayloadWriter w;
    w.str(name);
    w.u8(durability);
    Frame reply;
    if (Status st = round_trip(MsgType::OpenGraph, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    const std::uint8_t source = r.u8();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed OpenGraph reply"};
    }
    out = RemoteGraph(this, name, source);
    // Remember the open so a reconnect can replay the session (idempotent:
    // a re-open just refreshes the durability choice).
    const auto known = std::find_if(
        graphs_.begin(), graphs_.end(),
        [&name](const OpenedGraph& g) { return g.name == name; });
    if (known == graphs_.end()) {
        graphs_.push_back(OpenedGraph{name, durability});
    } else {
        known->durability = durability;
    }
    return Status::success();
}

// ---- RemoteGraph ----------------------------------------------------------

namespace {

[[nodiscard]] Status require_bound(const Client* client) {
    if (client == nullptr) {
        return Status{StatusCode::InvalidArgument,
                      "RemoteGraph not bound (use Client::open)"};
    }
    return Status::success();
}

}  // namespace

Status RemoteGraph::mutate(MsgType type, std::span<const Edge> edges,
                           std::uint64_t* edge_count) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.edges(edges);
    Frame reply;
    if (Status st = client_->round_trip(type, w.span(), reply); !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    const std::uint64_t count = r.u64();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed mutation reply"};
    }
    if (edge_count != nullptr) {
        *edge_count = count;
    }
    return Status::success();
}

Status RemoteGraph::insert_edges(std::span<const Edge> edges,
                                 std::uint64_t* edge_count) {
    return mutate(MsgType::InsertBatch, edges, edge_count);
}

Status RemoteGraph::delete_edges(std::span<const Edge> edges,
                                 std::uint64_t* edge_count) {
    return mutate(MsgType::DeleteBatch, edges, edge_count);
}

Status RemoteGraph::degree_of(VertexId v, std::uint64_t& out) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.u32(v);
    Frame reply;
    if (Status st = client_->round_trip(MsgType::Degree, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    out = r.u64();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed Degree reply"};
    }
    return Status::success();
}

Status RemoteGraph::neighbors(VertexId v,
                              std::vector<std::pair<VertexId, Weight>>& out,
                              std::uint32_t max) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.u32(v);
    w.u32(max);
    Frame reply;
    if (Status st = client_->round_trip(MsgType::Neighbors, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    const std::uint32_t n = r.u32();
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const VertexId dst = r.u32();
        const Weight wt = r.u32();
        out.emplace_back(dst, wt);
    }
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed Neighbors reply"};
    }
    return Status::success();
}

Status RemoteGraph::props(MsgType type, const char* what, bool with_root,
                          VertexId root, std::span<const VertexId> targets,
                          std::vector<std::uint32_t>& out) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    if (with_root) {
        w.u32(root);
    }
    w.u32(static_cast<std::uint32_t>(targets.size()));
    for (const VertexId t : targets) {
        w.u32(t);
    }
    Frame reply;
    if (Status st = client_->round_trip(type, w.span(), reply); !st.ok()) {
        return st;
    }
    return parse_props(reply, targets.size(), out, what);
}

Status RemoteGraph::bfs_distances(VertexId root,
                                  std::span<const VertexId> targets,
                                  std::vector<std::uint32_t>& out) {
    return props(MsgType::Bfs, "Bfs", /*with_root=*/true, root, targets,
                 out);
}

Status RemoteGraph::sssp(VertexId root, std::span<const VertexId> targets,
                         std::vector<std::uint32_t>& out) {
    return props(MsgType::Sssp, "Sssp", /*with_root=*/true, root, targets,
                 out);
}

Status RemoteGraph::cc(std::span<const VertexId> targets,
                       std::vector<std::uint32_t>& out) {
    return props(MsgType::Cc, "Cc", /*with_root=*/false, 0, targets, out);
}

Status RemoteGraph::count(std::uint64_t& edges, std::uint64_t& vertices) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    Frame reply;
    if (Status st = client_->round_trip(MsgType::EdgeCount, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    edges = r.u64();
    vertices = r.u64();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed EdgeCount reply"};
    }
    return Status::success();
}

Status RemoteGraph::checkpoint_now() {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    Frame reply;
    return client_->round_trip(MsgType::Checkpoint, w.span(), reply);
}

Status RemoteGraph::sync_wal() {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    Frame reply;
    return client_->round_trip(MsgType::Sync, w.span(), reply);
}

Status RemoteGraph::stats_json(std::string& json) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    Frame reply;
    if (Status st = client_->round_trip(MsgType::StatsJson, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    const std::uint32_t len = r.u32();
    if (!r.ok() || r.remaining() != len) {
        return Status{StatusCode::IoError, "malformed StatsJson reply"};
    }
    const auto rest = r.rest();
    json.assign(reinterpret_cast<const char*>(rest.data()), rest.size());
    return Status::success();
}

Status RemoteGraph::hello(HelloInfo& out) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.u64(client_->highest_term());
    Frame reply;
    if (Status st = client_->round_trip(MsgType::Hello, w.span(), reply);
        !st.ok()) {
        return st;
    }
    PayloadReader r(reply.payload);
    out.role = r.u8();
    out.term = r.u64();
    out.durable_seq = r.u64();
    out.lag_seqs = r.u64();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed Hello reply"};
    }
    client_->observe_term(out.term);
    return Status::success();
}

Status RemoteGraph::subscribe(std::uint64_t from_seq, Subscription& out) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.u64(from_seq);
    w.u64(client_->highest_term());
    std::uint64_t id = 0;
    if (Status st = client_->send_request(MsgType::Subscribe, w.span(), id);
        !st.ok()) {
        return st;
    }
    Frame ack;
    if (Status st = client_->recv_matching(id, ack); !st.ok()) {
        return st;
    }
    if (ack.type !=
            (static_cast<std::uint8_t>(MsgType::Subscribe) | kResponseBit) ||
        ack.flags != 0) {
        client_->close();
        return Status{StatusCode::IoError, "subscribe ack mismatch"};
    }
    PayloadReader r(ack.payload);
    out.wal_floor = r.u64();
    out.primary_seq = r.u64();
    out.term = r.u64();
    if (!r.ok() || !r.exhausted()) {
        return Status{StatusCode::IoError, "malformed Subscribe ack"};
    }
    out.id = id;
    client_->observe_term(out.term);
    // The id lives on: every shipped frame from here carries it. Route
    // those to the stream queue instead of treating them as stale replies.
    client_->stream_ids_.insert(id);
    return Status::success();
}

Status RemoteGraph::send_ack(std::uint64_t acked_seq) {
    if (Status st = require_bound(client_); !st.ok()) {
        return st;
    }
    PayloadWriter w;
    w.str(name_);
    w.u64(acked_seq);
    Frame reply;
    return client_->round_trip(MsgType::SubAck, w.span(), reply);
}

}  // namespace gt::net

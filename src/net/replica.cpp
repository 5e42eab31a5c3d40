#include "net/replica.hpp"

#include <algorithm>
#include <cstring>

#include "core/graphtinker.hpp"
#include "recover/durable.hpp"
#include "recover/term.hpp"
#include "util/mutex.hpp"

namespace gt::net {

Status Replicator::start(const ReplicatorOptions& opts,
                         Server::LocalGraph local) {
    if (started_) {
        return Status{StatusCode::InvalidArgument, "replicator already started"};
    }
    if (local.store == nullptr || local.lock == nullptr ||
        !local.store->is_open()) {
        return Status{StatusCode::InvalidArgument,
                      "replicator needs an open local store"};
    }
    if (!local.store->wal().is_open() ||
        local.store->wal().mode() == recover::DurabilityMode::Off) {
        return Status{StatusCode::InvalidArgument,
                      "replication requires a durable local WAL (the shipped "
                      "records are mirrored into it)"};
    }
    local_ = local;
    report_to_ = opts.server;
    graph_ = opts.graph;
    lag_gauge_ = &local_.store->graph().obs().gauge("replication.lag_seqs");

    // The local sidecar term fences the subscription: a primary whose term
    // is below ours (we outlived a promotion it missed) answers StaleTerm
    // instead of feeding us a forked history.
    if (Status st = recover::load_term(local_.store->dir(), term_);
        !st.ok()) {
        return st;
    }
    client_.observe_term(term_);
    // Resume/failover logic lives up here, not in the client: one attempt
    // per call, so a dead primary surfaces immediately.
    client_.config().max_attempts = 1;

    const std::uint64_t base = local_.store->wal().durable_seq();
    applier_ = std::make_unique<recover::WalApplier>(local_.store->graph(),
                                                     base);
    // The apply path must not tee back into the WAL we mirror into — the
    // follower's log would re-frame (and re-number) the primary's batches.
    local_.store->graph().attach_update_log(nullptr);
    started_ = true;  // from here on, close() must undo the detach

    Status st = client_.connect(opts.host, opts.port);
    if (st.ok()) {
        st = client_.open(opts.graph, remote_, opts.durability);
    }
    if (st.ok()) {
        st = remote_.subscribe(base, sub_);
    }
    if (!st.ok()) {
        close();
        return st;
    }
    if (sub_.term > term_) {
        // Adopt the upstream's newer history marker durably before
        // applying anything shipped under it.
        if (Status ts = recover::store_term(local_.store->dir(), sub_.term);
            !ts.ok()) {
            close();
            return ts;
        }
        term_ = sub_.term;
    }
    primary_seq_ = std::max(sub_.primary_seq, base);
    lag_gauge_->set(static_cast<double>(lag_seqs()));
    return Status::success();
}

Status Replicator::apply_frame(const Frame& f) {
    // Ship payload: u64 term | u64 primary_seq | u32 count | count x
    // (u64 seq | u8 type | u32 len | len bytes). PayloadReader has no
    // skip/raw-bytes cursor, so parse by hand.
    const unsigned char* p = f.payload.data();
    std::size_t left = f.payload.size();
    const auto take = [&](void* out, std::size_t n) {
        if (left < n) {
            return false;
        }
        std::memcpy(out, p, n);
        p += n;
        left -= n;
        return true;
    };
    std::uint64_t ship_term = 0;
    std::uint64_t primary_seq = 0;
    std::uint32_t count = 0;
    if (!take(&ship_term, sizeof(ship_term)) ||
        !take(&primary_seq, sizeof(primary_seq)) ||
        !take(&count, sizeof(count))) {
        return Status{StatusCode::IoError, "malformed ship frame header"};
    }
    if (ship_term < term_) {
        // An upstream from an older history (a resurrected primary this
        // replica has already outlived) must never feed us: abort the
        // stream instead of forking the log.
        return status_of_wire(
            WireCode::StaleTerm,
            "ship frame carries term " + std::to_string(ship_term) +
                " but this replica is at term " + std::to_string(term_));
    }
    if (ship_term > term_) {
        // The chain above us promoted: adopt the new term durably before
        // appending anything recorded under it.
        if (Status st = recover::store_term(local_.store->dir(), ship_term);
            !st.ok()) {
            return st;
        }
        term_ = ship_term;
        client_.observe_term(ship_term);
    }
    recover::WalWriter& wal = local_.store->wal();
    for (std::uint32_t i = 0; i < count; ++i) {
        recover::WalRecord rec;
        std::uint8_t type8 = 0;
        std::uint32_t len = 0;
        if (!take(&rec.seq, sizeof(rec.seq)) || !take(&type8, sizeof(type8)) ||
            !take(&len, sizeof(len)) || left < len) {
            return Status{StatusCode::IoError, "malformed ship frame record"};
        }
        rec.type = static_cast<recover::WalRecordType>(type8);
        rec.payload.assign(p, p + len);
        p += len;
        left -= len;
        if (rec.seq <= wal.durable_seq()) {
            continue;  // re-shipped prefix after a re-subscribe overlap
        }
        const bool closes = recover::closes_frame(rec.type);
        if (rec.type == recover::WalRecordType::BatchBegin) {
            frame_buf_.clear();
        }
        frame_buf_.push_back(std::move(rec));
        if (!closes) {
            continue;
        }
        // Durable first, then applied: a crash between the two replays the
        // frame from our own WAL on restart, which is idempotent; the
        // reverse order could ack state we'd lose. Both run under the
        // exclusive state lock — the serving side tails this WAL under the
        // shared lock (Subscribe/pump on a chained replica), so appends
        // must never interleave with its reads.
        {
            gt::LockGuard<gt::SharedMutex> lk(*local_.lock);
            Status st = wal.append_frame(frame_buf_);
            if (!st.ok()) {
                return st;
            }
            for (const recover::WalRecord& r : frame_buf_) {
                st = applier_->apply(r);
                if (!st.ok()) {
                    return st;
                }
            }
        }
        frame_buf_.clear();
    }
    if (left != 0) {
        return Status{StatusCode::IoError, "trailing bytes in ship frame"};
    }
    primary_seq_ = std::max(primary_seq_, primary_seq);
    lag_gauge_->set(static_cast<double>(lag_seqs()));
    if (report_to_ != nullptr) {
        report_to_->set_replication_lag(lag_seqs());
        // Chain link: records we just mirrored arrived outside the serving
        // side's request path, so its subscribers only see them if we kick
        // the loop's pump ourselves.
        report_to_->pump_graph(graph_);
    }
    return remote_.send_ack(applied_seq());
}

Status Replicator::pump_once(std::int64_t timeout_ms) {
    if (!started_) {
        return Status{StatusCode::InvalidArgument, "replicator not started"};
    }
    Frame f;
    Status st = client_.recv_shipment(sub_.id, f, timeout_ms);
    if (!st.ok()) {
        return st;
    }
    return apply_frame(f);
}

Status Replicator::pump_until_current() {
    while (lag_seqs() > 0) {
        Status st = pump_once();
        if (!st.ok()) {
            return st;
        }
    }
    return Status::success();
}

Status Replicator::run(std::int64_t heartbeat_ms) {
    for (;;) {
        Status st = pump_once(heartbeat_ms > 0 ? heartbeat_ms : -1);
        if (st.ok()) {
            continue;
        }
        if (heartbeat_ms > 0 && st.code == StatusCode::TimedOut) {
            // Quiet stream: an idle primary and a dead one look identical
            // from here, so probe with a ping on the same connection —
            // replies interleave with stream frames via client buffering.
            const std::uint32_t saved = client_.config().op_timeout_ms;
            client_.config().op_timeout_ms =
                static_cast<std::uint32_t>(heartbeat_ms);
            const Status alive = client_.ping();
            client_.config().op_timeout_ms = saved;
            if (alive.ok()) {
                continue;
            }
            return alive;  // the failover trigger
        }
        return st;
    }
}

void Replicator::close() noexcept {
    if (!started_) {
        return;
    }
    started_ = false;
    local_.store->graph().attach_update_log(&local_.store->wal());
    applier_.reset();
    frame_buf_.clear();
    client_.close();
    remote_ = RemoteGraph{};
    sub_ = Subscription{};
}

std::uint64_t Replicator::applied_seq() const noexcept {
    return started_ ? local_.store->wal().durable_seq() : 0;
}

std::uint64_t Replicator::lag_seqs() const noexcept {
    const std::uint64_t applied = applied_seq();
    return primary_seq_ > applied ? primary_seq_ - applied : 0;
}

}  // namespace gt::net

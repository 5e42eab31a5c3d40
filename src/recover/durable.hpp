// DurableStore — a GraphTinker wrapped in the crash-recovery protocol.
//
// Directory layout:
//
//   <dir>/snapshot.gts        newest checkpoint (core/serialize.hpp v2)
//   <dir>/snapshot.prev.gts   previous checkpoint (fallback)
//   <dir>/wal.gtw             write-ahead log (recover/wal.hpp)
//
// open() recovery state machine:
//
//   1. load snapshot.gts; on *any* decode failure fall back to
//      snapshot.prev.gts; on failure again start from an empty store.
//      The per-file Status codes are surfaced in RecoveryInfo.
//   2. replay wal.gtw strictly after the loaded snapshot's wal_seq,
//      discarding the torn tail and any uncommitted frame.
//   3. audit() the rebuilt store; refuse (RecoveryAuditFailed) if any
//      structural invariant is violated.
//   4. truncate the WAL's torn tail and attach a WalWriter appending at
//      the next sequence number.
//
// checkpoint() writes snapshot.tmp.gts, fsyncs it, rotates
// snapshot.gts -> snapshot.prev.gts, renames the tmp into place, and fsyncs
// the directory — crash-atomic at every step. The WAL is *not* truncated by
// a checkpoint (by default): keeping it means a later snapshot corruption
// can still recover by full replay; prune_wal() reclaims the space when the
// caller decides the snapshots are trustworthy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/graphtinker.hpp"
#include "recover/wal.hpp"
#include "util/status.hpp"

namespace gt::recover {

struct DurableOptions {
    /// Configuration for a store created from scratch (ignored when a
    /// snapshot supplies one).
    core::Config config{};
    DurabilityMode mode = DurabilityMode::Buffered;
};

/// What open() found and did — surfaced for the CLI and tests.
struct RecoveryInfo {
    enum class Source : std::uint8_t { Fresh, Snapshot, PrevSnapshot };
    Source source = Source::Fresh;
    Status snapshot_status;       // decode result of snapshot.gts
    Status prev_snapshot_status;  // decode result of snapshot.prev.gts
    std::uint64_t snapshot_wal_seq = 0;
    ReplayStats replay;
    bool wal_present = false;
    bool audit_clean = true;
};

[[nodiscard]] constexpr std::string_view to_string(
    RecoveryInfo::Source s) noexcept {
    switch (s) {
        case RecoveryInfo::Source::Fresh: return "fresh";
        case RecoveryInfo::Source::Snapshot: return "snapshot";
        case RecoveryInfo::Source::PrevSnapshot: return "prev_snapshot";
    }
    return "unknown";
}

class DurableStore {
public:
    DurableStore() = default;
    ~DurableStore();
    DurableStore(const DurableStore&) = delete;
    DurableStore& operator=(const DurableStore&) = delete;

    /// Recovers (or creates) the store at `dir` per the state machine above
    /// and attaches the WAL. `info` (optional) receives the recovery
    /// details.
    [[nodiscard]] Status open(const std::string& dir,
                              const DurableOptions& options = {},
                              RecoveryInfo* info = nullptr);

    /// Detaches the WAL and closes it (pending buffered data is written;
    /// FsyncBatch mode syncs).
    void close() noexcept;

    [[nodiscard]] bool is_open() const noexcept { return graph_ != nullptr; }
    [[nodiscard]] core::GraphTinker& graph() noexcept { return *graph_; }
    [[nodiscard]] const core::GraphTinker& graph() const noexcept {
        return *graph_;
    }
    [[nodiscard]] WalWriter& wal() noexcept { return *wal_; }

    /// Directory this store was opened on (empty when closed). The server
    /// uses it to key multi-tenant graphs by their on-disk root.
    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

    /// Forces the WAL to the platter now (hard durability boundary on
    /// demand — the server's Sync endpoint). Ok when no WAL is attached.
    [[nodiscard]] Status sync() noexcept {
        if (wal_ == nullptr || !wal_->is_open()) {
            return Status::success();
        }
        return wal_->sync();
    }

    /// Crash-atomically replaces the newest snapshot with the current
    /// in-memory state and records the WAL position it covers.
    [[nodiscard]] Status checkpoint();

    /// Drops WAL records a checkpoint already covers by rewriting the log.
    /// Call after a checkpoint has been verified/trusted.
    [[nodiscard]] Status prune_wal();

    // Paths (exposed for the torture harness).
    [[nodiscard]] std::string snapshot_path() const;
    [[nodiscard]] std::string prev_snapshot_path() const;
    [[nodiscard]] std::string wal_path() const;

    // ---- graph verbs -----------------------------------------------------
    // The in-process twins of net::RemoteGraph's verbs: mutations ride the
    // WAL-teed transactional batch path (`edge_count`, when non-null,
    // receives the edge count after the batch), bfs_distances runs the
    // engine in-process (kInfDistance = unreachable).
    [[nodiscard]] Status insert_edges(std::span<const Edge> edges,
                                      std::uint64_t* edge_count);
    [[nodiscard]] Status delete_edges(std::span<const Edge> edges,
                                      std::uint64_t* edge_count);
    [[nodiscard]] Status degree_of(VertexId v, std::uint64_t& out);
    [[nodiscard]] Status bfs_distances(
        VertexId root, std::span<const VertexId> targets,
        std::vector<std::uint32_t>& out);
    [[nodiscard]] Status count(std::uint64_t& edges,
                               std::uint64_t& vertices);

private:
    std::string dir_;
    DurableOptions options_{};
    std::unique_ptr<core::GraphTinker> graph_;
    /// Created in open() so its "wal.*" telemetry lands in the graph's own
    /// registry (one unified exporter per store).
    std::unique_ptr<WalWriter> wal_;
};

}  // namespace gt::recover

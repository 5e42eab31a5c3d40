// Checksummed write-ahead log (the durability tentpole).
//
// File layout:
//
//   u32 magic "GTWL", u32 version 1
//   record*:  u32 crc32c | u32 len | u64 seq | u8 type | payload[len]
//
// The crc covers (len, seq, type, payload), so a flipped bit anywhere in a
// record — header included — is detected. Sequence numbers are assigned at
// commit time and are strictly contiguous in the file; a gap means records
// were lost and recovery refuses the tail.
//
// Record types:
//
//   BatchBegin   payload u64 op_count      opens a commit frame
//   InsertRun    payload u32 n, n edges    insertions staged in the frame
//   DeleteRun    payload u32 n, n edges    deletions staged in the frame
//   BatchCommit  payload u64 op_count      seals the frame (durability point)
//   SoloInsert   payload 1 edge            single-op frame, collapsed
//   SoloDelete   payload 1 edge            single-op frame, collapsed
//
// A frame's records are buffered in memory while the store applies the
// batch and reach the file *only at commit* — one write() per batch (group
// commit), one fsync under DurabilityMode::FsyncBatch. A frame begun but
// never committed (crash mid-apply) therefore leaves no trace at all, and a
// crash mid-write leaves a torn tail that scan/replay discard down to the
// last committed frame — exactly the state the store's transactional
// rollback would have produced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/update_log.hpp"
#include "obs/metrics.hpp"
#include "util/file_io.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace gt::core {
class GraphTinker;
}  // namespace gt::core

namespace gt::recover {

namespace testing {
/// The write(2) hook of util/file_io.hpp, which every WAL, term and prune
/// write goes through.
using util::testing::set_write_override;
using util::testing::WriteFn;
}  // namespace testing

inline constexpr std::uint32_t kWalMagic = 0x4754574C;  // "GTWL"
inline constexpr std::uint32_t kWalVersion = 1;
/// Records larger than this are rejected as corrupt before any
/// length-proportional allocation happens. The cap is enforced on the write
/// side by kWalMaxEdgesPerRun: staging splits a batch into bounded runs, so
/// no legitimate record can ever approach this limit.
inline constexpr std::uint32_t kWalMaxRecordLen = 1U << 30;

/// Edges per Insert/DeleteRun record. stage_inserts/stage_deletes split a
/// larger span across multiple runs inside the same frame, which keeps every
/// record payload (4 + n*sizeof(Edge) bytes) far below kWalMaxRecordLen and
/// every run count within u32 — an arbitrarily large committed batch must
/// never produce a record that scan_wal would reject as corrupt.
inline constexpr std::uint32_t kWalMaxEdgesPerRun = 1U << 22;

enum class WalRecordType : std::uint8_t {
    BatchBegin = 1,
    InsertRun = 2,
    DeleteRun = 3,
    BatchCommit = 4,
    SoloInsert = 5,
    SoloDelete = 6,
};

/// True for the record types that close a WAL frame (a batch's commit or a
/// solo update): a follower can apply everything up to such a record.
[[nodiscard]] constexpr bool closes_frame(WalRecordType type) noexcept {
    return type == WalRecordType::BatchCommit ||
           type == WalRecordType::SoloInsert ||
           type == WalRecordType::SoloDelete;
}

/// How hard commits push toward the platter.
enum class DurabilityMode : std::uint8_t {
    /// Log nothing (measurement baseline; recovery sees an empty log).
    Off,
    /// write() at commit; the OS page cache owns the data. Survives process
    /// crashes, not power loss.
    Buffered,
    /// write() + fsync() at commit — one fsync per *batch*, which is what
    /// makes WAL-per-batch affordable. Survives power loss.
    FsyncBatch,
};

[[nodiscard]] constexpr std::string_view to_string(DurabilityMode m) {
    switch (m) {
        case DurabilityMode::Off: return "off";
        case DurabilityMode::Buffered: return "buffered";
        case DurabilityMode::FsyncBatch: return "fsync_batch";
    }
    return "unknown";
}

/// One decoded record (payload still raw bytes).
struct WalRecord {
    std::uint64_t seq = 0;
    WalRecordType type{};
    std::vector<unsigned char> payload;
    std::uint64_t offset = 0;  // byte offset of the record header
};

/// Appending side. Implements core::UpdateLog so GraphTinker tees through
/// it; all UpdateLog methods are noexcept and latch the first failure into
/// status() (the store must not unwind through its durability tee).
class WalWriter final : public core::UpdateLog {
public:
    /// `registry` receives the "wal.*" telemetry; null keeps a private one.
    explicit WalWriter(obs::Registry* registry = nullptr);
    ~WalWriter() override;

    WalWriter(const WalWriter&) = delete;
    WalWriter& operator=(const WalWriter&) = delete;

    /// Opens (creating if absent) the log at `path` for appending. An
    /// existing file is scanned: its torn tail — anything after the last
    /// valid record — is truncated away. Appending resumes at
    /// max(next_seq_hint, last on-disk seq + 1): the hint is a *lower
    /// bound*, never lowered by the file, so a commit can never be
    /// assigned a sequence number an existing checkpoint already claims to
    /// cover — replay would silently skip it after the next crash. The
    /// hint must itself honor that contract: pass the newest snapshot's
    /// covered seq + 1 (every seq below the hint is checkpoint-covered).
    /// When the hint is ahead of the whole file, the covered records are
    /// dropped and the log restarts gap-free at the hint.
    [[nodiscard]] Status open(const std::string& path, DurabilityMode mode,
                              std::uint64_t next_seq_hint = 0);
    void close() noexcept;

    /// First error latched by the append path (Ok while healthy). Once
    /// non-Ok every further begin/stage/commit returns false.
    [[nodiscard]] const Status& status() const noexcept { return status_; }
    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
    [[nodiscard]] DurabilityMode mode() const noexcept { return mode_; }
    /// Sequence number the next committed record will carry.
    [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
    /// Sequence number of the last record made durable (0 = none yet).
    [[nodiscard]] std::uint64_t durable_seq() const noexcept {
        return next_seq_ - 1;
    }

    /// Forces an fsync now (checkpointing wants a hard boundary even in
    /// Buffered mode).
    [[nodiscard]] Status sync() noexcept;

    /// Appends externally produced records verbatim — the replication
    /// follower's mirror path: records shipped from a primary land in this
    /// log carrying the primary's own sequence numbers, so the two logs
    /// stay byte-compatible and the follower's durable_seq() *is* its
    /// applied position. The records must continue this log's sequence
    /// exactly and form one complete frame (last record a commit or solo).
    /// One write() per call — the same durability point as commit_batch();
    /// FsyncBatch syncs. Refused (not latched) on a sequence gap so the
    /// caller can re-subscribe; I/O failures latch as usual.
    [[nodiscard]] Status append_frame(
        std::span<const WalRecord> records) noexcept;

    /// Latches `st` as the writer's terminal status: every further
    /// begin/stage/commit fails fast with it. Used when the enclosing store
    /// loses its log mid-rotation and must refuse writes rather than let
    /// them run silently un-teed.
    void poison(Status st) noexcept { latch(std::move(st)); }

    // ---- core::UpdateLog -------------------------------------------------
    // ([[nodiscard]] is not inherited from the interface, so restate it.)
    [[nodiscard]] bool begin_batch(std::uint64_t op_count) noexcept override;
    [[nodiscard]] bool stage_inserts(std::span<const Edge> edges)
        noexcept override;
    [[nodiscard]] bool stage_deletes(std::span<const Edge> edges)
        noexcept override;
    [[nodiscard]] bool commit_batch() noexcept override;
    void abort_batch() noexcept override;

private:
    struct StagedRun {
        WalRecordType type;
        std::uint32_t count;  // edges, stored back-to-back in stage_buf_
    };

    void latch(Status st) noexcept;
    /// Shared body of stage_inserts/stage_deletes: splits `edges` into
    /// kWalMaxEdgesPerRun-bounded runs.
    [[nodiscard]] bool stage_runs(WalRecordType type,
                                  std::span<const Edge> edges) noexcept;
    /// Encodes one record (header + payload + crc) into out_buf_.
    void encode_record(WalRecordType type, const void* payload,
                       std::size_t len);
    /// The durability tail commit_batch, append_frame and sync share: one
    /// write() of `bytes` (a whole frame, or nothing) and, when `fsync` is
    /// set, one fsync(). A no-op under DurabilityMode::Off; a failure
    /// latches and is returned.
    [[nodiscard]] Status write_and_sync(std::span<const unsigned char> bytes,
                                        bool fsync) noexcept;

    int fd_ = -1;
    DurabilityMode mode_ = DurabilityMode::Buffered;
    std::uint64_t next_seq_ = 1;
    Status status_;

    bool in_batch_ = false;
    std::uint64_t batch_ops_ = 0;
    std::vector<StagedRun> staged_;
    std::vector<Edge> stage_buf_;
    std::vector<unsigned char> out_buf_;

    obs::Registry* registry_ = nullptr;
    std::unique_ptr<obs::Registry> owned_registry_;
    obs::Counter* records_m_ = nullptr;
    obs::Counter* commits_m_ = nullptr;
    obs::Counter* aborts_m_ = nullptr;
    obs::Counter* bytes_m_ = nullptr;
    obs::Counter* fsyncs_m_ = nullptr;
    obs::Histogram* commit_bytes_m_ = nullptr;
};

/// Outcome of a scan/replay pass.
struct ReplayStats {
    std::uint64_t records_scanned = 0;
    std::uint64_t batches_applied = 0;
    std::uint64_t edges_inserted = 0;
    std::uint64_t edges_deleted = 0;
    std::uint64_t last_seq = 0;          // last valid record seen
    std::uint64_t last_committed_seq = 0;
    std::uint64_t valid_bytes = 0;       // offset past the last valid record
    bool torn_tail = false;              // trailing bytes failed validation
    bool torn_batch = false;             // open frame discarded at EOF
    Status tail_status;                  // why scanning stopped (Ok = EOF)
};

/// Scans `path`, calling `fn(record)` for every valid record in order; stops
/// at the first invalid/torn record. Returns Ok when the whole file parsed
/// (stats.tail_status says why it stopped otherwise — a torn tail is
/// *expected* after a crash and is reported via stats, not the return).
/// Returns WalBadMagic/WalBadVersion when the file is not a WAL at all.
[[nodiscard]] Status scan_wal(
    const std::string& path, ReplayStats& stats,
    const std::function<void(const WalRecord&)>& fn);

/// Replays every committed frame with seq > `after_seq` into `graph`
/// (insert/delete runs re-applied in commit order). Torn tails and
/// uncommitted frames are discarded per the crash contract. The graph must
/// not have a WAL attached (replay must not re-log).
[[nodiscard]] Status replay_wal(const std::string& path,
                                core::GraphTinker& graph,
                                std::uint64_t after_seq, ReplayStats& stats);

/// Truncates `path` to its valid prefix (stats.valid_bytes of a scan). Used
/// by WalWriter::open before appending, and by tests.
[[nodiscard]] Status truncate_wal_tail(const std::string& path,
                                       std::uint64_t valid_bytes);

/// Record-by-record WAL application — the framing/commit semantics of
/// replay_wal() exposed incrementally, for consumers whose records arrive
/// one at a time (the replication follower's shipped stream) instead of
/// from a file scan. Runs of an open frame buffer in memory; only a
/// BatchCommit (or a solo record) mutates the graph, so a stream that stops
/// mid-frame leaves the graph exactly at the last committed boundary.
/// Records with seq <= `after_seq` (judged at the commit/solo record, the
/// frame's durability point) are skipped. The first framing violation or
/// apply failure latches: every later apply() returns it unchanged.
class WalApplier {
public:
    /// `stats`, when non-null, accumulates batches/edges counters exactly
    /// as replay_wal() reports them.
    explicit WalApplier(core::GraphTinker& graph, std::uint64_t after_seq = 0,
                        ReplayStats* stats = nullptr)
        : graph_(graph), after_seq_(after_seq), stats_(stats) {}

    /// Feeds one record (callers supply them in seq order). Returns the
    /// latched status — Ok means everything fed so far applied cleanly.
    [[nodiscard]] Status apply(const WalRecord& rec);

    [[nodiscard]] const Status& status() const noexcept { return status_; }
    /// True while a BatchBegin has been fed without its commit.
    [[nodiscard]] bool frame_open() const noexcept { return open_; }
    /// Seq of the last commit/solo record whose effects are in the graph.
    [[nodiscard]] std::uint64_t applied_seq() const noexcept {
        return applied_seq_;
    }

private:
    struct Run {
        bool deletes = false;
        std::vector<Edge> edges;
    };

    core::GraphTinker& graph_;
    std::uint64_t after_seq_ = 0;
    ReplayStats* stats_ = nullptr;
    bool open_ = false;
    std::vector<Run> runs_;
    std::uint64_t applied_seq_ = 0;
    Status status_;
};

/// Incremental WAL reader — the primary-side cursor behind the Subscribe
/// verb. Holds a private read fd plus a byte/seq cursor and surfaces the
/// complete records appended since the last poll(), in order.
///
/// Safe to run against a live WalWriter on the same file: the writer
/// write()s a frame's records in one append, so a poll sees either the
/// whole frame or a clean prefix ending in an incomplete record. An
/// incomplete tail is not an error here — the cursor stays parked on the
/// last whole-record boundary and the next poll retries — but a checksum
/// or sequence violation in *complete* bytes is real corruption and
/// latches status(). prune_wal() rewrites the log file in place, which
/// orphans this fd; the owner detects the resulting stall (or listens for
/// the prune) and reopens from its last shipped seq.
class WalTailer {
public:
    WalTailer() = default;
    ~WalTailer() { close(); }

    WalTailer(const WalTailer&) = delete;
    WalTailer& operator=(const WalTailer&) = delete;

    /// Opens `path` read-only and validates the file header. Records with
    /// seq <= `after_seq` are read but not surfaced — the catch-up skip for
    /// a follower that already holds a prefix.
    [[nodiscard]] Status open(const std::string& path,
                              std::uint64_t after_seq = 0);
    void close() noexcept;
    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

    /// First hard failure (corruption past a complete record, read errors).
    /// Once latched every poll() returns 0.
    [[nodiscard]] const Status& status() const noexcept { return status_; }
    /// Sequence of the last record surfaced to a poll() callback (0 when
    /// nothing surfaced yet; skipped catch-up records do not count).
    [[nodiscard]] std::uint64_t last_seq() const noexcept {
        return last_seq_;
    }
    /// Sequence of the first record the file held at open() time — the
    /// tailer's servable floor. 0 when the log had no complete record header
    /// yet (fresh or pruned log; the owner falls back to the writer's
    /// resume seq).
    [[nodiscard]] std::uint64_t first_seq() const noexcept {
        return first_seq_;
    }

    /// Reads forward from the cursor, invoking `fn` for every complete
    /// record (after the catch-up skip). Stops at EOF, at an incomplete
    /// tail (both are "caught up for now" — retry after the next commit),
    /// after `limit` surfaced records (0 = unbounded), or at a latched
    /// failure. Returns the number surfaced to `fn` this call.
    [[nodiscard]] std::size_t poll(
        const std::function<void(const WalRecord&)>& fn,
        std::size_t limit = 0);

private:
    int fd_ = -1;
    std::uint64_t offset_ = 0;    // next unread byte
    std::uint64_t prev_seq_ = 0;  // contiguity check
    std::uint64_t skip_seq_ = 0;  // surface only seq > skip_seq_
    std::uint64_t last_seq_ = 0;
    std::uint64_t first_seq_ = 0;
    Status status_;
};

}  // namespace gt::recover

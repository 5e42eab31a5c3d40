// GraphTinker: the public façade tying together the Scatter-Gather Hashing
// unit, the EdgeblockArray, the VertexPropertyArray and the Coarse Adjacency
// List (paper Fig. 2/3).
//
// The interface units of the paper map onto this class as follows: the
// load / find-edge / insert-edge / inference / interval / writeback units are
// the FIND/INSERT walks of the EdgeblockArray (workblock-granular retrieval
// with control flow per subblock); the SGH unit is `ScatterGatherHash`; the
// CAL EdgeblockArray is `CoarseAdjacencyList`.
//
// All public APIs speak *raw* vertex ids; dense (hashed) ids are an internal
// detail of the compaction machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cal.hpp"
#include "core/config.hpp"
#include "core/edgeblock_array.hpp"
#include "core/maintenance.hpp"
#include "core/sgh.hpp"
#include "core/update_log.hpp"
#include "core/vertex_props.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/types.hpp"
#include "util/visit.hpp"

namespace gt::core {

struct AuditReport;  // core/audit.hpp

class GraphTinker {
public:
    explicit GraphTinker(Config config = {});

    // The EdgeblockArray holds an internal pointer to the CAL member, so
    // instances must never be moved or copied.
    GraphTinker(const GraphTinker&) = delete;
    GraphTinker& operator=(const GraphTinker&) = delete;

    // ---- updates -------------------------------------------------------

    /// Inserts (src, dst, weight); overwrites the weight when the edge
    /// exists. Returns true when a new edge was created.
    ///
    /// With an update log attached (and outside a batch) the call is its
    /// own all-or-nothing commit unit: when the log cannot stage or commit
    /// the frame the in-memory mutation is refused or rolled back and the
    /// call returns false, matching insert_batch semantics — memory never
    /// diverges from what post-crash replay rebuilds. The cause stays
    /// latched in the log's status() (recover::WalWriter::status()).
    ///
    /// An endpoint equal to kInvalidVertex is refused (false) before any
    /// frame is staged or anything mutates, as insert_batch rejects it.
    ///
    /// [[nodiscard]]: with durability attached a dropped false conflates
    /// "already present" with "refused commit" — callers that genuinely
    /// don't care cast to void at the call site, visibly.
    [[nodiscard]] bool insert_edge(VertexId src, VertexId dst,
                                   Weight weight = 1);

    /// Deletes (src, dst) under the configured deletion mode. Returns true
    /// when the edge existed. Under an attached update log the same
    /// all-or-nothing solo-frame policy as insert_edge applies: a failed
    /// stage/commit leaves the edge in place and returns false, and an
    /// endpoint equal to kInvalidVertex is refused before any frame.
    [[nodiscard]] bool delete_edge(VertexId src, VertexId dst);

    /// Batched insert. Every batch except a single edge with no log
    /// attached (which runs through insert_edge) takes the source-grouped
    /// path: the batch is sorted by source (stable, so last-wins weight
    /// semantics for duplicate pairs are preserved), the SGH mapping and
    /// top-block handle resolve once per source run, the next run's
    /// edgeblock is software-prefetched while the current one drains, and
    /// CAL group resolution is amortized per run. The resulting store is
    /// equivalent to per-edge application (same edges, weights, degrees and
    /// audit invariants); only internal block/CAL layout may differ.
    ///
    /// Transactional: the batch applies all-or-nothing. Edges carrying
    /// kInvalidVertex endpoints are rejected up front (InvalidArgument,
    /// `detail` = the first failing batch index) before anything mutates.
    /// A batch of more than 2^32 - 1 edges is refused the same way
    /// (`detail` = 2^32 - 1, the first index past the limit) before any
    /// edge is read, because the sort keys and source-run offsets are
    /// 32-bit. A mid-batch failure (allocation, injected fault) rolls every
    /// already-applied update back through the undo journal before the
    /// typed error returns. An attached UpdateLog sees the batch staged
    /// before application and committed only after it fully applied, so a
    /// crash mid-batch replays to the rolled-back (batch-never-happened)
    /// state. [[nodiscard]]: a dropped error leaves the store exactly as it
    /// was before the batch — silently losing the whole batch — so every
    /// caller must either handle the Status or discard it explicitly.
    [[nodiscard]] Status insert_batch(std::span<const Edge> batch);
    /// Batched delete with the same routing, size limit and transactional
    /// all-or-nothing semantics (rolled-back deletes are re-inserted with
    /// their original weights). On the sorted path the CAL copies are
    /// erased in one pass after the EdgeblockArray erases
    /// (flush_cal_holes). Duplicate (src, dst) pairs within a batch delete
    /// the edge once: later occurrences are no-ops, exactly as per-edge
    /// application behaves.
    [[nodiscard]] Status delete_batch(std::span<const Edge> batch);

    // ---- durability (src/recover) ----------------------------------------

    /// Attaches the durability tee: every subsequent insert/delete (single
    /// or batch) is framed and staged through `log` before it applies and
    /// committed after it applies (see core/update_log.hpp for the crash
    /// contract). Pass nullptr to detach. The log must outlive the
    /// attachment. Typically wired by recover::DurableStore rather than
    /// called directly.
    void attach_update_log(UpdateLog* log) noexcept { log_ = log; }
    [[nodiscard]] UpdateLog* update_log() const noexcept { return log_; }

    // ---- maintenance (core/maintenance.hpp) ------------------------------

    /// Full maintenance sweep: purges tombstone-laden trees and compacts
    /// the CAL chains of a delete-only store; a compact-delete store
    /// reclaims on every erase and leaves it nothing to do. Edges, weights
    /// and degrees are untouched; probe distance and memory_footprint()
    /// shrink back toward fresh-build levels.
    MaintenanceReport maintain();

    // ---- queries ---------------------------------------------------------

    [[nodiscard]] std::optional<Weight> find_edge(VertexId src,
                                                  VertexId dst) const;

    [[nodiscard]] EdgeCount num_edges() const noexcept { return num_edges_; }
    /// Monotonic mutation epoch: advances (release) after every committed
    /// mutating call — solo edge ops and transactional batches. A reader
    /// that loads (acquire) the same value twice around a read brackets a
    /// quiescent window without locking; the sharded pipeline's per-shard
    /// completion epochs extend the same discipline across workers.
    [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
        return mutation_epoch_.load(std::memory_order_acquire);
    }
    /// One past the largest raw vertex id seen (src or dst side).
    [[nodiscard]] VertexId num_vertices() const noexcept {
        return raw_bound_;
    }
    /// Sources that hold a top block: with compact deletes (the default)
    /// exactly the sources with at least one live edge; a delete-only store
    /// keeps an emptied source's tombstoned top until maintain(). A census
    /// over the main region, O(main_region_size()).
    [[nodiscard]] std::size_t num_nonempty_vertices() const noexcept;
    /// Dense ids the main region (one {top, degree} record per id) spans.
    /// With SGH an emptied source's id is recycled, so this is the peak
    /// number of sources mapped at once; without SGH it is the raw id
    /// range. Maintenance and full EdgeblockArray sweeps walk this many
    /// entries.
    [[nodiscard]] std::size_t main_region_size() const noexcept {
        return props_.size();
    }
    /// Main-region ids on SGH's free list, waiting for the next new source
    /// (0 without SGH).
    [[nodiscard]] std::size_t free_ids() const noexcept {
        return config_.enable_sgh ? sgh_.free_ids() : 0;
    }
    [[nodiscard]] std::uint32_t degree(VertexId raw_src) const;

    // ---- traversal -------------------------------------------------------

    /// Visits every live out-edge of raw vertex `src`: fn(dst, weight),
    /// where fn may return void (visit everything) or bool (false stops —
    /// pull-style gathers that only need one witness). Returns false when
    /// iteration was cut short. Loads from the EdgeblockArray (the
    /// incremental-processing path).
    template <typename Fn>
    bool visit_out_edges(VertexId src, Fn&& fn) const {
        const auto dense = dense_of(src);
        if (!dense) {
            return true;
        }
        return eba_.visit_edges_of(props_[*dense].top, fn);
    }

    /// Streams every live edge: fn(src, dst, weight), void- or
    /// bool-returning as in visit_out_edges. Loads from the CAL
    /// EdgeblockArray when the feature is enabled (the full-processing
    /// path); otherwise falls back to sweeping the EdgeblockArray.
    template <typename Fn>
    bool visit_edges(Fn&& fn) const {
        if (config_.enable_cal) {
            return cal_.visit_edges(fn);
        }
        return visit_edges_via_eba(fn);
    }

    /// Streams every live edge from the EdgeblockArray regardless of CAL
    /// (exposed for the CAL ablation experiments).
    template <typename Fn>
    bool visit_edges_via_eba(Fn&& fn) const {
        for (VertexId dense = 0; dense < props_.size(); ++dense) {
            const VertexId raw = raw_of(dense);
            const bool complete = eba_.visit_edges_of(
                props_[dense].top, [&](VertexId dst, Weight w) {
                    return visit_step(fn, raw, dst, w);
                });
            if (!complete) {
                return false;
            }
        }
        return true;
    }

    // ---- diagnostics -----------------------------------------------------

    [[nodiscard]] const Config& config() const noexcept { return config_; }
    /// The store's metrics registry. Every component (EBA probe counters
    /// and histograms, CAL chain telemetry, maintenance sweeps, batch
    /// ingest latency) records here under dotted names — see the README
    /// metric table.
    [[nodiscard]] obs::Registry& obs() const noexcept { return *obs_; }
    /// Snapshot of the registry with the structural gauges (live edges,
    /// tombstones, blocks in use, byte footprints) refreshed first.
    [[nodiscard]] obs::Snapshot telemetry() const;
    [[nodiscard]] const EdgeblockArray& edgeblock_array() const noexcept {
        return eba_;
    }
    [[nodiscard]] const CoarseAdjacencyList& cal() const noexcept {
        return cal_;
    }
    /// Tree depth (generations of edgeblocks) for raw vertex `src`.
    [[nodiscard]] std::uint32_t tree_depth(VertexId src) const;

    /// Byte-level footprint of each component (the compaction story in
    /// numbers: bytes per live edge falls as SGH/CAL keep the arena dense).
    struct MemoryFootprint {
        std::size_t edgeblock_bytes = 0;  // blocks + the records' top handles
        std::size_t cal_bytes = 0;        // CAL pool + chain metadata
        std::size_t sgh_bytes = 0;        // id-mapping tables
        std::size_t props_bytes = 0;      // the records' degrees
        /// Arena capacity high-water marks (in-use + free-listed + growth
        /// slack; the top handles at the records' capacity). The in-use
        /// figures above shrink as maintenance reclaims blocks; these do
        /// not — storage is recycled, never unmapped.
        std::size_t edgeblock_capacity_bytes = 0;
        std::size_t cal_capacity_bytes = 0;
        [[nodiscard]] std::size_t total() const noexcept {
            return edgeblock_bytes + cal_bytes + sgh_bytes + props_bytes;
        }
        /// Total bytes per live edge (0 when empty).
        [[nodiscard]] double bytes_per_edge(EdgeCount edges) const noexcept {
            return edges == 0 ? 0.0
                              : static_cast<double>(total()) /
                                    static_cast<double>(edges);
        }
    };
    [[nodiscard]] MemoryFootprint memory_footprint() const;

    /// Deep structural audit (see core/audit.hpp): verifies Robin Hood probe
    /// invariants per subblock, TBH tree well-formedness, the CAL <->
    /// EdgeblockArray pointer round-trip for every live edge, the SGH
    /// dense-index bijection, and edge/degree accounting. Returns a typed
    /// report listing every violation found.
    [[nodiscard]] AuditReport audit() const;

private:
    /// Sorted-batch lookahead: the probe target this many edges ahead is
    /// software-prefetched so its DRAM miss overlaps the current inserts.
    static constexpr std::size_t kPrefetchDistance = 32;
    /// Shorter second-stage lookahead: by the time an edge is this close,
    /// the first stage's level-0 lines have landed, so the peek-and-chase
    /// child prefetch (EdgeblockArray::prefetch_probe_child) can run.
    static constexpr std::size_t kPrefetchChildDistance = 16;

    /// Maps a raw source id to its dense index, assigning one when new
    /// (a recycled id first). A failed growth maps nothing.
    VertexId map_source(VertexId raw);
    /// Free-list pre-flight for an operation that may empty a tree.
    void prepare_release() {
        if (config_.enable_sgh) {
            sgh_.prepare_release();
        }
    }
    /// Recycles the dense id of a source that holds no top: SGH unmaps it
    /// and the next new source reuses it. No-op while the source holds a
    /// top, and without SGH (raw ids index the main region).
    void release_if_empty(VertexId dense) noexcept {
        if (config_.enable_sgh &&
            props_[dense].top == EdgeblockArray::kNoBlock) {
            sgh_.release(dense);
        }
    }
    /// insert_edge body after source resolution; `app` appends the CAL copy
    /// to the source's group and is null only when CAL is off. Returns true
    /// when a new edge was created — the caller owns the degree / num_edges_
    /// updates, so the batch path can accumulate them once per source run.
    bool insert_resolved(VertexId dense, VertexId raw_src, VertexId dst,
                         Weight weight, CoarseAdjacencyList::Appender* app);
    /// delete_edge body after source resolution (`raw_src` only feeds the
    /// undo journal). With `defer_cal` the edge's CAL position goes on
    /// cal_holes_ for the batch's CAL pass instead of being erased now.
    bool delete_resolved(VertexId dense, VertexId raw_src, VertexId dst,
                         bool defer_cal = false);
    /// A sorted delete batch's CAL pass: erases every position on
    /// cal_holes_ in one CoarseAdjacencyList::erase_batch, re-binds the
    /// relocated edges' owner cells, and empties the list. Runs on every
    /// exit from the batch's apply, so a failed batch rolls back over a
    /// dense CAL.
    void flush_cal_holes() noexcept;

    // ---- transactional batch machinery -----------------------------------

    /// One rollback step, journaled per applied update while a batch is in
    /// Applying state and replayed in reverse order when it fails.
    struct UndoEntry {
        enum class Kind : std::uint8_t {
            EraseInsert,    // insert created an edge -> delete it
            RestoreWeight,  // insert overwrote a weight -> write prev back
            Reinsert,       // delete removed an edge -> re-insert prev
        };
        Kind kind;
        VertexId src;  // raw ids: rollback re-enters the public-id paths
        VertexId dst;
        Weight prev;
    };
    enum class TxnState : std::uint8_t { Idle, Applying, RollingBack };

    /// Pre-application screen: refuses a batch past 2^32 - 1 edges without
    /// reading it, else finds the first edge with a kInvalidVertex endpoint
    /// (InvalidArgument, detail = its index), or Ok.
    [[nodiscard]] static Status validate_batch(std::span<const Edge> batch);
    /// Replays journal_ newest-first, restoring the pre-batch store.
    /// Returns false if a rollback step itself failed (allocation failure
    /// during re-insertion) — the store may then be missing rolled-back
    /// edges and the caller's Status says so.
    [[nodiscard]] bool rollback_journal() noexcept;
    /// A validated batch of at most one edge with no log attached, run
    /// through the solo op at solo cost: the solo op is already
    /// all-or-nothing (insert_edge's growth and delete_edge's erase
    /// pre-flights throw before any mutation; an absent edge is a legal
    /// no-op), so the journal frame would be pure overhead. With a log
    /// attached the batch keeps its frame. The WAL record is the same
    /// either way (a 1-edge frame commits as the Solo record the solo op
    /// writes); the outcome is not: a solo op reports a refused stage or
    /// commit only as `false`, while a batch must return a typed Status.
    [[nodiscard]] Status apply_single(std::span<const Edge> batch,
                                      bool deletes);
    /// The solo ops' one-edge frame around `body` (the op itself): stages
    /// `e` first and commits after when a log is attached. Returns `body`'s
    /// result, or false when the stage or commit failed, and advances the
    /// mutation epoch when the committed body mutated.
    template <typename Body>
    bool solo_frame(const Edge& e, bool deletes, Body&& body);
    /// Everything both batch calls share around their sorted bodies: the
    /// batch counters and latency histogram, the apply_single bypass,
    /// validation, the begin/commit/abort framing and the epoch bump.
    template <typename ApplyFn>
    [[nodiscard]] Status run_transaction(std::span<const Edge> batch,
                                         bool deletes, ApplyFn&& apply);
    /// Materializes `batch` into ingest_sorted_ grouped by source, stable
    /// in batch order within a source, so the apply loop streams
    /// sequentially. Small source spans take a single-pass counting sort
    /// that scatters edges directly; wide spans fall back to an LSD radix
    /// sort over (src << 32 | index) keys followed by one gather pass.
    /// Scratch capacity is reused across batches.
    void sort_batch_by_source(std::span<const Edge> batch);
    /// Gathers `batch` into ingest_sorted_ in ingest_keys_ order (the
    /// radix-sort fallback's final pass).
    void materialize_sorted(std::span<const Edge> batch);
    /// One source run of a sorted batch: positions [begin, end) of
    /// ingest_sorted_ share `src`, resolved to `dense` before application
    /// (kInvalidVertex for a source not yet mapped). `top` snapshots the
    /// record's top at resolve time — a prefetch hint only (kNoBlock for
    /// unmapped sources, and the apply loop may re-root the tree), but it
    /// spares the lookahead a second random read of the record.
    struct SourceRun {
        VertexId src;
        VertexId dense;
        std::uint32_t top;
        std::uint32_t begin;
        std::uint32_t end;
    };
    /// Scans ingest_sorted_ into ingest_runs_, looking each source up once
    /// without mapping it. Runs of unmapped sources stay in an insert batch
    /// (the apply loop maps them) and drop out of a delete batch. Returns
    /// the runs.
    std::span<const SourceRun> resolve_runs(std::size_t n, bool inserts);
    /// Prefetches the probe target of sorted-batch position `pos`, walking
    /// `cursor` forward through ingest_runs_ to find its run (amortized
    /// O(1): both advance monotonically). `deep` selects the second stage
    /// (child chase) instead of the level-0 warm-up; the warm-up also
    /// requests a mapped source's record (top and degree) at its run's
    /// first edge.
    void prefetch_ahead(std::span<const SourceRun> runs, std::size_t& cursor,
                        std::size_t pos, bool deep) const;
    /// Read-only dense lookup; empty when the source is not mapped.
    [[nodiscard]] std::optional<VertexId> dense_of(VertexId raw) const;
    [[nodiscard]] VertexId raw_of(VertexId dense) const {
        return config_.enable_sgh ? sgh_.raw_of(dense) : dense;
    }
    void note_raw(VertexId raw) {
        if (raw >= raw_bound_) {
            raw_bound_ = raw + 1;
        }
    }

    Config config_;
    // The registry outlives (and is constructed before) every component
    // that resolves handles from it — declaration order is load-bearing.
    std::unique_ptr<obs::Registry> obs_;
    ScatterGatherHash sgh_;
    CoarseAdjacencyList cal_;
    EdgeblockArray eba_;
    VertexPropertyArray props_;  // the main region: dense id -> {top, degree}
    EdgeCount num_edges_ = 0;
    VertexId raw_bound_ = 0;
    /// See mutation_epoch(). Release on bump / acquire on read so an epoch
    /// observation publishes the mutations it counts.
    std::atomic<std::uint64_t> mutation_epoch_{0};

    /// Durability tee (non-owning; nullptr = durability off).
    UpdateLog* log_ = nullptr;
    TxnState txn_ = TxnState::Idle;
    /// Undo journal of the in-flight batch. Reserved to the batch size up
    /// front so the per-update pushes on the apply path cannot throw.
    std::vector<UndoEntry> journal_;
    /// A sorted delete batch's CAL holes and the relocations its CAL pass
    /// makes (see flush_cal_holes), sized beside the journal.
    std::vector<std::uint32_t> cal_holes_;
    std::vector<CoarseAdjacencyList::Moved> cal_moves_;

    // Batch-ingest and maintenance telemetry handles (resolved once at
    // construction; recording through them is lock-free).
    obs::Histogram* ingest_batch_us_ = nullptr;
    obs::Histogram* delete_batch_us_ = nullptr;
    obs::Counter* batches_ingested_ = nullptr;
    obs::Counter* updates_applied_ = nullptr;
    obs::Counter* maintenance_runs_ = nullptr;
    obs::Histogram* maintenance_cells_touched_ = nullptr;

    // Batched-ingest scratch (capacity reused across batches; holds keys and
    // radix histograms, never edge copies).
    std::vector<std::uint64_t> ingest_keys_;
    std::vector<std::uint64_t> ingest_tmp_;
    std::vector<std::uint32_t> ingest_hist_;
    std::vector<SourceRun> ingest_runs_;
    std::vector<Edge> ingest_sorted_;

    // The structural auditor reads the private cross-component state, and
    // its test-only corruption hook mutates it to prove audit() detects
    // every violation class. The maintainer drives the reclamation
    // primitives over the same state.
    friend class Auditor;
    friend class CorruptionInjector;
    friend class Maintainer;
};

}  // namespace gt::core

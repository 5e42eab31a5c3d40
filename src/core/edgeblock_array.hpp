// The EdgeblockArray: Robin Hood + Tree-Based hashed edge storage
// (paper §III.B).
//
// Geometry: an *edgeblock* is PAGEWIDTH edge-cells; it is divided into
// Subblocks (branch-out granularity, default 8 cells) which are divided into
// Workblocks (retrieval granularity, default 4 cells). Every vertex that
// owns edges has a *top-parent* edgeblock; when a subblock congests, the
// Tree-Based Hashing scheme "branches out" a child edgeblock in the overflow
// pool and the insert continues in the child at the next hash level. Probe
// distance when following a vertex's edges is therefore O(log degree) rather
// than the O(degree) of adjacency-list chains.
//
// Within a subblock, a delete-only store's insertion runs the Robin Hood
// Hashing algorithm: the destination id hashes to a home cell; on collision
// the probe distances of the incoming and resident edges compete and the
// "richer" edge is displaced and continues probing (wrapping within the
// subblock). In delete-and-compact mode RHH swapping is off (paper §III.C)
// and a deletion hole in a window that links a child is refilled from that
// child's subtree (extract_deepest: down the lowest-indexed non-empty child
// at each level, then that block's first live edge), freeing emptied
// edgeblocks. A subblock is at most 64 cells, so every probe reads a
// window's state from one occupancy word and one tombstone word.
//
// Level 0 is degree-adaptive. Whenever PAGEWIDTH > SUBBLOCK there are two
// block sizes, each in its own pooled arena: *wide* blocks of PAGEWIDTH
// cells (every tree level) and *narrow* blocks of one SUBBLOCK window (a
// new vertex's top). A narrow top is the same window a wide top would hash
// the vertex's edges into at level 0, minus the other windows and the child
// handles; it never links a child. The first insert that finds it full
// promotes it: the edges move into a fresh wide top by the usual level-0
// hash and the insert carries on there, so hubs keep the paper's tree.
// Under compact deletes an erase that leaves a wide top with at most
// SUBBLOCK/2 edges demotes it again (the gap is the hysteresis). A handle
// carries its class in its top bit (kNarrowTag), so CAL owner references
// stay plain {handle, slot} pairs.
//
// Callers (GraphTinker) hold a top-block handle per dense source vertex.
// The structure never stores source ids — ownership is implied by the
// handle, exactly as the paper's main-region indexing implies it.
//
// The arenas are shaped so one probe level reads whole cache lines: every
// per-block array is 64-byte aligned (util/line_alloc.hpp), an edge-cell is
// 8 bytes, so a default 8-cell subblock window is exactly one line, and a
// block's interleaved occupancy/tombstone words share one line. A cell's
// state lives in those masks, a block's live count is their popcount, its
// Robin Hood displacement is recomputed from the hash, and its CAL pointer
// sits in a parallel per-cell array that is touched only when an edge is
// placed, moved, erased or re-weighted.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cal.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "util/line_alloc.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"
#include "util/visit.hpp"

namespace gt::core {

struct FindStep;  // core/probe_kernel.hpp

/// Typed obs handles the EdgeblockArray records through — resolved once at
/// construction from the owning registry, so hot paths never touch the
/// registry's name map. Counter names: "eba.<field>"; the two histograms
/// ("eba.find_probe_cells", "eba.insert_probe_cells") sample per-operation
/// probe distance in cells.
struct EbaMetrics {
    obs::Counter* cells_probed = nullptr;
    obs::Counter* workblocks_fetched = nullptr;
    obs::Counter* rhh_swaps = nullptr;
    obs::Counter* branch_outs = nullptr;
    obs::Counter* compaction_moves = nullptr;
    obs::Counter* blocks_freed = nullptr;
    obs::Counter* trees_rebuilt = nullptr;
    obs::Counter* tombstones_purged = nullptr;
    obs::Counter* promotions = nullptr;
    obs::Counter* demotions = nullptr;
    obs::Histogram* find_probe_cells = nullptr;
    obs::Histogram* insert_probe_cells = nullptr;
};

/// Probe work one operation did, flushed into the EbaMetrics counters.
struct ProbeWork {
    std::uint64_t cells = 0;
    std::uint64_t workblocks = 0;
    std::uint64_t swaps = 0;
    std::uint64_t branch_outs = 0;
};

/// A cell's state, as its block's occupancy/tombstone masks record it.
enum class CellState : std::uint8_t { Empty, Occupied, Tombstone };

/// The two block sizes: PAGEWIDTH-cell wide blocks and one-subblock narrow
/// tops (see the file comment). The value is the handle's top bit.
enum class BlockClass : std::uint8_t { Wide = 0, Narrow = 1 };

/// The most primitive unit of the EdgeblockArray (one edge-cell): the edge
/// and nothing else, so eight cells fill one cache line. State, probe
/// distance and CAL pointer live outside the cell (see the file comment).
struct EdgeCell {
    VertexId dst = kInvalidVertex;
    Weight weight = 0;
};
static_assert(sizeof(EdgeCell) == 8, "an edge-cell is {dst, weight}");

class EdgeblockArray {
public:
    static constexpr std::uint32_t kNoBlock = 0xffffffffU;
    /// Handle bit marking a narrow block; the low bits index its arena.
    /// kNoBlock has it set too, so callers test for kNoBlock first.
    static constexpr std::uint32_t kNarrowTag = 0x80000000U;
    /// Cells of slack past each arena's last block: one cache line, so the
    /// SIMD compare of the last window may read whole 4-cell groups without
    /// running off the allocation.
    static constexpr std::size_t kArenaPadCells = kCacheLine / sizeof(EdgeCell);

    [[nodiscard]] static constexpr bool is_narrow(std::uint32_t h) noexcept {
        return (h & kNarrowTag) != 0;
    }
    [[nodiscard]] static constexpr BlockClass class_of(
        std::uint32_t h) noexcept {
        return is_narrow(h) ? BlockClass::Narrow : BlockClass::Wide;
    }
    /// The handle of block `index` of class `c`'s arena.
    [[nodiscard]] static constexpr std::uint32_t handle(
        BlockClass c, std::uint32_t index) noexcept {
        return c == BlockClass::Narrow ? index | kNarrowTag : index;
    }

    /// `cal` may be null (CAL feature disabled); when set, the array keeps
    /// CAL-pointers consistent whenever cells move. `registry` names where
    /// telemetry lands; null constructs a private registry (standalone /
    /// test use) so recording sites never branch on its presence.
    EdgeblockArray(const Config& config, CoarseAdjacencyList* cal,
                   obs::Registry* registry = nullptr);

    struct InsertResult {
        bool inserted = false;  // false: edge existed, weight updated
        std::uint32_t existing_cal_pos = kNoCalPos;  // when !inserted
    };

    /// FIND mode then INSERT mode (paper §III.C). `top` is the vertex's
    /// top-parent block handle; kNoBlock allocates one.
    ///
    /// `new_cal_pos` is the CAL position of the edge's freshly inserted CAL
    /// copy (kNoCalPos when CAL is off). The new edge *carries* this pointer
    /// through the Robin Hood cascade, so the CAL owner backreference is
    /// re-bound at every displacement — including displacements of the new
    /// edge itself later in the same cascade.
    InsertResult insert(std::uint32_t& top, VertexId dst, Weight weight,
                        std::uint32_t new_cal_pos = kNoCalPos);

    /// INSERT mode only — precondition: (…, dst) is absent under `top`
    /// (i.e. find_ref returned nothing). Used by callers that already ran
    /// the FIND stage themselves. A full narrow top is promoted on the way.
    /// `start_block`/`start_level` (optional) resume the cascade below the
    /// tree's top: probe_insert proves that every level above its Absent
    /// resume point is a full window with no tombstone and no Robin Hood
    /// swap opportunity, so the cascade would walk through them verbatim —
    /// starting at the resume point skips that re-walk.
    void insert_new(std::uint32_t& top, VertexId dst, Weight weight,
                    std::uint32_t new_cal_pos,
                    std::uint32_t start_block = kNoBlock,
                    std::uint32_t start_level = 0);

    /// Fused FIND/INSERT probe (the hot path). One walk of the hash path
    /// that either updates an existing edge in place (Duplicate), proves the
    /// key absent *and* pins a directly writable cell (PlaceAt), or proves
    /// it absent but needs the full INSERT-mode cascade (Absent). With
    /// Robin Hood swaps the PlaceAt cell is the first EMPTY on the probe
    /// path with no earlier reusable slot or swap point; without them it is
    /// the first unoccupied cell on the path, the one insert_new would
    /// pick. Either way an EMPTY cell also proves nothing lives deeper.
    /// Callers follow up with place_at, or with insert_new from the resume
    /// point.
    struct ProbeResult {
        enum class Kind : std::uint8_t { Duplicate, PlaceAt, Absent };
        Kind kind = Kind::Absent;
        std::uint32_t cal_pos = kNoCalPos;  // Duplicate: the edge's CAL copy
        CellRef where{};                    // PlaceAt: the free cell
        // Absent: where the INSERT cascade must begin — the first level with
        // a tombstone or Robin Hood swap point (or the deepest block when
        // the walk fell off the tree, which is the only Absent without
        // Robin Hood swaps). Levels above are full windows the cascade
        // would cross without effect, so insert_new skips them.
        std::uint32_t resume_block = kNoBlock;
        std::uint32_t resume_level = 0;
        // Duplicate: the weight the cell held before this probe overwrote
        // it — the transactional batch undo journal restores it on rollback.
        // Kept last: the Absent returns aggregate-initialize through
        // resume_level positionally.
        Weight prev_weight = 0;
    };
    ProbeResult probe_insert(std::uint32_t& top, VertexId dst, Weight weight);

    /// Growth pre-flight for one insert under `top`: makes sure every block
    /// the probe/cascade that follows may allocate exists without an arena
    /// having to grow — a fresh top; the promotion of a narrow top plus the
    /// one branch-out re-placing its edges can need (all SUBBLOCK + 1 edges
    /// hashing to one window); or one branch-out below a wide top (a
    /// branch-out's fresh child absorbs the carried edge immediately). All
    /// throwing work (the "eba.grow" fail point and the backing-vector
    /// resizes) happens here, before any structural mutation, which is what
    /// makes a mid-batch allocation failure cleanly roll-backable.
    void prepare_insert(std::uint32_t top);

    /// Erase-path counterpart: the narrow block a demoting erase under
    /// `top` allocates. Block frees never throw — every free list keeps
    /// room for its whole arena.
    void prepare_erase(std::uint32_t top);

    /// Writes a new edge into the cell pinned by probe_insert (PlaceAt).
    void place_at(CellRef ref, VertexId dst, Weight weight,
                  std::uint32_t cal_pos) {
        fill(ref.block, ref.slot, LiveEdge{dst, weight, cal_pos});
    }

    /// Software-prefetches the lines a FIND/INSERT probe of (`top`, `dst`)
    /// reads at level 0: the subblock window's cells (one line at the
    /// default geometry), the block's mask line and, for a wide top, the
    /// child handle the walk descends through. The batched ingest path
    /// calls this for the *next* source run while the current one drains,
    /// hiding the arena miss.
    void prefetch_probe(std::uint32_t top, VertexId dst) const noexcept;

    /// Second prefetch stage: once prefetch_probe's lines have landed, the
    /// level-0 masks are cheap to read, so this peeks at them — if a wide
    /// top's level-0 subblock is full (the probe will descend) it prefetches
    /// the level-1 child's window and mask line too. Call it at a *shorter*
    /// lookahead distance than prefetch_probe so the stage-1 lines have
    /// arrived.
    void prefetch_probe_child(std::uint32_t top, VertexId dst) const noexcept;

    /// FIND mode, returning the cell location instead of the weight.
    [[nodiscard]] std::optional<CellRef> find_ref(std::uint32_t top,
                                                  VertexId dst) const {
        if (const auto loc = locate(top, dst)) {
            return CellRef{loc->block, loc->slot};
        }
        return std::nullopt;
    }

    [[nodiscard]] const EdgeCell& cell_at(CellRef ref) const {
        return cell(ref.block, ref.slot);
    }
    void set_weight(CellRef ref, Weight weight) {
        cell(ref.block, ref.slot).weight = weight;
    }

    struct EraseResult {
        bool found = false;
        std::uint32_t cal_pos = kNoCalPos;  // CAL copy to invalidate
        Weight weight = 0;  // the erased edge's weight (undo-journal redo)
    };

    /// Deletes (…, dst) under the configured deletion mode. In
    /// delete-and-compact mode `top` may be rewritten: to kNoBlock when the
    /// vertex's whole subtree empties, or to a narrow block on demotion.
    EraseResult erase(std::uint32_t& top, VertexId dst);

    // ---- maintenance primitives (policy lives in core/maintenance.hpp) ---

    /// Cell census of the tree under `top` (drives the purge policy).
    struct TreeLoad {
        std::uint32_t live = 0;
        std::uint32_t tombstones = 0;
        std::uint32_t blocks = 0;
    };
    [[nodiscard]] TreeLoad tree_load(std::uint32_t top) const;

    /// Tombstone purge: collects the live cells under `top`, frees the whole
    /// subtree and reinserts them into a fresh tree — rooted in a narrow top
    /// when they fit one window. Tombstones vanish, the Robin Hood placement
    /// returns to fresh-build probe distance, depth shrinks, and surplus
    /// blocks land on the free lists. CAL pointers of moved cells are
    /// re-bound through the usual insert path. Returns the number of live
    /// cells reinserted; `top` is rewritten (kNoBlock when the tree held no
    /// live cells).
    std::uint32_t rebuild_tree(std::uint32_t& top);

    /// FIND mode only.
    [[nodiscard]] std::optional<Weight> find(std::uint32_t top,
                                             VertexId dst) const;

    /// Rewrites a cell's CAL pointer (used right after a CAL insert, and by
    /// CAL compaction when a CAL edge moves).
    void set_cal_pos(CellRef ref, std::uint32_t pos) {
        cal_pos_of(ref.block, ref.slot) = pos;
    }

    /// Applies a CAL compaction pass's relocations in order (an edge moved
    /// twice ends at its last position). The owner cells are random arena
    /// lines, so each one is requested a few moves ahead.
    void set_cal_positions(
        std::span<const CoarseAdjacencyList::Moved> moved) noexcept {
        constexpr std::size_t kAhead = 8;
        for (std::size_t i = 0; i < moved.size(); ++i) {
            if (i + kAhead < moved.size()) {
                const CellRef next = moved[i + kAhead].owner;
                simd::prefetch_write(&cal_pos_of(next.block, next.slot));
            }
            set_cal_pos(moved[i].owner, moved[i].new_pos);
        }
    }

    /// Visits every live out-edge under `top`: fn(dst, weight), where fn may
    /// return void (visit everything) or bool (false stops the traversal).
    /// Returns false when iteration was cut short. Iteration is driven by
    /// per-block occupancy bitmasks, so cost is proportional to live edges
    /// plus blocks — not to the arena's slack. Safe to call from concurrent
    /// readers and from inside another visit: the thread-local traversal
    /// scratch is segmented per nesting level.
    template <typename Fn>
    bool visit_edges_of(std::uint32_t top, Fn&& fn) const {
        if (top == kNoBlock) {
            return true;
        }
        static thread_local std::vector<std::uint32_t> visit_stack_;
        const std::size_t sbase = visit_stack_.size();
        visit_stack_.push_back(top);
        while (visit_stack_.size() > sbase) {
            const std::uint32_t block = visit_stack_.back();
            visit_stack_.pop_back();
            const EdgeCell* cells = &cell(block, 0);
            for (std::uint32_t w = 0; w < arena(block).words; ++w) {
                std::uint64_t bits = occ_mask(block, w);
                while (bits != 0) {
                    const auto i = static_cast<std::uint32_t>(
                        std::countr_zero(bits));
                    bits &= bits - 1;
                    const EdgeCell& c = cells[w * 64 + i];
                    if (!visit_step(fn, c.dst, c.weight)) {
                        visit_stack_.resize(sbase);
                        return false;
                    }
                }
            }
            for (std::uint32_t s = 0; s < fanout(block); ++s) {
                if (child(block, s) != kNoBlock) {
                    visit_stack_.push_back(child(block, s));
                }
            }
        }
        return true;
    }

    // ---- diagnostics / test hooks -------------------------------------

    /// Blocks currently holding a tree node, of one class or of both (every
    /// narrow block in use is a top).
    [[nodiscard]] std::size_t blocks_in_use(BlockClass c) const noexcept {
        const Arena& a = arenas_[static_cast<std::size_t>(c)];
        return a.count - a.free.size();
    }
    [[nodiscard]] std::size_t blocks_in_use() const noexcept {
        return blocks_in_use(BlockClass::Wide) +
               blocks_in_use(BlockClass::Narrow);
    }
    /// Blocks ever handed out (in use plus free-listed), per class or both.
    [[nodiscard]] std::size_t blocks_allocated(BlockClass c) const noexcept {
        return arenas_[static_cast<std::size_t>(c)].count;
    }
    [[nodiscard]] std::size_t blocks_allocated() const noexcept {
        return blocks_allocated(BlockClass::Wide) +
               blocks_allocated(BlockClass::Narrow);
    }
    /// Blocks class `c`'s arena has storage for: allocated ones plus the
    /// growth slack the next allocations take without growing.
    [[nodiscard]] std::size_t blocks_reserved(BlockClass c) const noexcept {
        return arenas_[static_cast<std::size_t>(c)].storage;
    }
    /// True when new tops start narrow (PAGEWIDTH > SUBBLOCK).
    [[nodiscard]] bool has_narrow_class() const noexcept {
        return pagewidth_ > subblock_;
    }
    /// Bytes one block of class `c` holds: cells + CAL pointers +
    /// occupancy and tombstone masks, plus the child handles of a wide
    /// block. 816 B wide and 112 B narrow at 64/8/4.
    [[nodiscard]] std::size_t block_bytes(BlockClass c) const noexcept {
        const Arena& a = arenas_[static_cast<std::size_t>(c)];
        return static_cast<std::size_t>(a.width) *
                   (sizeof(EdgeCell) + sizeof(std::uint32_t)) +
               (c == BlockClass::Wide ? spb_ * sizeof(std::uint32_t) : 0) +
               2 * a.words * sizeof(std::uint64_t);
    }
    /// Bytes held by in-use blocks, each class at its full size.
    /// Free-listed blocks are excluded — this is the footprint reclamation
    /// shrinks, not the arenas' high-water mark.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return blocks_in_use(BlockClass::Wide) *
                   block_bytes(BlockClass::Wide) +
               blocks_in_use(BlockClass::Narrow) *
                   block_bytes(BlockClass::Narrow);
    }
    /// Bytes of arena storage actually allocated (the capacity high-water
    /// mark): in-use blocks plus free-listed blocks plus growth slack.
    [[nodiscard]] std::size_t memory_capacity_bytes() const noexcept {
        return blocks_reserved(BlockClass::Wide) *
                   block_bytes(BlockClass::Wide) +
               blocks_reserved(BlockClass::Narrow) *
                   block_bytes(BlockClass::Narrow);
    }
    /// The registry this array records into (owned fallback when none was
    /// supplied at construction).
    [[nodiscard]] obs::Registry& registry() const noexcept {
        return *registry_;
    }
    /// Tombstone cells across both arenas (popcount of the tombstone
    /// masks). Free-listed blocks are scrubbed on free, so they contribute
    /// zero — this is the live tombstone census the auditor cross-checks.
    [[nodiscard]] std::uint64_t tombstones_in_arena() const noexcept;
    /// Opens / closes a thread-local stats-deferral scope: while open, this
    /// array's probe counters accumulate in plain thread-local integers and
    /// land in the shared relaxed atomics once at close. Batched ingest
    /// wraps its apply loop in one scope so the counter RMWs are paid per
    /// batch instead of per edge (2–4 atomic adds per insert otherwise).
    /// Scopes nest; concurrent readers on other threads simply observe the
    /// counters a batch late, which relaxed counters already permit.
    void begin_stats_batch() const noexcept;
    void end_stats_batch() const noexcept;
    /// RAII wrapper for begin/end_stats_batch.
    class [[nodiscard]] StatsBatchScope {
    public:
        explicit StatsBatchScope(const EdgeblockArray& eba) noexcept
            : eba_(eba) {
            eba_.begin_stats_batch();
        }
        ~StatsBatchScope() { eba_.end_stats_batch(); }
        StatsBatchScope(const StatsBatchScope&) = delete;
        StatsBatchScope& operator=(const StatsBatchScope&) = delete;

    private:
        const EdgeblockArray& eba_;
    };
    /// Depth (generations) of the block tree under `top`; 0 for kNoBlock.
    [[nodiscard]] std::uint32_t subtree_depth(std::uint32_t top) const;
    [[nodiscard]] std::uint32_t pagewidth() const noexcept { return pagewidth_; }

private:
    /// An edge off its cell: what the Robin Hood cascade carries, and what
    /// compaction, rebuilds and class changes move between cells.
    struct LiveEdge {
        VertexId dst = kInvalidVertex;
        Weight weight = 0;
        std::uint32_t cal_pos = kNoCalPos;
    };

    /// One block size class's storage, all cache-line aligned. cells
    /// carries kArenaPadCells of slack past the last block.
    struct Arena {
        std::uint32_t width = 0;  // cells per block
        std::uint32_t words = 0;  // occupancy-mask words per block
        LineVector<EdgeCell> cells;
        LineVector<std::uint32_t> cal_pos;  // per cell; valid while occupied
        LineVector<std::uint64_t> masks;  // occupancy/tombstone, interleaved
        /// Recycled block indices. Its capacity tracks `storage`, so a free
        /// never reallocates.
        std::vector<std::uint32_t> free;
        std::uint32_t count = 0;  // blocks handed out (in use + free-listed)
        /// Blocks the vectors have storage for (>= count; arenas grow in
        /// chunks, not per block).
        std::uint32_t storage = 0;
    };

    [[nodiscard]] static constexpr std::uint32_t block_index(
        std::uint32_t h) noexcept {
        return h & ~kNarrowTag;
    }
    [[nodiscard]] Arena& arena(std::uint32_t h) noexcept {
        return arenas_[h >> 31];
    }
    [[nodiscard]] const Arena& arena(std::uint32_t h) const noexcept {
        return arenas_[h >> 31];
    }
    /// True when `h` names a block its arena has handed out.
    [[nodiscard]] bool in_range(std::uint32_t h) const noexcept {
        return h != kNoBlock && block_index(h) < arena(h).count;
    }
    /// Index of (block, slot) in its arena's per-cell arrays.
    [[nodiscard]] std::size_t index(std::uint32_t h,
                                    std::uint32_t slot) const noexcept {
        return static_cast<std::size_t>(block_index(h)) * arena(h).width +
               slot;
    }
    [[nodiscard]] EdgeCell& cell(std::uint32_t h, std::uint32_t slot) {
        return arena(h).cells[index(h, slot)];
    }
    [[nodiscard]] const EdgeCell& cell(std::uint32_t h,
                                       std::uint32_t slot) const {
        return arena(h).cells[index(h, slot)];
    }
    [[nodiscard]] std::uint32_t& cal_pos_of(std::uint32_t h,
                                            std::uint32_t slot) {
        return arena(h).cal_pos[index(h, slot)];
    }
    [[nodiscard]] std::uint32_t cal_pos_of(std::uint32_t h,
                                           std::uint32_t slot) const {
        return arena(h).cal_pos[index(h, slot)];
    }
    /// Live cells in block `h`: the popcount of its occupancy words, on
    /// the mask line every caller has already read.
    [[nodiscard]] std::uint32_t occupied(std::uint32_t h) const noexcept {
        std::uint32_t live = 0;
        for (std::uint32_t w = 0; w < arena(h).words; ++w) {
            live += static_cast<std::uint32_t>(std::popcount(occ_mask(h, w)));
        }
        return live;
    }
    /// Child slots of a block: spb_ for a wide block, none for a narrow one.
    [[nodiscard]] std::uint32_t fanout(std::uint32_t h) const noexcept {
        return is_narrow(h) ? 0 : spb_;
    }
    /// Child handle of a wide block's subblock window `sb`.
    [[nodiscard]] std::uint32_t& child(std::uint32_t h, std::uint32_t sb) {
        return children_[static_cast<std::size_t>(h) * spb_ + sb];
    }
    [[nodiscard]] std::uint32_t child(std::uint32_t h,
                                      std::uint32_t sb) const {
        return children_[static_cast<std::size_t>(h) * spb_ + sb];
    }
    /// Where a walk continues below window `sb` of `h`: its child, or
    /// kNoBlock under a narrow block.
    [[nodiscard]] std::uint32_t next_block(std::uint32_t h,
                                           std::uint32_t sb) const {
        return is_narrow(h) ? kNoBlock : child(h, sb);
    }

    /// Tree-Based Hashing: one mixed hash per (dst, level) supplies both the
    /// subblock index (low bits) and the Robin Hood home offset within the
    /// subblock (high bits) — the two are independent because subblocks per
    /// block never exceed 2^16.
    [[nodiscard]] std::uint32_t sb_of(VertexId dst,
                                      std::uint32_t level) const noexcept {
        return static_cast<std::uint32_t>(level_hash(dst, level)) & (spb_ - 1);
    }
    /// The subblock window of block `h` that `dst` hashes to at `level`: a
    /// narrow block is a single window (and only ever a level-0 top).
    [[nodiscard]] std::uint32_t window_of(std::uint32_t h, VertexId dst,
                                          std::uint32_t level) const noexcept {
        return is_narrow(h) ? 0 : sb_of(dst, level);
    }
    /// Robin Hood home offset of `dst` within its subblock at `level`.
    [[nodiscard]] std::uint32_t home_of(VertexId dst,
                                        std::uint32_t level) const noexcept {
        return static_cast<std::uint32_t>(level_hash(dst, level) >> 32) &
               (subblock_ - 1);
    }
    /// Probe distance of `dst` stored at offset `off` of its subblock at
    /// `level`: the displacement from its home offset, wrapping. Derived,
    /// never stored — every placement puts an edge exactly this far from
    /// its home.
    [[nodiscard]] std::uint32_t displacement(VertexId dst, std::uint32_t level,
                                             std::uint32_t off) const noexcept {
        return (off - home_of(dst, level)) & (subblock_ - 1);
    }

    struct Located {
        std::uint32_t block;
        std::uint32_t sb;    // subblock index within the block
        std::uint32_t slot;  // cell index within the block
    };
    [[nodiscard]] std::optional<Located> locate(std::uint32_t top,
                                                VertexId dst) const;
    /// FIND over the subblock window starting at cell `sb_base` of `block`
    /// at tree `level`, under the store's mode: Robin Hood probe order with
    /// the EMPTY early exit, or the whole window without it. Bit-parallel
    /// (core/probe_kernel.hpp).
    [[nodiscard]] FindStep find_in_window(std::uint32_t block,
                                          std::uint32_t sb_base,
                                          std::uint32_t level,
                                          VertexId dst) const;
    /// The first cell of that window, in probe order from `home`, that
    /// holds no live edge (EMPTY or tombstone); nullopt when it is full.
    [[nodiscard]] std::optional<CellRef> first_unoccupied(
        std::uint32_t block, std::uint32_t sb_base, std::uint32_t home) const;

    /// The INSERT cascade: Robin Hood within the subblock window, a
    /// Tree-Based Hashing branch-out when it congests, and the promotion of
    /// a full narrow top, starting with `carry` at `block` on `level`.
    void cascade(std::uint32_t& top, std::uint32_t block, std::uint32_t level,
                 LiveEdge carry, ProbeWork& work);
    /// Replaces the full narrow top `top` with a wide one holding its edges
    /// (re-placed by the level-0 hash, CAL owners re-bound); returns it.
    std::uint32_t promote(std::uint32_t& top, ProbeWork& work);
    /// Compact mode: replaces a wide top holding at most SUBBLOCK/2 edges
    /// (so no child) with a narrow one.
    void demote(std::uint32_t& top);
    /// True when narrow block `narrow`'s window holds an EMPTY cell, which
    /// an insert takes without promoting (a cascade reaches every EMPTY).
    [[nodiscard]] bool has_empty_cell(std::uint32_t narrow) const noexcept;

    /// A fresh top for `edges` edges: narrow when they fit one window and
    /// the class exists, wide otherwise.
    std::uint32_t allocate_top(std::uint32_t edges = 1);
    std::uint32_t allocate_block(BlockClass c);
    /// Makes `n` blocks of class `c` allocatable without growth; the
    /// insert/erase pre-flights' only throwing step.
    void ensure_available(BlockClass c, std::uint32_t n);
    /// Grows class `c`'s backing vectors to storage for at least `need`
    /// blocks, in chunks of half the arena (64 at least). The only place
    /// the arenas' vectors reallocate; may throw std::bad_alloc, in which
    /// case no arena state has changed (sizes only ever grow, and count is
    /// untouched).
    void grow_storage(BlockClass c, std::uint64_t need);
    /// Scrubs `block` and puts it on its free list. release_block is the
    /// class-change form (the edges moved on); free_block counts a reclaim.
    void release_block(std::uint32_t block);
    void free_block(std::uint32_t block);
    void free_subtree(std::uint32_t block);
    [[nodiscard]] bool subtree_is_empty(std::uint32_t block) const;
    /// Removes and returns one edge of `block`'s subtree: it descends the
    /// lowest-indexed non-empty child at each level and takes the first live
    /// cell of the leaf block where the descent ends (not the deepest edge
    /// on any particular hash path). False when the subtree holds no edges.
    /// Prunes empty descendants as it unwinds.
    bool extract_deepest(std::uint32_t block, LiveEdge& out);
    void refill_hole(std::uint32_t block, std::uint32_t sb, std::uint32_t slot);
    void prune_path(std::uint32_t top, VertexId dst);

    /// Descent paths deeper than this are never pruned (bounded stack use);
    /// real trees stay far shallower than 64 generations.
    static constexpr std::size_t kMaxPruneDepth = 64;

    std::uint32_t pagewidth_;
    std::uint32_t subblock_;
    std::uint32_t workblock_;
    std::uint32_t spb_;  // subblocks per wide block
    /// Delete-only mode: Robin Hood swaps on insert, tombstones on erase.
    /// Otherwise deletes compact and probes take no Robin Hood order.
    bool rhh_;
    CoarseAdjacencyList* cal_;

    /// An arena's masks interleave each block's mask words: the occupancy
    /// word covering cells [64w, 64w + 64) of `h` sits at this index, its
    /// tombstone word right after it.
    [[nodiscard]] std::size_t occ_word(std::uint32_t h,
                                       std::uint32_t w) const noexcept {
        return (static_cast<std::size_t>(block_index(h)) * arena(h).words +
                w) *
               2;
    }
    [[nodiscard]] std::uint64_t& occ_mask(std::uint32_t h, std::uint32_t w) {
        return arena(h).masks[occ_word(h, w)];
    }
    [[nodiscard]] std::uint64_t occ_mask(std::uint32_t h,
                                         std::uint32_t w) const {
        return arena(h).masks[occ_word(h, w)];
    }
    [[nodiscard]] std::uint64_t& tomb_mask(std::uint32_t h, std::uint32_t w) {
        return arena(h).masks[occ_word(h, w) + 1];
    }
    [[nodiscard]] std::uint64_t tomb_mask(std::uint32_t h,
                                          std::uint32_t w) const {
        return arena(h).masks[occ_word(h, w) + 1];
    }
    [[nodiscard]] bool is_occupied(std::uint32_t block,
                                   std::uint32_t slot) const noexcept {
        return ((occ_mask(block, slot / 64) >> (slot % 64)) & 1U) != 0;
    }
    [[nodiscard]] bool is_tombstone(std::uint32_t block,
                                    std::uint32_t slot) const noexcept {
        return ((tomb_mask(block, slot / 64) >> (slot % 64)) & 1U) != 0;
    }
    [[nodiscard]] CellState state_of(std::uint32_t block,
                                     std::uint32_t slot) const noexcept {
        if (is_occupied(block, slot)) {
            return CellState::Occupied;
        }
        return is_tombstone(block, slot) ? CellState::Tombstone
                                         : CellState::Empty;
    }

    void set_occupancy(std::uint32_t block, std::uint32_t slot, bool on) {
        std::uint64_t& word = occ_mask(block, slot / 64);
        if (on) {
            word |= 1ULL << (slot % 64);
        } else {
            word &= ~(1ULL << (slot % 64));
        }
    }

    void set_tombstone(std::uint32_t block, std::uint32_t slot, bool on) {
        std::uint64_t& word = tomb_mask(block, slot / 64);
        if (on) {
            word |= 1ULL << (slot % 64);
        } else {
            word &= ~(1ULL << (slot % 64));
        }
    }

    /// Writes `e` into the free cell (block, slot) and marks it occupied.
    /// CAL re-binding is the caller's business.
    void fill(std::uint32_t block, std::uint32_t slot, const LiveEdge& e) {
        Arena& a = arena(block);
        const std::size_t i = index(block, slot);
        a.cells[i] = EdgeCell{e.dst, e.weight};
        a.cal_pos[i] = e.cal_pos;
        set_occupancy(block, slot, true);
        set_tombstone(block, slot, false);
    }
    /// fill, then points the edge's CAL copy at its new cell.
    void fill_and_rebind(std::uint32_t block, std::uint32_t slot,
                         const LiveEdge& e) {
        fill(block, slot, e);
        if (cal_ != nullptr && e.cal_pos != kNoCalPos) {
            cal_->rebind(e.cal_pos, CellRef{block, slot});
        }
    }

    /// Calls fn(slot) for every occupied cell of `block`, in slot order.
    template <typename Fn>
    void for_each_occupied(std::uint32_t block, Fn&& fn) const {
        for (std::uint32_t w = 0; w < arena(block).words; ++w) {
            std::uint64_t bits = occ_mask(block, w);
            while (bits != 0) {
                fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    }

    /// Occupancy/tombstone bits of the subblock starting at cell `sb_base`.
    /// The window never straddles a mask word: subblock_ is a power of two
    /// <= 64 (Config::check) and sb_base is a multiple of it.
    struct WindowBits {
        std::uint64_t occ;
        std::uint64_t tomb;
    };
    [[nodiscard]] WindowBits window_bits(std::uint32_t block,
                                         std::uint32_t sb_base) const {
        const std::uint64_t* word =
            &arena(block).masks[occ_word(block, sb_base / 64)];
        const std::uint32_t shift = sb_base % 64;
        const std::uint64_t wmask =
            subblock_ >= 64 ? ~0ULL : (1ULL << subblock_) - 1;
        return WindowBits{(word[0] >> shift) & wmask,
                          (word[1] >> shift) & wmask};
    }

    /// Prefetches the lines a probe of the subblock window starting at cell
    /// `sb_base` of `block` reads — every line of its cells (one at the
    /// default geometry) and its mask line — plus the window's CAL-pointer
    /// line a placement writes. Always inlined, like the simd::prefetch
    /// wrappers: GCC judges a call whose only effects are prefetches to be
    /// side-effect free and deletes it unless it was inlined first.
    [[gnu::always_inline]] void prefetch_window(
        std::uint32_t block, std::uint32_t sb_base) const noexcept {
        // Write intent: an insert fills a cell in this window, and fetching
        // the line exclusive up front avoids a second coherence transition.
        // Windows start on a line boundary once they are a line or wider,
        // and narrower ones never straddle one.
        const Arena& a = arena(block);
        const std::size_t i = index(block, sb_base);
        const auto* first =
            reinterpret_cast<const unsigned char*>(&a.cells[i]);
        const std::size_t bytes = std::size_t{subblock_} * sizeof(EdgeCell);
        for (std::size_t at = 0; at < bytes; at += kCacheLine) {
            simd::prefetch_write(first + at);
        }
        simd::prefetch(&a.masks[occ_word(block, sb_base / 64)]);
        simd::prefetch_write(&a.cal_pos[i]);
    }

    /// [Wide, Narrow], indexed by a handle's top bit.
    Arena arenas_[2];
    /// Child handles of the wide arena's blocks, spb_ per block.
    LineVector<std::uint32_t> children_;
    // Telemetry: counters/histograms live in the registry (relaxed atomics,
    // so const FIND paths may be shared by concurrent readers); metrics_
    // caches the typed handles resolved once at construction.
    obs::Registry* registry_ = nullptr;
    std::unique_ptr<obs::Registry> owned_registry_;
    EbaMetrics metrics_{};

    // The structural auditor (src/core/audit.hpp) reads the raw arenas, and
    // its test-only corruption hook writes them.
    friend class Auditor;
    friend class CorruptionInjector;
};

}  // namespace gt::core

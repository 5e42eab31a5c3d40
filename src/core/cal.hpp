// Coarse Adjacency List EdgeblockArray (paper §III.B).
//
// A secondary, highly compact copy of every edge, kept in sync in O(1) per
// update via per-edge CAL-pointers. Source vertices are partitioned into
// groups of `group_size` consecutive dense ids; each group owns a doubly
// linked chain of fixed-size blocks whose slots are bump-allocated, so edges
// of *different* vertices in the group share blocks ("several source vertices
// share an entry") and full-graph streaming is block-contiguous.
//
// Each CAL edge carries a backreference to the EdgeblockArray cell that owns
// it so that (a) delete-and-compact can relocate the group's last edge into a
// freshly created hole and fix the owner's CAL-pointer, and (b) the
// EdgeblockArray can re-bind the pointer when Robin Hood swaps or compaction
// move a cell.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "util/line_alloc.hpp"
#include "util/types.hpp"
#include "util/visit.hpp"

namespace gt::core {

/// Location of an edge-cell inside the EdgeblockArray pool.
struct CellRef {
    std::uint32_t block = 0;
    std::uint32_t slot = 0;
};

/// Sentinel CAL position for "no CAL copy" (CAL disabled).
inline constexpr std::uint32_t kNoCalPos = 0xffffffffU;

class CoarseAdjacencyList {
public:
    /// `registry` receives the CAL's telemetry ("cal.*" counters plus the
    /// chain-length histogram); null constructs a private registry so
    /// standalone (test) instances keep recording.
    CoarseAdjacencyList(std::uint32_t group_size, std::uint32_t block_edges,
                        obs::Registry* registry = nullptr);

    /// Reserves pool capacity for the expected edge count.
    void reserve(EdgeCount expected_edges) {
        pool_.reserve(expected_edges + block_edges_);
        blocks_.reserve(expected_edges / block_edges_ + 2);
    }

    /// Pre-flight for one erase: the "cal.grow" fail point plus free-list
    /// headroom, so a compacting erase that frees an emptied tail block
    /// cannot throw out of free_tail_block.
    void prepare_erase();

    /// Append handle for one dense source's group, the list's only way in.
    /// The group resolution (a division plus a bounds-checked resize) runs
    /// once at construction, so a batch's source run pays it once, not per
    /// edge. Valid only while no interleaved erase/compaction runs on the
    /// list.
    class Appender {
    public:
        /// Growth pre-flight for one append: reserves enough pool,
        /// metadata and free-list capacity that the append itself cannot
        /// hit an allocating (throwing) operation. All throwing work —
        /// including the "cal.grow" fail point — happens here, before the
        /// caller mutates anything, so a mid-batch allocation failure rolls
        /// back cleanly.
        void prepare();

        /// Appends a copy of (raw_src, dst, weight) to the group's chain,
        /// growing it by one block if the tail is full. Returns the CAL
        /// position to store in the owning edge-cell.
        std::uint32_t append(VertexId raw_src, VertexId dst, Weight weight,
                             CellRef owner) {
            return cal_->insert_in_group(group_, raw_src, dst, weight, owner);
        }

    private:
        friend class CoarseAdjacencyList;
        Appender(CoarseAdjacencyList* cal, std::uint32_t group)
            : cal_(cal), group_(group) {}
        CoarseAdjacencyList* cal_;
        std::uint32_t group_;
    };

    /// Appender for `dense_src`'s group (creates the group when new).
    [[nodiscard]] Appender appender(VertexId dense_src) {
        const std::uint32_t group = dense_src / group_size_;
        if (group >= groups_.size()) {
            groups_.resize(static_cast<std::size_t>(group) + 1);
        }
        return Appender{this, group};
    }

    /// Result of a compacting erase: the group's last edge was moved into the
    /// hole, so its owning edge-cell must have its CAL-pointer rewritten.
    struct Moved {
        CellRef owner;          // edge-cell that owns the moved CAL edge
        std::uint32_t new_pos;  // its new CAL position
    };

    /// Removes the edges at `holes`, distinct live positions in any order,
    /// in two passes. The first marks every hole invalid. Without `compact`
    /// it stops there: the holes are skipped during streaming but keep being
    /// scanned until the next compact_chains sweep (delete-only semantics).
    /// With `compact` the second pass refills each hole still inside its
    /// chain from the group's tail, dropping tail slots that are holes
    /// themselves instead of moving them, and returns emptied tail blocks to
    /// the free list, so every chain ends dense. Each relocation is written
    /// to `moved` in order (an edge moved twice appears twice, its last
    /// entry final); `moved` needs room for one entry per hole. Returns the
    /// number of relocations. prepare_erase must have run for each hole, so
    /// that freeing tail blocks never allocates.
    std::size_t erase_batch(std::span<const std::uint32_t> holes, bool compact,
                            std::span<Moved> moved) noexcept;

    /// Removes the edge at `pos`: erase_batch of one hole. Returns the
    /// relocation a compacting erase made, if any.
    std::optional<Moved> erase(std::uint32_t pos, bool compact);

    /// Maintenance sweep: rewrites every group chain dense — live slots
    /// slide toward the chain head in streaming order, delete-only holes
    /// vanish, and emptied tail blocks return to the free list, shrinking
    /// memory_bytes(). `rebind(owner, new_pos)` fires for every relocated
    /// edge so the owning edge-cells' CAL pointers stay bound. Returns the
    /// number of holes reclaimed.
    std::size_t compact_chains(
        const std::function<void(CellRef, std::uint32_t)>& rebind);

    void update_weight(std::uint32_t pos, Weight weight);

    /// Rewrites the owner backreference (called when the owning edge-cell
    /// moves inside the EdgeblockArray).
    void rebind(std::uint32_t pos, CellRef owner);

    /// Streams every live edge, group chain by group chain: fn(src, dst, w),
    /// where fn may return void (stream everything) or bool (false stops the
    /// scan; returns false when cut short). Sources are *raw* vertex ids.
    template <typename Fn>
    bool visit_edges(Fn&& fn) const {
        for (const GroupMeta& group : groups_) {
            for (std::uint32_t b = group.head; b != kNone; b = blocks_[b].next) {
                const std::size_t base =
                    static_cast<std::size_t>(b) * block_edges_;
                const std::uint32_t used = blocks_[b].used;
                for (std::uint32_t i = 0; i < used; ++i) {
                    const CalEdgeSlot& slot = pool_[base + i];
                    if (slot.src != kInvalidVertex) {
                        if (!visit_step(fn, slot.src, slot.dst, slot.weight)) {
                            return false;
                        }
                    }
                }
            }
        }
        return true;
    }

    [[nodiscard]] EdgeCount live_edges() const noexcept { return live_; }
    /// Slots handed out and still scanned during streaming (live + holes).
    [[nodiscard]] EdgeCount scanned_slots() const noexcept { return used_; }
    [[nodiscard]] std::size_t blocks_in_use() const noexcept {
        return blocks_.size() - free_.size();
    }

    /// Bytes held by in-use blocks (pool slots plus chain metadata).
    /// Free-listed blocks are excluded so chain compaction is observable.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return blocks_in_use() * bytes_per_block() +
               groups_.size() * sizeof(GroupMeta);
    }
    /// Bytes of pool storage actually allocated (in-use + free-listed).
    [[nodiscard]] std::size_t memory_capacity_bytes() const noexcept {
        return blocks_.size() * bytes_per_block() +
               groups_.size() * sizeof(GroupMeta);
    }

    /// Test hook: the raw slot at a CAL position.
    struct SlotView {
        VertexId src;
        VertexId dst;
        Weight weight;
        CellRef owner;
        bool valid;
    };
    [[nodiscard]] SlotView slot_at(std::uint32_t pos) const;

private:
    struct CalEdgeSlot {
        VertexId src = kInvalidVertex;  // raw source id; kInvalidVertex = hole
        VertexId dst = kInvalidVertex;
        Weight weight = 0;
        CellRef owner{};
    };

    struct BlockMeta {
        std::uint32_t next = kNone;
        std::uint32_t prev = kNone;
        std::uint32_t group = 0;
        std::uint32_t used = 0;  // bump-allocated slots
    };

    struct GroupMeta {
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
        std::uint32_t blocks = 0;  // chain length, kept where blocks link/free
    };

    static constexpr std::uint32_t kNone = 0xffffffffU;

    [[nodiscard]] std::size_t bytes_per_block() const noexcept {
        return static_cast<std::size_t>(block_edges_) * sizeof(CalEdgeSlot) +
               sizeof(BlockMeta);
    }

    /// Append into an already-resolved (and existing) group.
    std::uint32_t insert_in_group(std::uint32_t group, VertexId raw_src,
                                  VertexId dst, Weight weight, CellRef owner);

    std::uint32_t allocate_block(std::uint32_t group);
    void free_tail_block(GroupMeta& group_meta);
    /// Reserves capacity so the next block allocation and any number of
    /// tail-block frees are nothrow (free_ is kept able to hold every block).
    void reserve_headroom();

    std::uint32_t group_size_;
    std::uint32_t block_edges_;
    // Telemetry handles, resolved once at construction (names "cal.*").
    // Only rare structural events record here — block churn, hole
    // accounting, compaction — never the per-edge append path.
    obs::Registry* registry_ = nullptr;
    std::unique_ptr<obs::Registry> owned_registry_;
    obs::Counter* blocks_allocated_m_ = nullptr;
    obs::Counter* blocks_freed_m_ = nullptr;
    obs::Counter* holes_created_m_ = nullptr;
    obs::Counter* holes_reclaimed_m_ = nullptr;
    obs::Counter* compact_moves_m_ = nullptr;
    obs::Histogram* chain_blocks_m_ = nullptr;
    LineVector<CalEdgeSlot> pool_;
    LineVector<BlockMeta> blocks_;
    std::vector<GroupMeta> groups_;
    std::vector<std::uint32_t> free_;
    EdgeCount live_ = 0;
    EdgeCount used_ = 0;

    // Structural auditor + test-only corruption hook (core/audit.hpp).
    friend class Auditor;
    friend class CorruptionInjector;
};

}  // namespace gt::core

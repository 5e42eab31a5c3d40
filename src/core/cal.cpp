#include "core/cal.hpp"

#include <algorithm>
#include <cassert>

#include "util/failpoint.hpp"
#include "util/simd.hpp"

namespace gt::core {

CoarseAdjacencyList::CoarseAdjacencyList(std::uint32_t group_size,
                                         std::uint32_t block_edges,
                                         obs::Registry* registry)
    : group_size_(group_size), block_edges_(block_edges),
      registry_(registry) {
    assert(group_size_ > 0 && block_edges_ > 0);
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    obs::Registry& r = *registry_;
    blocks_allocated_m_ = &r.counter("cal.blocks_allocated");
    blocks_freed_m_ = &r.counter("cal.blocks_freed");
    holes_created_m_ = &r.counter("cal.holes_created");
    holes_reclaimed_m_ = &r.counter("cal.holes_reclaimed");
    compact_moves_m_ = &r.counter("cal.compact_moves");
    chain_blocks_m_ = &r.histogram("cal.chain_blocks");
}

std::uint32_t CoarseAdjacencyList::allocate_block(std::uint32_t group) {
    std::uint32_t id;
    if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(blocks_.size());
        blocks_.emplace_back();
        pool_.resize(pool_.size() + block_edges_);
    }
    blocks_[id] = BlockMeta{.next = kNone, .prev = kNone, .group = group,
                            .used = 0};
    blocks_allocated_m_->inc();
    return id;
}

void CoarseAdjacencyList::reserve_headroom() {
    // Invariant restored here: free_ can absorb a push for every block that
    // exists (or is about to), so free_tail_block never reallocates.
    if (free_.empty()) {
        // The next append may allocate one fresh block: metadata slot, one
        // block's worth of pool slots, and a free-list slot for its
        // eventual release. Geometric growth — vector::reserve alone would
        // degrade push_back's amortization to O(n^2).
        const std::size_t nblocks = blocks_.size() + 1;
        if (free_.capacity() < nblocks) {
            free_.reserve(std::max<std::size_t>(nblocks * 2, 8));
        }
        if (blocks_.capacity() < nblocks) {
            blocks_.reserve(std::max<std::size_t>(nblocks * 2, 8));
        }
        const std::size_t npool = pool_.size() + block_edges_;
        if (pool_.capacity() < npool) {
            pool_.reserve(std::max(npool, pool_.capacity() * 2));
        }
    } else if (free_.capacity() < blocks_.size()) {
        free_.reserve(blocks_.size());
    }
}

void CoarseAdjacencyList::Appender::prepare() {
    GT_FAILPOINT("cal.grow");
    cal_->reserve_headroom();
}

void CoarseAdjacencyList::prepare_erase() {
    GT_FAILPOINT("cal.grow");
    if (free_.capacity() < blocks_.size()) {
        free_.reserve(blocks_.size());
    }
}

std::uint32_t CoarseAdjacencyList::insert_in_group(std::uint32_t group,
                                                   VertexId raw_src,
                                                   VertexId dst, Weight weight,
                                                   CellRef owner) {
    GroupMeta& meta = groups_[group];
    if (meta.tail == kNone || blocks_[meta.tail].used == block_edges_) {
        const std::uint32_t block = allocate_block(group);
        blocks_[block].prev = meta.tail;
        if (meta.tail == kNone) {
            meta.head = block;
        } else {
            blocks_[meta.tail].next = block;
        }
        meta.tail = block;
        ++meta.blocks;
        // Chain-length distribution, sampled at growth time.
        if constexpr (obs::kEnabled) {
            if (obs::recording()) {
                chain_blocks_m_->record(meta.blocks);
            }
        }
    }
    BlockMeta& tail = blocks_[meta.tail];
    const std::uint32_t pos = meta.tail * block_edges_ + tail.used;
    ++tail.used;
    pool_[pos] = CalEdgeSlot{.src = raw_src, .dst = dst, .weight = weight,
                             .owner = owner};
    ++live_;
    ++used_;
    return pos;
}

void CoarseAdjacencyList::free_tail_block(GroupMeta& meta) {
    assert(meta.tail != kNone && blocks_[meta.tail].used == 0);
    const std::uint32_t old_tail = meta.tail;
    const std::uint32_t prev = blocks_[old_tail].prev;
    meta.tail = prev;
    if (prev == kNone) {
        meta.head = kNone;
    } else {
        blocks_[prev].next = kNone;
    }
    --meta.blocks;
    free_.push_back(old_tail);
    blocks_freed_m_->inc();
}

std::size_t CoarseAdjacencyList::erase_batch(
    std::span<const std::uint32_t> holes, bool compact,
    std::span<Moved> moved) noexcept {
    // Pass 1: mark. Holes are random pool positions, so each one's line is
    // requested a few holes ahead; pass 2 then finds them cached.
    constexpr std::size_t kAhead = 8;
    const std::size_t n = holes.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kAhead < n) {
            simd::prefetch_write(&pool_[holes[i + kAhead]]);
        }
        CalEdgeSlot& victim = pool_[holes[i]];
        assert(victim.src != kInvalidVertex && "double CAL erase");
        victim.src = kInvalidVertex;
    }
    live_ -= n;
    if (!compact) {
        // Delete-only: the holes are skipped during streaming but keep
        // being scanned, which is exactly the degradation Fig 15 measures.
        holes_created_m_->add(n);
        return 0;
    }

    // Pass 2: refill each hole from its group's tail. Every hole is marked
    // by now, so a tail slot that is one is dropped rather than moved, and
    // a hole dropped that way has left its chain (its offset is at or past
    // its block's bump counter, which nothing raises during the pass) and
    // is skipped when its own turn comes. A moved tail edge is live, so its
    // owner backreference is current: every prior cell move re-bound it.
    std::size_t n_moved = 0;
    for (const std::uint32_t pos : holes) {
        const std::uint32_t block = pos / block_edges_;
        if (pos - block * block_edges_ >= blocks_[block].used) {
            continue;
        }
        GroupMeta& meta = groups_[blocks_[block].group];
        for (;;) {
            BlockMeta& tail = blocks_[meta.tail];
            assert(tail.used > 0);
            const std::uint32_t last = meta.tail * block_edges_ + --tail.used;
            --used_;
            CalEdgeSlot& from = pool_[last];
            // `last == pos` is the self-move case: the hole IS the tail slot,
            // and emitting a Moved would re-bind an owner to a vacated slot.
            const bool live = from.src != kInvalidVertex;
            if (live) {
                pool_[pos] = from;
                moved[n_moved++] = Moved{.owner = from.owner, .new_pos = pos};
            }
            from = CalEdgeSlot{};
            if (tail.used == 0) {
                free_tail_block(meta);
            }
            if (live || last == pos) {
                break;
            }
        }
    }
    if (n_moved != 0) {
        compact_moves_m_->add(n_moved);
    }
    return n_moved;
}

std::optional<CoarseAdjacencyList::Moved> CoarseAdjacencyList::erase(
    std::uint32_t pos, bool compact) {
    Moved moved{};
    if (erase_batch({&pos, 1}, compact, {&moved, 1}) == 0) {
        return std::nullopt;
    }
    return moved;
}

std::size_t CoarseAdjacencyList::compact_chains(
    const std::function<void(CellRef, std::uint32_t)>& rebind) {
    std::size_t reclaimed = 0;
    for (GroupMeta& meta : groups_) {
        if (meta.head == kNone) {
            continue;
        }
        // One pass per chain with a trailing write cursor: live slots slide
        // toward the head (preserving streaming order), holes are skipped
        // and every relocated edge's owner is re-bound immediately.
        std::uint32_t wb = meta.head;
        std::uint32_t wslot = 0;
        std::uint64_t live_in_group = 0;
        for (std::uint32_t rb = meta.head; rb != kNone;
             rb = blocks_[rb].next) {
            const std::size_t rbase =
                static_cast<std::size_t>(rb) * block_edges_;
            const std::uint32_t used = blocks_[rb].used;
            for (std::uint32_t i = 0; i < used; ++i) {
                CalEdgeSlot& slot = pool_[rbase + i];
                if (slot.src == kInvalidVertex) {
                    ++reclaimed;  // delete-only hole: drops out of the chain
                    continue;
                }
                ++live_in_group;
                if (wslot == block_edges_) {
                    wb = blocks_[wb].next;
                    wslot = 0;
                }
                const auto wpos =
                    static_cast<std::uint32_t>(wb * block_edges_ + wslot);
                if (wpos != static_cast<std::uint32_t>(rbase + i)) {
                    pool_[wpos] = slot;
                    slot = CalEdgeSlot{};
                    rebind(pool_[wpos].owner, wpos);
                }
                ++wslot;
            }
        }
        if (live_in_group == 0) {
            // Nothing left: the whole chain returns to the free list.
            while (meta.tail != kNone) {
                blocks_[meta.tail].used = 0;
                free_tail_block(meta);
            }
            continue;
        }
        // Rewrite the bump counters — full blocks up to the write cursor,
        // the cursor block partial — and free everything past the cursor.
        for (std::uint32_t b = meta.head;; b = blocks_[b].next) {
            if (b == wb) {
                blocks_[b].used = wslot;
                break;
            }
            blocks_[b].used = block_edges_;
        }
        while (meta.tail != wb) {
            blocks_[meta.tail].used = 0;
            free_tail_block(meta);
        }
    }
    used_ -= reclaimed;
    holes_reclaimed_m_->add(reclaimed);
    return reclaimed;
}

void CoarseAdjacencyList::update_weight(std::uint32_t pos, Weight weight) {
    assert(pool_[pos].src != kInvalidVertex);
    pool_[pos].weight = weight;
}

void CoarseAdjacencyList::rebind(std::uint32_t pos, CellRef owner) {
    assert(pool_[pos].src != kInvalidVertex);
    pool_[pos].owner = owner;
}

CoarseAdjacencyList::SlotView CoarseAdjacencyList::slot_at(
    std::uint32_t pos) const {
    const CalEdgeSlot& slot = pool_[pos];
    return SlotView{.src = slot.src, .dst = slot.dst, .weight = slot.weight,
                    .owner = slot.owner, .valid = slot.src != kInvalidVertex};
}

}  // namespace gt::core

#include "core/edgeblock_array.hpp"

#include <algorithm>
#include <cassert>

#include "core/probe_kernel.hpp"
#include "util/failpoint.hpp"
#include "util/simd.hpp"

namespace {

/// Thread-local landing zone for a stats-deferral scope (see
/// EdgeblockArray::begin_stats_batch): while `target` points at an array's
/// resolved counter handles, that array's per-operation flushes accumulate
/// here in plain integers and hit the shared relaxed atomics once when the
/// scope closes.
struct DeferredStats {
    const gt::core::EbaMetrics* target = nullptr;
    int depth = 0;
    std::uint64_t cells = 0;
    std::uint64_t workblocks = 0;
    std::uint64_t swaps = 0;
    std::uint64_t branch_outs = 0;
};
thread_local DeferredStats g_deferred_stats;

/// Accumulates probe-work counters locally and flushes them through the
/// array's obs::Counter handles once on scope exit — one RMW per operation
/// instead of one per cell inspected. Under an open deferral scope for the
/// same array the flush lands in g_deferred_stats instead, so batched
/// ingest pays the atomic RMWs once per batch rather than once per edge.
/// When `probe_hist` is set, the operation's total probe distance (cells)
/// additionally lands in that histogram — sampled and gated, so the cost
/// with recording off is one predictable branch per op.
struct StatsFlush {
    const gt::core::EbaMetrics& m;
    gt::obs::Histogram* probe_hist = nullptr;
    std::uint64_t cells = 0;
    std::uint64_t workblocks = 0;
    std::uint64_t swaps = 0;
    std::uint64_t branch_outs = 0;
    ~StatsFlush() {
        if (probe_hist != nullptr) {
            probe_hist->record_sampled(cells);
        }
        if (g_deferred_stats.target == &m) {
            g_deferred_stats.cells += cells;
            g_deferred_stats.workblocks += workblocks;
            g_deferred_stats.swaps += swaps;
            g_deferred_stats.branch_outs += branch_outs;
            return;
        }
        if (cells != 0) {
            m.cells_probed->add(cells);
        }
        if (workblocks != 0) {
            m.workblocks_fetched->add(workblocks);
        }
        if (swaps != 0) {
            m.rhh_swaps->add(swaps);
        }
        if (branch_outs != 0) {
            m.branch_outs->add(branch_outs);
        }
    }
};

}  // namespace

namespace gt::core {

EdgeblockArray::EdgeblockArray(const Config& config, CoarseAdjacencyList* cal,
                               obs::Registry* registry)
    : pagewidth_(config.pagewidth),
      subblock_(config.subblock),
      workblock_(config.workblock),
      spb_(config.pagewidth / config.subblock),
      rhh_(config.rhh_active()),
      compact_delete_(config.deletion_mode == DeletionMode::DeleteAndCompact),
      kernel_ok_(config.subblock <= 64),
      words_per_block_((config.pagewidth + 63) / 64),
      cal_(cal),
      registry_(registry) {
    config.validate();
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    obs::Registry& r = *registry_;
    metrics_.cells_probed = &r.counter("eba.cells_probed");
    metrics_.workblocks_fetched = &r.counter("eba.workblocks_fetched");
    metrics_.rhh_swaps = &r.counter("eba.rhh_swaps");
    metrics_.branch_outs = &r.counter("eba.branch_outs");
    metrics_.compaction_moves = &r.counter("eba.compaction_moves");
    metrics_.blocks_freed = &r.counter("eba.blocks_freed");
    metrics_.trees_rebuilt = &r.counter("eba.trees_rebuilt");
    metrics_.tombstones_purged = &r.counter("eba.tombstones_purged");
    metrics_.unbranch_moves = &r.counter("eba.unbranch_moves");
    metrics_.find_probe_cells = &r.histogram("eba.find_probe_cells");
    metrics_.insert_probe_cells = &r.histogram("eba.insert_probe_cells");
    if (config.reserve_edges > 0) {
        // Pre-size the arena eagerly (resize, not reserve) so the bulk
        // fills and first-touch page faults happen here instead of on the
        // insert hot path. Hash-sharded subblocks branch out well before a
        // block fills (skewed streams average ~a quarter occupancy), hence
        // the 4-edges-per-pagewidth sizing; geometric growth in
        // allocate_block covers any tail.
        const std::size_t blocks = std::min<std::size_t>(
            static_cast<std::size_t>(config.reserve_edges * 4 / pagewidth_) +
                config.initial_vertices + 1,
            kNoBlock - 1);
        grow_storage(static_cast<std::uint32_t>(blocks));
    }
}

void EdgeblockArray::grow_storage(std::uint32_t target) {
    // Resize order is failure-safe: if any resize throws, the vectors that
    // already grew merely carry unused slack (block_count_ and
    // storage_blocks_ are written only after every resize landed), so the
    // arena stays consistent. The line allocator keeps every reallocated
    // buffer cache-line aligned.
    const std::size_t cells = static_cast<std::size_t>(target) * pagewidth_;
    cells_.resize(cells + kArenaPadCells);
    cal_pos_.resize(cells, kNoCalPos);
    children_.resize(static_cast<std::size_t>(target) * spb_, kNoBlock);
    occupied_.resize(target, 0);
    masks_.resize(static_cast<std::size_t>(target) * words_per_block_ * 2, 0);
    storage_blocks_ = target;
}

void EdgeblockArray::ensure_block_available() {
    if (!free_blocks_.empty() || block_count_ < storage_blocks_) {
        return;
    }
    GT_FAILPOINT("eba.grow");
    // Grow the arena by many blocks at once: branch-outs allocate
    // constantly on the insert hot path, and five small resizes per
    // block (each element-constructing one block's worth of cells)
    // cost more than one bulk fill amortized over the chunk.
    grow_storage(std::max({block_count_ + 1,
                           storage_blocks_ + storage_blocks_ / 2, 64U}));
}

std::uint32_t EdgeblockArray::allocate_block() {
    std::uint32_t block;
    if (!free_blocks_.empty()) {
        block = free_blocks_.back();
        free_blocks_.pop_back();
    } else {
        block = block_count_++;
        if (block_count_ > storage_blocks_) {
            // Growth fallback for paths that skipped the pre-flight
            // (maintenance rebuilds); the insert path always runs
            // ensure_block_available first, so it never grows here.
            grow_storage(std::max(
                {block_count_, storage_blocks_ + storage_blocks_ / 2, 64U}));
        }
        return block;  // freshly appended storage is already cleared
    }
    // Free-listed blocks were scrubbed clean by free_block (an invariant
    // the auditor enforces), so recycling is pop-and-go.
    assert(occupied_[block] == 0);
    return block;
}

void EdgeblockArray::free_block(std::uint32_t block) {
    assert(occupied_[block] == 0);
    // Scrub on the way out so free-listed blocks hold no live or tombstoned
    // cells and no child links — allocate_block recycles them without
    // re-clearing, and the auditor checks reclaimed blocks are genuinely
    // empty. The masks are the cells' state, so clearing them empties every
    // cell; stale dst/weight/CAL bytes are never read while unoccupied.
    for (std::uint32_t w = 0; w < words_per_block_; ++w) {
        masks_[occ_word(block, w)] = 0;
        masks_[tomb_word(block, w)] = 0;
    }
    for (std::uint32_t s = 0; s < spb_; ++s) {
        child(block, s) = kNoBlock;
    }
    free_blocks_.push_back(block);
    metrics_.blocks_freed->inc();
}

void EdgeblockArray::free_subtree(std::uint32_t block) {
    for (std::uint32_t s = 0; s < spb_; ++s) {
        const std::uint32_t c = child(block, s);
        if (c != kNoBlock) {
            free_subtree(c);
            child(block, s) = kNoBlock;
        }
    }
    free_block(block);
}

bool EdgeblockArray::subtree_is_empty(std::uint32_t block) const {
    if (occupied_[block] != 0) {
        return false;
    }
    for (std::uint32_t s = 0; s < spb_; ++s) {
        if (child(block, s) != kNoBlock) {
            return false;  // descendants were pruned eagerly; conservative
        }
    }
    return true;
}

void EdgeblockArray::begin_stats_batch() const noexcept {
    if (g_deferred_stats.depth++ == 0) {
        g_deferred_stats.target = &metrics_;
    }
}

void EdgeblockArray::end_stats_batch() const noexcept {
    if (--g_deferred_stats.depth != 0) {
        return;
    }
    if (g_deferred_stats.target != nullptr) {
        const EbaMetrics& m = *g_deferred_stats.target;
        if (g_deferred_stats.cells != 0) {
            m.cells_probed->add(g_deferred_stats.cells);
        }
        if (g_deferred_stats.workblocks != 0) {
            m.workblocks_fetched->add(g_deferred_stats.workblocks);
        }
        if (g_deferred_stats.swaps != 0) {
            m.rhh_swaps->add(g_deferred_stats.swaps);
        }
        if (g_deferred_stats.branch_outs != 0) {
            m.branch_outs->add(g_deferred_stats.branch_outs);
        }
    }
    g_deferred_stats = DeferredStats{};
}

FindStep EdgeblockArray::find_in_window(std::uint32_t block,
                                        std::uint32_t sb_base,
                                        std::uint32_t level,
                                        VertexId dst) const {
    if (kernel_ok_) {
        // Bit-parallel FIND: one SIMD dst compare over the subblock plus
        // the occupancy/tombstone windows decide found/absent/descend
        // without a per-cell walk (see core/probe_kernel.hpp).
        const WindowBits bits = window_bits(block, sb_base);
        const SubblockWindow w{&cells_[index(block, sb_base)], subblock_,
                               bits.occ, bits.tomb};
        return rhh_ ? find_step<kProbeKernelSimd>(w, home_of(dst, level), dst)
                    : find_step_full<kProbeKernelSimd>(w, dst);
    }
    // Windows wider than one mask word: the same decisions, cell by cell.
    if (rhh_) {
        // Probe-order scan with Robin Hood early exit. An EMPTY cell on the
        // probe path proves the key is absent at this level *and* below:
        // had the key ever been pushed deeper, this window was congested at
        // that moment, and delete-only mode never turns an occupied cell
        // back into EMPTY (deletes tombstone).
        const std::uint32_t home = home_of(dst, level);
        for (std::uint32_t d = 0; d < subblock_; ++d) {
            const std::uint32_t off = (home + d) & (subblock_ - 1);
            const CellState state = state_of(block, sb_base + off);
            if (state == CellState::Empty) {
                return FindStep{FindStep::Kind::Absent, 0, d + 1};
            }
            if (state == CellState::Occupied &&
                cell(block, sb_base + off).dst == dst) {
                return FindStep{FindStep::Kind::Found, off, d + 1};
            }
        }
        return FindStep{FindStep::Kind::Descend, 0, subblock_};
    }
    // No Robin Hood order: the whole window is inspected (find_step_full).
    bool empty = false;
    for (std::uint32_t off = 0; off < subblock_; ++off) {
        const CellState state = state_of(block, sb_base + off);
        if (state == CellState::Occupied &&
            cell(block, sb_base + off).dst == dst) {
            return FindStep{FindStep::Kind::Found, off, subblock_};
        }
        empty = empty || state == CellState::Empty;
    }
    return FindStep{empty ? FindStep::Kind::Absent : FindStep::Kind::Descend,
                    0, subblock_};
}

std::optional<CellRef> EdgeblockArray::first_unoccupied(
    std::uint32_t block, std::uint32_t sb_base, std::uint32_t home) const {
    if (kernel_ok_) {
        const std::uint64_t free =
            ~window_bits(block, sb_base).occ & window_mask(subblock_);
        const std::uint32_t d = first_probe_dist(free, home, subblock_);
        if (d == subblock_) {
            return std::nullopt;
        }
        return CellRef{block, sb_base + ((home + d) & (subblock_ - 1))};
    }
    for (std::uint32_t d = 0; d < subblock_; ++d) {
        const std::uint32_t slot = sb_base + ((home + d) & (subblock_ - 1));
        if (!is_occupied(block, slot)) {
            return CellRef{block, slot};
        }
    }
    return std::nullopt;
}

std::optional<EdgeblockArray::Located> EdgeblockArray::locate(
    std::uint32_t top, VertexId dst) const {
    StatsFlush flush{metrics_, metrics_.find_probe_cells};
    std::uint32_t block = top;
    std::uint32_t level = 0;
    while (block != kNoBlock) {
        const std::uint32_t sb = sb_of(dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        const FindStep step = find_in_window(block, sb_base, level, dst);
        flush.cells += step.scanned;
        flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
        if (step.kind == FindStep::Kind::Found) {
            return Located{block, sb, sb_base + step.slot};
        }
        if (step.kind == FindStep::Kind::Absent) {
            return std::nullopt;
        }
        block = child(block, sb);
        ++level;
    }
    return std::nullopt;
}

std::optional<Weight> EdgeblockArray::find(std::uint32_t top,
                                           VertexId dst) const {
    if (const auto loc = locate(top, dst)) {
        return cell(loc->block, loc->slot).weight;
    }
    return std::nullopt;
}

EdgeblockArray::InsertResult EdgeblockArray::insert(
    std::uint32_t& top, VertexId dst, Weight weight,
    std::uint32_t new_cal_pos) {
    const ProbeResult probe = probe_insert(top, dst, weight);
    switch (probe.kind) {
        case ProbeResult::Kind::Duplicate:
            return InsertResult{false, probe.cal_pos};
        case ProbeResult::Kind::PlaceAt:
            place_at(probe.where, dst, weight, new_cal_pos);
            if (cal_ != nullptr && new_cal_pos != kNoCalPos) {
                cal_->rebind(new_cal_pos, probe.where);
            }
            return InsertResult{true, kNoCalPos};
        case ProbeResult::Kind::Absent:
            insert_new(top, dst, weight, new_cal_pos, probe.resume_block,
                       probe.resume_level);
            return InsertResult{true, kNoCalPos};
    }
    return InsertResult{};  // unreachable
}

EdgeblockArray::ProbeResult EdgeblockArray::probe_insert(std::uint32_t& top,
                                                         VertexId dst,
                                                         Weight weight) {
    StatsFlush flush{metrics_, metrics_.insert_probe_cells};
    if (top == kNoBlock) {
        top = allocate_block();
        const std::uint32_t sb = sb_of(dst, 0);
        const std::uint32_t home = home_of(dst, 0);
        ++flush.cells;
        return ProbeResult{ProbeResult::Kind::PlaceAt, kNoCalPos,
                           CellRef{top, sb * subblock_ + home}};
    }
    // Duplicate: overwrite the weight in place, keeping the old one for
    // the batch undo journal.
    const auto duplicate = [&](std::uint32_t block, std::uint32_t slot) {
        EdgeCell& c = cell(block, slot);
        ProbeResult dup{ProbeResult::Kind::Duplicate,
                        cal_pos_[index(block, slot)], CellRef{}};
        dup.prev_weight = c.weight;
        c.weight = weight;
        return dup;
    };
    std::uint32_t block = top;
    std::uint32_t level = 0;
    // Where insert_new resumes when the probe returns Absent: see the
    // ProbeResult fields.
    std::uint32_t resume_block = top;
    std::uint32_t resume_level = 0;
    if (!rhh_) {
        // Without Robin Hood swaps the INSERT cascade puts an edge on the
        // first unoccupied cell (EMPTY or tombstone) of the first window on
        // its path that has one, so the FIND walk pins that cell on the
        // way. The walk ends at the first window holding an EMPTY cell (one
        // that links a child never does); when it falls off the tree
        // without passing an unoccupied cell, the deepest block is the
        // resume point and insert_new branches out below it.
        std::optional<CellRef> place;
        while (block != kNoBlock) {
            const std::uint32_t sb = sb_of(dst, level);
            const std::uint32_t sb_base = sb * subblock_;
            simd::prefetch_write(&cal_pos_[index(block, sb_base)]);
            const FindStep step = find_in_window(block, sb_base, level, dst);
            flush.cells += step.scanned;
            flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
            if (step.kind == FindStep::Kind::Found) {
                return duplicate(block, sb_base + step.slot);
            }
            if (!place) {
                place = first_unoccupied(block, sb_base, home_of(dst, level));
            }
            if (step.kind == FindStep::Kind::Absent) {
                break;
            }
            resume_block = block;
            resume_level = level;
            block = child(block, sb);
            ++level;
        }
        if (place) {
            return ProbeResult{ProbeResult::Kind::PlaceAt, kNoCalPos, *place};
        }
        return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos, CellRef{},
                           resume_block, resume_level};
    }
    // A tombstone or Robin Hood swap point earlier on the probe path means
    // insertion belongs there rather than at a later EMPTY cell; the full
    // INSERT cascade handles those (rarer) cases. The first such point (or
    // the deepest block when the walk exhausts the tree) is handed back as
    // the cascade's resume point so it need not re-walk the levels above,
    // which are full windows with nothing for it to do.
    bool earlier_candidate = false;
    if (kernel_ok_) {
        // Bit-parallel fused FIND/INSERT (see core/probe_kernel.hpp):
        // duplicate and first-EMPTY detection run on the subblock's masks
        // and one SIMD dst compare per level.
        while (block != kNoBlock) {
            const std::uint32_t sb = sb_of(dst, level);
            const std::uint32_t sb_base = sb * subblock_;
            // The walk usually ends writing this window's CAL pointers (a
            // placement or a weight update): fetch that line alongside.
            simd::prefetch_write(&cal_pos_[index(block, sb_base)]);
            const WindowBits bits = window_bits(block, sb_base);
            const SubblockWindow w{&cells_[index(block, sb_base)], subblock_,
                                   bits.occ, bits.tomb};
            const ProbeStep step = probe_step<kProbeKernelSimd>(
                w, home_of(dst, level), dst, [&](std::uint32_t off) {
                    return displacement(w.cells[off].dst, level, off);
                });
            flush.cells += step.scanned;
            flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
            if (step.kind == ProbeStep::Kind::Duplicate) {
                return duplicate(block, sb_base + step.slot);
            }
            if (!earlier_candidate) {
                if (step.candidate) {
                    earlier_candidate = true;
                    resume_block = block;
                    resume_level = level;
                }
            }
            if (step.kind == ProbeStep::Kind::Empty) {
                if (!earlier_candidate) {
                    return ProbeResult{ProbeResult::Kind::PlaceAt, kNoCalPos,
                                       CellRef{block, sb_base + step.slot}};
                }
                return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos,
                                   CellRef{}, resume_block, resume_level};
            }
            if (!earlier_candidate) {
                // Full window, nothing reusable: the cascade would cross
                // this level verbatim, so keep the resume point below it.
                resume_block = block;
                resume_level = level;
            }
            block = child(block, sb);
            ++level;
        }
        return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos, CellRef{},
                           resume_block, resume_level};
    }
    while (block != kNoBlock) {
        const std::uint32_t sb = sb_of(dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        const std::uint32_t home = home_of(dst, level);
        for (std::uint32_t d = 0; d < subblock_; ++d) {
            const std::uint32_t off = (home + d) & (subblock_ - 1);
            const std::uint32_t slot = sb_base + off;
            const CellState state = state_of(block, slot);
            ++flush.cells;
            if (state == CellState::Empty) {
                // Key absent at this level and every level below (see
                // locate() for the invariant).
                if (!earlier_candidate) {
                    return ProbeResult{ProbeResult::Kind::PlaceAt, kNoCalPos,
                                       CellRef{block, slot}};
                }
                return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos,
                                   CellRef{}, resume_block, resume_level};
            }
            if (state == CellState::Tombstone) {
                if (!earlier_candidate) {
                    earlier_candidate = true;
                    resume_block = block;
                    resume_level = level;
                }
                continue;
            }
            const VertexId resident = cell(block, slot).dst;
            if (resident == dst) {
                return duplicate(block, slot);
            }
            if (!earlier_candidate && displacement(resident, level, off) < d) {
                earlier_candidate = true;  // RHH would displace here
                resume_block = block;
                resume_level = level;
            }
        }
        flush.workblocks += subblock_ / workblock_;
        if (!earlier_candidate) {
            resume_block = block;
            resume_level = level;
        }
        block = child(block, sb);
        ++level;
    }
    return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos, CellRef{},
                       resume_block, resume_level};
}

void EdgeblockArray::insert_new(std::uint32_t& top, VertexId dst,
                                Weight weight, std::uint32_t new_cal_pos,
                                std::uint32_t start_block,
                                std::uint32_t start_level) {
    if (top == kNoBlock) {
        top = allocate_block();
        start_block = kNoBlock;
    }
    // INSERT mode: Robin Hood within the subblock, Tree-Based Hashing
    // descent on congestion. `carry` is the floating edge; after a swap it
    // becomes the displaced resident. Every element placed into a cell has
    // its CAL copy re-bound to the new location — the new edge included,
    // since it carries `new_cal_pos` from the start. When the caller's
    // probe proved the levels above `start_block` are full windows with no
    // tombstone and no swap point, the cascade resumes there directly.
    StatsFlush flush{metrics_, metrics_.insert_probe_cells};
    std::uint32_t block = start_block == kNoBlock ? top : start_block;
    std::uint32_t level = start_block == kNoBlock ? 0 : start_level;
    LiveEdge carry{dst, weight, new_cal_pos};
    std::uint32_t dist = 0;  // carry's probe distance on entering a level
    for (;;) {
        const std::uint32_t sb = sb_of(carry.dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        std::uint32_t home = home_of(carry.dst, level);
        bool placed = false;
        while (dist < subblock_) {
            const std::uint32_t off = (home + dist) & (subblock_ - 1);
            const std::uint32_t slot = sb_base + off;
            ++flush.cells;
            if (!is_occupied(block, slot)) {
                fill(block, slot, carry);
                if (cal_ != nullptr && carry.cal_pos != kNoCalPos) {
                    cal_->rebind(carry.cal_pos, CellRef{block, slot});
                }
                placed = true;
                break;
            }
            EdgeCell& resident = cell(block, slot);
            const std::uint32_t resident_probe =
                rhh_ ? displacement(resident.dst, level, off) : subblock_;
            if (resident_probe < dist) {
                // Rob the rich: the floater takes this cell, the richer
                // resident is displaced and continues probing. (Without
                // RHH the resident counts as never richer.)
                std::uint32_t& resident_cal = cal_pos_[index(block, slot)];
                std::swap(resident.dst, carry.dst);
                std::swap(resident.weight, carry.weight);
                std::swap(resident_cal, carry.cal_pos);
                ++flush.swaps;
                if (cal_ != nullptr && resident_cal != kNoCalPos) {
                    cal_->rebind(resident_cal, CellRef{block, slot});
                }
                // Continue as the displaced edge: same subblock (everything
                // here hashed to it), but its own home offset and probe.
                home = home_of(carry.dst, level);
                dist = resident_probe;
            }
            ++dist;
        }
        if (placed) {
            break;
        }
        // Subblock congested: branch out (Tree-Based Hashing). NB: allocate
        // first — allocate_block() may reallocate children_, so the child
        // slot must be re-resolved afterwards.
        std::uint32_t down = child(block, sb);
        if (down == kNoBlock) {
            down = allocate_block();
            child(block, sb) = down;
            ++flush.branch_outs;
        }
        block = down;
        ++level;
        dist = 0;
    }
}

bool EdgeblockArray::extract_deepest(std::uint32_t block, LiveEdge& out) {
    // Descend first: the victim must come from the deepest populated block so
    // compaction shortens probe paths.
    for (std::uint32_t s = 0; s < spb_; ++s) {
        std::uint32_t& c = child(block, s);
        if (c == kNoBlock) {
            continue;
        }
        if (extract_deepest(c, out)) {
            if (subtree_is_empty(c)) {
                free_block(c);
                c = kNoBlock;
            }
            return true;
        }
        // The child's subtree held nothing: prune it.
        free_subtree(c);
        c = kNoBlock;
    }
    if (occupied_[block] == 0) {
        return false;
    }
    for (std::uint32_t w = 0; w < words_per_block_; ++w) {
        const std::uint64_t bits = masks_[occ_word(block, w)];
        if (bits == 0) {
            continue;
        }
        const auto slot =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const EdgeCell& c = cell(block, slot);
        out = LiveEdge{c.dst, c.weight, cal_pos_[index(block, slot)]};
        --occupied_[block];
        set_occupancy(block, slot, false);
        return true;
    }
    assert(false && "occupied_ count out of sync");
    return false;
}

void EdgeblockArray::refill_hole(std::uint32_t block, std::uint32_t sb,
                                 std::uint32_t slot) {
    std::uint32_t& down = child(block, sb);
    if (down == kNoBlock) {
        return;
    }
    LiveEdge victim{};
    if (!extract_deepest(down, victim)) {
        free_subtree(down);
        down = kNoBlock;
        return;
    }
    // Any edge in the subtree hashes to this subblock at this level, so it
    // may legally occupy the hole (its displacement is derived from where
    // it lands).
    fill(block, slot, victim);
    if (cal_ != nullptr && victim.cal_pos != kNoCalPos) {
        cal_->rebind(victim.cal_pos, CellRef{block, slot});
    }
    metrics_.compaction_moves->inc();
    if (down != kNoBlock && subtree_is_empty(down)) {
        free_block(down);
        down = kNoBlock;
    }
}

EdgeblockArray::EraseResult EdgeblockArray::erase(std::uint32_t& top,
                                                  VertexId dst) {
    if (top != kNoBlock) {
        // Most erases find their edge at level 0 and read its CAL pointer
        // next: fetch that line alongside the walk's own.
        simd::prefetch(&cal_pos_[index(top, sb_of(dst, 0) * subblock_)]);
    }
    const auto loc = locate(top, dst);
    if (!loc) {
        return EraseResult{};
    }
    const std::uint32_t cal_pos = cal_pos_[index(loc->block, loc->slot)];
    const Weight weight = cell(loc->block, loc->slot).weight;
    if (!compact_delete_) {
        // Delete-only: tombstone the cell; probing sees the slot as vacant
        // for future inserts but nothing shrinks.
        --occupied_[loc->block];
        set_occupancy(loc->block, loc->slot, false);
        set_tombstone(loc->block, loc->slot, true);
        return EraseResult{true, cal_pos, weight};
    }
    --occupied_[loc->block];
    set_occupancy(loc->block, loc->slot, false);
    refill_hole(loc->block, loc->sb, loc->slot);
    // Prune the now-possibly-empty tail of the hash path so the structure
    // keeps shrinking as the graph shrinks (paper: "the data structure
    // shrinks as more edges are deleted").
    prune_path(top, dst);
    if (top != kNoBlock && subtree_is_empty(top)) {
        free_block(top);
        top = kNoBlock;
    }
    return EraseResult{true, cal_pos, weight};
}

void EdgeblockArray::prune_path(std::uint32_t top, VertexId dst) {
    if (top == kNoBlock) {
        return;
    }
    // Record the descent path of dst, then free empty childless blocks from
    // the deepest level upward.
    struct Step {
        std::uint32_t block;
        std::uint32_t sb;
    };
    Step path[kMaxPruneDepth];
    std::size_t depth = 0;
    std::uint32_t block = top;
    std::uint32_t level = 0;
    while (block != kNoBlock && depth < kMaxPruneDepth) {
        const std::uint32_t sb = sb_of(dst, level);
        path[depth++] = Step{block, sb};
        block = child(block, sb);
        ++level;
    }
    for (std::size_t i = depth; i-- > 1;) {
        const std::uint32_t b = path[i].block;
        if (subtree_is_empty(b)) {
            free_block(b);
            child(path[i - 1].block, path[i - 1].sb) = kNoBlock;
        } else {
            break;
        }
    }
}

void EdgeblockArray::prefetch_probe(std::uint32_t top,
                                    VertexId dst) const noexcept {
    if (top == kNoBlock || top >= block_count_) {
        return;
    }
    // The first probe of (top, dst) reads the level-0 window's cells and
    // the mask words covering it.
    const std::uint32_t sb0 = sb_of(dst, 0);
    prefetch_window(top, sb0 * subblock_);
    // Warm the child handle too so the second prefetch stage
    // (prefetch_probe_child) can read it without its own miss.
    simd::prefetch(&children_[static_cast<std::size_t>(top) * spb_ + sb0]);
}

void EdgeblockArray::prefetch_probe_child(std::uint32_t top,
                                          VertexId dst) const noexcept {
    if (top == kNoBlock || top >= block_count_) {
        return;
    }
    const std::uint32_t sb0 = sb_of(dst, 0);
    // Only chase the child when the level-0 window is full: that is the
    // only case where the probe descends, and the masks are already cached
    // from the first prefetch stage, so this peek is (nearly) free.
    const WindowBits bits = window_bits(top, sb0 * subblock_);
    const std::uint64_t full =
        subblock_ >= 64 ? ~0ULL : (1ULL << subblock_) - 1;
    if (bits.occ != full) {
        return;
    }
    const std::uint32_t c = child(top, sb0);
    if (c == kNoBlock || c >= block_count_) {
        return;
    }
    prefetch_window(c, sb_of(dst, 1) * subblock_);
}

EdgeblockArray::TreeLoad EdgeblockArray::tree_load(std::uint32_t top) const {
    TreeLoad load;
    if (top == kNoBlock) {
        return load;
    }
    std::vector<std::uint32_t> stack{top};
    while (!stack.empty()) {
        const std::uint32_t block = stack.back();
        stack.pop_back();
        ++load.blocks;
        load.live += occupied_[block];
        for (std::uint32_t w = 0; w < words_per_block_; ++w) {
            load.tombstones += static_cast<std::uint32_t>(
                std::popcount(masks_[tomb_word(block, w)]));
        }
        for (std::uint32_t s = 0; s < spb_; ++s) {
            if (child(block, s) != kNoBlock) {
                stack.push_back(child(block, s));
            }
        }
    }
    return load;
}

std::uint32_t EdgeblockArray::rebuild_tree(std::uint32_t& top) {
    if (top == kNoBlock) {
        return 0;
    }
    // Collect the live cells, freeing each block as it is drained. The
    // freed blocks land on the free list before the reinsert below starts
    // allocating, so a rebuild recycles its own storage instead of growing
    // the arena.
    std::vector<LiveEdge> live;
    std::vector<std::uint32_t> stack{top};
    std::uint64_t tombstones = 0;
    while (!stack.empty()) {
        const std::uint32_t block = stack.back();
        stack.pop_back();
        for (std::uint32_t w = 0; w < words_per_block_; ++w) {
            std::uint64_t bits = masks_[occ_word(block, w)];
            while (bits != 0) {
                const auto slot =
                    w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                const EdgeCell& c = cell(block, slot);
                live.push_back(
                    LiveEdge{c.dst, c.weight, cal_pos_[index(block, slot)]});
            }
            tombstones += static_cast<std::uint64_t>(
                std::popcount(masks_[tomb_word(block, w)]));
        }
        for (std::uint32_t s = 0; s < spb_; ++s) {
            std::uint32_t& down = child(block, s);
            if (down != kNoBlock) {
                stack.push_back(down);
                down = kNoBlock;
            }
        }
        occupied_[block] = 0;
        free_block(block);
    }
    top = kNoBlock;
    metrics_.tombstones_purged->add(tombstones);
    metrics_.trees_rebuilt->inc();
    // Reinsert through the regular INSERT cascade: placement invariants
    // (including the delete-only EMPTY-exit soundness) hold by construction
    // in a tombstone-free tree, and every placement re-binds the cell's CAL
    // copy exactly as a fresh build would.
    for (const LiveEdge& e : live) {
        insert_new(top, e.dst, e.weight, e.cal_pos);
    }
    return static_cast<std::uint32_t>(live.size());
}

std::uint32_t EdgeblockArray::subtree_live(std::uint32_t block) const {
    std::uint32_t live = occupied_[block];
    for (std::uint32_t s = 0; s < spb_; ++s) {
        const std::uint32_t down = child(block, s);
        if (down != kNoBlock) {
            live += subtree_live(down);
        }
    }
    return live;
}

std::uint32_t EdgeblockArray::unbranch(std::uint32_t& top) {
    if (top == kNoBlock || rhh_) {
        return 0;  // RHH probe-order placement forbids out-of-order pull-ups
    }
    return unbranch_block(top);
}

std::uint32_t EdgeblockArray::unbranch_block(std::uint32_t block) {
    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < spb_; ++s) {
        std::uint32_t& down = child(block, s);
        if (down == kNoBlock) {
            continue;
        }
        // Post-order: merge the deepest generations first so this child's
        // census below reflects its already-shrunk subtree.
        moved += unbranch_block(down);
        const std::uint32_t live = subtree_live(down);
        if (live == 0) {
            free_subtree(down);
            down = kNoBlock;
            continue;
        }
        const std::uint32_t sb_base = s * subblock_;
        std::uint32_t free_slots = 0;
        for (std::uint32_t off = 0; off < subblock_; ++off) {
            if (!is_occupied(block, sb_base + off)) {
                ++free_slots;
            }
        }
        if (live > free_slots) {
            continue;
        }
        // Every edge under the child hashes to this window at this level
        // (the branch-out that created it proves so), so each may legally
        // take any free slot, as in refill_hole.
        LiveEdge victim{};
        std::uint32_t off = 0;
        while (down != kNoBlock && extract_deepest(down, victim)) {
            while (is_occupied(block, sb_base + off)) {
                ++off;
            }
            const std::uint32_t slot = sb_base + off;
            fill(block, slot, victim);
            if (cal_ != nullptr && victim.cal_pos != kNoCalPos) {
                cal_->rebind(victim.cal_pos, CellRef{block, slot});
            }
            ++moved;
            metrics_.unbranch_moves->inc();
        }
        if (down != kNoBlock) {
            free_subtree(down);  // only empties/tombstones remain
            down = kNoBlock;
        }
    }
    return moved;
}

std::uint64_t EdgeblockArray::tombstones_in_arena() const noexcept {
    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < block_count_; ++b) {
        for (std::uint32_t w = 0; w < words_per_block_; ++w) {
            total += static_cast<std::uint64_t>(
                std::popcount(masks_[tomb_word(b, w)]));
        }
    }
    return total;
}

std::uint32_t EdgeblockArray::subtree_depth(std::uint32_t top) const {
    if (top == kNoBlock) {
        return 0;
    }
    std::uint32_t depth = 0;
    for (std::uint32_t s = 0; s < spb_; ++s) {
        const std::uint32_t c = child(top, s);
        if (c != kNoBlock) {
            depth = std::max(depth, subtree_depth(c));
        }
    }
    return depth + 1;
}

}  // namespace gt::core

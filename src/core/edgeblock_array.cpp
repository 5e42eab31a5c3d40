#include "core/edgeblock_array.hpp"

#include <algorithm>
#include <cassert>
#include <new>

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
struct StatsFlush : gt::core::ProbeWork {
    StatsFlush(const gt::core::EbaMetrics& metrics,
               gt::obs::Histogram* hist) noexcept
        : m(metrics), probe_hist(hist) {}
    StatsFlush(const StatsFlush&) = delete;
    StatsFlush& operator=(const StatsFlush&) = delete;
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

    const gt::core::EbaMetrics& m;
    gt::obs::Histogram* probe_hist;
};

}  // namespace

namespace gt::core {

namespace {

/// Arena indices stay below the handle's class bit.
constexpr std::uint32_t kMaxArenaBlocks = EdgeblockArray::kNarrowTag - 1;

}  // namespace

EdgeblockArray::EdgeblockArray(const Config& config, CoarseAdjacencyList* cal,
                               obs::Registry* registry)
    : pagewidth_(config.pagewidth),
      subblock_(config.subblock),
      workblock_(config.workblock),
      spb_(config.pagewidth / config.subblock),
      rhh_(config.rhh_active()),
      cal_(cal),
      registry_(registry) {
    config.validate();
    arenas_[0].width = pagewidth_;
    arenas_[0].words = (pagewidth_ + 63) / 64;
    arenas_[1].width = subblock_;
    arenas_[1].words = (subblock_ + 63) / 64;
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
    metrics_.promotions = &r.counter("eba.promotions");
    metrics_.demotions = &r.counter("eba.demotions");
    metrics_.find_probe_cells = &r.histogram("eba.find_probe_cells");
    metrics_.insert_probe_cells = &r.histogram("eba.insert_probe_cells");
    if (config.reserve_edges > 0) {
        // Pre-size the arenas eagerly (resize, not reserve) so the bulk
        // fills and first-touch page faults happen here instead of on the
        // insert hot path. Without narrow tops, hash-sharded subblocks
        // branch out well before a block fills (skewed streams average ~a
        // quarter occupancy), hence 4 edges per pagewidth plus a top per
        // expected vertex. With them, the census of a churned power-law
        // window (1M edges over 190k sources at 64/8/4) is one narrow top
        // per 6 edges and one wide block per 24. Geometric growth covers
        // any tail.
        const std::uint64_t edges = config.reserve_edges;
        const std::uint64_t tops = config.initial_vertices + 1;
        const auto cap = [](std::uint64_t blocks) {
            return std::min<std::uint64_t>(blocks, kMaxArenaBlocks);
        };
        if (has_narrow_class()) {
            grow_storage(BlockClass::Narrow, cap(edges / 6 + tops));
            grow_storage(BlockClass::Wide, cap(edges / 24 + 1));
        } else {
            grow_storage(BlockClass::Wide, cap(edges * 4 / pagewidth_ + tops));
        }
    }
}

void EdgeblockArray::grow_storage(BlockClass c, std::uint64_t need) {
    // Grow by many blocks at once: branch-outs and new tops allocate
    // constantly on the insert hot path, and five small resizes per block
    // (each element-constructing one block's worth of cells) cost more
    // than one bulk fill amortized over the chunk.
    Arena& a = arenas_[static_cast<std::size_t>(c)];
    const std::uint64_t target = std::min<std::uint64_t>(
        std::max<std::uint64_t>(
            {need, std::uint64_t{a.storage} + a.storage / 2, 64}),
        kMaxArenaBlocks);
    if (target < need) {
        throw std::bad_alloc();
    }
    // Resize order is failure-safe: if any resize throws, the vectors that
    // already grew merely carry unused slack (count and storage are written
    // only after every resize landed), so the arena stays consistent. The
    // line allocator keeps every reallocated buffer cache-line aligned.
    const std::size_t cells = target * a.width;
    a.cells.resize(cells + kArenaPadCells);
    a.cal_pos.resize(cells, kNoCalPos);
    if (c == BlockClass::Wide) {
        children_.resize(target * spb_, kNoBlock);
    }
    a.masks.resize(target * a.words * 2, 0);
    a.free.reserve(target);
    a.storage = static_cast<std::uint32_t>(target);
}

void EdgeblockArray::ensure_available(BlockClass c, std::uint32_t n) {
    const Arena& a = arenas_[static_cast<std::size_t>(c)];
    if (a.free.size() + (a.storage - a.count) >= n) {
        return;
    }
    GT_FAILPOINT("eba.grow");
    grow_storage(c, std::uint64_t{a.count} + n);
}

void EdgeblockArray::prepare_insert(std::uint32_t top) {
    if (top == kNoBlock) {
        ensure_available(
            has_narrow_class() ? BlockClass::Narrow : BlockClass::Wide, 1);
    } else if (!is_narrow(top)) {
        ensure_available(BlockClass::Wide, 1);
    } else if (!has_empty_cell(top)) {
        // Only a narrow window without an EMPTY cell can overflow. Its
        // promotion takes a wide top, plus one branch-out when all
        // SUBBLOCK + 1 edges hash to one window of it.
        ensure_available(BlockClass::Wide, 2);
    }
}

bool EdgeblockArray::has_empty_cell(std::uint32_t narrow) const noexcept {
    // A narrow block is one window, read from its one mask word.
    const WindowBits bits = window_bits(narrow, 0);
    return (bits.occ | bits.tomb) != window_mask(subblock_);
}

void EdgeblockArray::prepare_erase(std::uint32_t top) {
    // An erase takes at most one edge out of the top block (a hole in a
    // window that links a child is refilled from below), so only a wide
    // top one edge above the demotion threshold can demote.
    if (!rhh_ && has_narrow_class() && top != kNoBlock &&
        !is_narrow(top) && occupied(top) <= subblock_ / 2 + 1) {
        ensure_available(BlockClass::Narrow, 1);
    }
}

std::uint32_t EdgeblockArray::allocate_top(std::uint32_t edges) {
    return allocate_block(has_narrow_class() && edges <= subblock_
                              ? BlockClass::Narrow
                              : BlockClass::Wide);
}

std::uint32_t EdgeblockArray::allocate_block(BlockClass c) {
    Arena& a = arenas_[static_cast<std::size_t>(c)];
    if (!a.free.empty()) {
        const std::uint32_t index = a.free.back();
        a.free.pop_back();
        // Free-listed blocks were scrubbed clean by release_block (an
        // invariant the auditor enforces), so recycling is pop-and-go.
        assert(occupied(handle(c, index)) == 0);
        return handle(c, index);
    }
    if (a.count == a.storage) {
        // Growth fallback for paths that skipped the pre-flight (direct
        // EdgeblockArray use, maintenance rebuilds); GraphTinker's insert
        // and erase paths always run prepare_insert/prepare_erase first,
        // so they never grow here.
        grow_storage(c, std::uint64_t{a.count} + 1);
    }
    // Freshly appended storage is already cleared.
    return handle(c, a.count++);
}

void EdgeblockArray::release_block(std::uint32_t block) {
    // Scrub on the way out so free-listed blocks hold no live or tombstoned
    // cells and no child links — allocate_block recycles them without
    // re-clearing, and the auditor checks reclaimed blocks are genuinely
    // empty. The masks are the cells' state, so clearing them empties every
    // cell; stale dst/weight/CAL bytes are never read while unoccupied.
    Arena& a = arena(block);
    for (std::uint32_t w = 0; w < a.words; ++w) {
        occ_mask(block, w) = 0;
        tomb_mask(block, w) = 0;
    }
    for (std::uint32_t s = 0; s < fanout(block); ++s) {
        child(block, s) = kNoBlock;
    }
    a.free.push_back(block_index(block));  // capacity >= storage: no throw
}

void EdgeblockArray::free_block(std::uint32_t block) {
    release_block(block);
    metrics_.blocks_freed->inc();
}

void EdgeblockArray::free_subtree(std::uint32_t block) {
    for (std::uint32_t s = 0; s < fanout(block); ++s) {
        const std::uint32_t c = child(block, s);
        if (c != kNoBlock) {
            free_subtree(c);
            child(block, s) = kNoBlock;
        }
    }
    free_block(block);
}

bool EdgeblockArray::subtree_is_empty(std::uint32_t block) const {
    if (occupied(block) != 0) {
        return false;
    }
    for (std::uint32_t s = 0; s < fanout(block); ++s) {
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
    // One SIMD dst compare over the subblock plus the occupancy/tombstone
    // windows decide found/absent/descend without a per-cell walk. Under
    // Robin Hood order an EMPTY cell on the probe path proves the key
    // absent at this level *and* below: had the key ever been pushed
    // deeper, this window was congested at that moment, and delete-only
    // mode never turns an occupied cell back into EMPTY (deletes
    // tombstone).
    const WindowBits bits = window_bits(block, sb_base);
    const SubblockWindow w{&cell(block, sb_base), subblock_, bits.occ,
                           bits.tomb};
    return rhh_ ? find_step<kProbeKernelSimd>(w, home_of(dst, level), dst)
                : find_step_full<kProbeKernelSimd>(w, dst);
}

std::optional<CellRef> EdgeblockArray::first_unoccupied(
    std::uint32_t block, std::uint32_t sb_base, std::uint32_t home) const {
    const std::uint64_t free =
        ~window_bits(block, sb_base).occ & window_mask(subblock_);
    const std::uint32_t d = first_probe_dist(free, home, subblock_);
    if (d == subblock_) {
        return std::nullopt;
    }
    return CellRef{block, sb_base + ((home + d) & (subblock_ - 1))};
}

std::optional<EdgeblockArray::Located> EdgeblockArray::locate(
    std::uint32_t top, VertexId dst) const {
    StatsFlush flush{metrics_, metrics_.find_probe_cells};
    std::uint32_t block = top;
    std::uint32_t level = 0;
    while (block != kNoBlock) {
        const std::uint32_t sb = window_of(block, dst, level);
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
        block = next_block(block, sb);
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
        top = allocate_top();
        ++flush.cells;
        return ProbeResult{
            ProbeResult::Kind::PlaceAt, kNoCalPos,
            CellRef{top, window_of(top, dst, 0) * subblock_ + home_of(dst, 0)}};
    }
    // Duplicate: overwrite the weight in place, keeping the old one for
    // the batch undo journal.
    const auto duplicate = [&](std::uint32_t block, std::uint32_t slot) {
        EdgeCell& c = cell(block, slot);
        ProbeResult dup{ProbeResult::Kind::Duplicate, cal_pos_of(block, slot),
                        CellRef{}};
        dup.prev_weight = c.weight;
        c.weight = weight;
        return dup;
    };
    std::uint32_t block = top;
    std::uint32_t level = 0;
    // Where insert_new resumes when the probe returns Absent: see the
    // ProbeResult fields. A full narrow top is such a point too: the
    // cascade promotes it.
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
            const std::uint32_t sb = window_of(block, dst, level);
            const std::uint32_t sb_base = sb * subblock_;
            simd::prefetch_write(&cal_pos_of(block, sb_base));
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
            block = next_block(block, sb);
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
    // which are full windows with nothing for it to do. Duplicate and
    // first-EMPTY detection run on the subblock's masks and one SIMD dst
    // compare per level (see core/probe_kernel.hpp).
    bool earlier_candidate = false;
    while (block != kNoBlock) {
        const std::uint32_t sb = window_of(block, dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        // The walk usually ends writing this window's CAL pointers (a
        // placement or a weight update): fetch that line alongside.
        simd::prefetch_write(&cal_pos_of(block, sb_base));
        const WindowBits bits = window_bits(block, sb_base);
        const SubblockWindow w{&cell(block, sb_base), subblock_, bits.occ,
                               bits.tomb};
        const ProbeStep step = probe_step<kProbeKernelSimd>(
            w, home_of(dst, level), dst, [&](std::uint32_t off) {
                return displacement(w.cells[off].dst, level, off);
            });
        flush.cells += step.scanned;
        flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
        if (step.kind == ProbeStep::Kind::Duplicate) {
            return duplicate(block, sb_base + step.slot);
        }
        if (!earlier_candidate && step.candidate) {
            earlier_candidate = true;
            resume_block = block;
            resume_level = level;
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
            // Full window, nothing reusable: the cascade would cross this
            // level verbatim, so keep the resume point below it.
            resume_block = block;
            resume_level = level;
        }
        block = next_block(block, sb);
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
        top = allocate_top();
        start_block = kNoBlock;
    }
    // When the caller's probe proved the levels above `start_block` are
    // full windows with no tombstone and no swap point, the cascade resumes
    // there directly.
    StatsFlush flush{metrics_, metrics_.insert_probe_cells};
    const bool resume = start_block != kNoBlock;
    cascade(top, resume ? start_block : top, resume ? start_level : 0,
            LiveEdge{dst, weight, new_cal_pos}, flush);
}

void EdgeblockArray::cascade(std::uint32_t& top, std::uint32_t block,
                             std::uint32_t level, LiveEdge carry,
                             ProbeWork& work) {
    // INSERT mode: Robin Hood within the subblock, Tree-Based Hashing
    // descent on congestion. `carry` is the floating edge; after a swap it
    // becomes the displaced resident. Every element placed into a cell has
    // its CAL copy re-bound to the new location — the new edge included,
    // since it carries its CAL pointer from the start.
    std::uint32_t dist = 0;  // carry's probe distance on entering a level
    for (;;) {
        const std::uint32_t sb = window_of(block, carry.dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        std::uint32_t home = home_of(carry.dst, level);
        if (is_narrow(block) && occupied(block) == subblock_) {
            dist = subblock_;  // no cell to take: straight to the promotion
        }
        while (dist < subblock_) {
            const std::uint32_t off = (home + dist) & (subblock_ - 1);
            const std::uint32_t slot = sb_base + off;
            ++work.cells;
            if (!is_occupied(block, slot)) {
                fill_and_rebind(block, slot, carry);
                return;
            }
            EdgeCell& resident = cell(block, slot);
            const std::uint32_t resident_probe =
                rhh_ ? displacement(resident.dst, level, off) : subblock_;
            if (resident_probe < dist) {
                // Rob the rich: the floater takes this cell, the richer
                // resident is displaced and continues probing. (Without
                // RHH the resident counts as never richer.)
                std::uint32_t& resident_cal = cal_pos_of(block, slot);
                std::swap(resident.dst, carry.dst);
                std::swap(resident.weight, carry.weight);
                std::swap(resident_cal, carry.cal_pos);
                ++work.swaps;
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
        dist = 0;
        if (is_narrow(block)) {
            // No cell of the narrow top takes the carry: promote it and
            // carry on at level 0 of the wide top that replaces it. Not a
            // branch-out — the tree gains no level.
            assert(level == 0 && block == top);
            block = promote(top, work);
            continue;
        }
        // Subblock congested: branch out (Tree-Based Hashing). NB: allocate
        // first — allocate_block() may reallocate children_, so the child
        // slot must be re-resolved afterwards.
        std::uint32_t down = child(block, sb);
        if (down == kNoBlock) {
            down = allocate_block(BlockClass::Wide);
            child(block, sb) = down;
            ++work.branch_outs;
        }
        block = down;
        ++level;
    }
}

std::uint32_t EdgeblockArray::promote(std::uint32_t& top, ProbeWork& work) {
    const std::uint32_t narrow = top;
    top = allocate_block(BlockClass::Wide);
    // The narrow window held the edges the wide top's level 0 would, so
    // each re-placement is a fresh cascade from there. SUBBLOCK edges spread
    // over the wide top's windows; only when every one of them and the
    // carried edge share a window does it branch out, once.
    for_each_occupied(narrow, [&](std::uint32_t slot) {
        const EdgeCell& c = cell(narrow, slot);
        cascade(top, top, 0,
                LiveEdge{c.dst, c.weight, cal_pos_of(narrow, slot)}, work);
    });
    release_block(narrow);
    metrics_.promotions->inc();
    return top;
}

void EdgeblockArray::demote(std::uint32_t& top) {
    assert(!rhh_);
    const std::uint32_t wide = top;
    top = allocate_block(BlockClass::Narrow);
    // At most SUBBLOCK/2 edges, so no window of the wide top is full and it
    // links no child; all of them fit the narrow window. Without Robin Hood
    // swaps the first unoccupied cell from home is where the cascade would
    // place each one.
    for_each_occupied(wide, [&](std::uint32_t slot) {
        const EdgeCell& c = cell(wide, slot);
        const LiveEdge e{c.dst, c.weight, cal_pos_of(wide, slot)};
        const auto at = first_unoccupied(top, 0, home_of(e.dst, 0));
        assert(at.has_value());
        fill_and_rebind(top, at->slot, e);
    });
    release_block(wide);
    metrics_.demotions->inc();
}

bool EdgeblockArray::extract_deepest(std::uint32_t block, LiveEdge& out) {
    // Descend first: the victim comes from a leaf (a block whose children
    // are all empty), so the refill never leaves a hole above a live child
    // and emptied leaves free as the walk unwinds.
    for (std::uint32_t s = 0; s < fanout(block); ++s) {
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
    for (std::uint32_t w = 0; w < arena(block).words; ++w) {
        const std::uint64_t bits = occ_mask(block, w);
        if (bits == 0) {
            continue;
        }
        const auto slot =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const EdgeCell& c = cell(block, slot);
        out = LiveEdge{c.dst, c.weight, cal_pos_of(block, slot)};
        set_occupancy(block, slot, false);
        return true;
    }
    return false;
}

void EdgeblockArray::refill_hole(std::uint32_t block, std::uint32_t sb,
                                 std::uint32_t slot) {
    if (is_narrow(block)) {
        return;  // nothing lives below a narrow top
    }
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
    fill_and_rebind(block, slot, victim);
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
        simd::prefetch(&cal_pos_of(top, window_of(top, dst, 0) * subblock_));
    }
    const auto loc = locate(top, dst);
    if (!loc) {
        return EraseResult{};
    }
    const std::uint32_t cal_pos = cal_pos_of(loc->block, loc->slot);
    const Weight weight = cell(loc->block, loc->slot).weight;
    if (rhh_) {
        // Delete-only: tombstone the cell; probing sees the slot as vacant
        // for future inserts but nothing shrinks.
        set_occupancy(loc->block, loc->slot, false);
        set_tombstone(loc->block, loc->slot, true);
        return EraseResult{true, cal_pos, weight};
    }
    set_occupancy(loc->block, loc->slot, false);
    refill_hole(loc->block, loc->sb, loc->slot);
    // Prune the now-possibly-empty tail of the hash path so the structure
    // keeps shrinking as the graph shrinks (paper: "the data structure
    // shrinks as more edges are deleted").
    prune_path(top, dst);
    if (subtree_is_empty(top)) {
        free_block(top);
        top = kNoBlock;
    } else if (has_narrow_class() && !is_narrow(top) &&
               occupied(top) <= subblock_ / 2) {
        demote(top);
    }
    return EraseResult{true, cal_pos, weight};
}

void EdgeblockArray::prune_path(std::uint32_t top, VertexId dst) {
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
        const std::uint32_t sb = window_of(block, dst, level);
        path[depth++] = Step{block, sb};
        block = next_block(block, sb);
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
    if (!in_range(top)) {
        return;
    }
    // The first probe of (top, dst) reads the level-0 window's cells and
    // the mask words covering it.
    const std::uint32_t sb0 = window_of(top, dst, 0);
    prefetch_window(top, sb0 * subblock_);
    // Warm a wide top's child handle too so the second prefetch stage
    // (prefetch_probe_child) can read it without its own miss.
    if (!is_narrow(top)) {
        simd::prefetch(&children_[static_cast<std::size_t>(top) * spb_ + sb0]);
    }
}

void EdgeblockArray::prefetch_probe_child(std::uint32_t top,
                                          VertexId dst) const noexcept {
    if (!in_range(top) || is_narrow(top)) {
        return;
    }
    const std::uint32_t sb0 = sb_of(dst, 0);
    // Only chase the child when the level-0 window is full: that is the
    // only case where the probe descends, and the masks are already cached
    // from the first prefetch stage, so this peek is (nearly) free.
    const WindowBits bits = window_bits(top, sb0 * subblock_);
    if (bits.occ != window_mask(subblock_)) {
        return;
    }
    const std::uint32_t c = child(top, sb0);
    if (!in_range(c)) {
        return;
    }
    prefetch_window(c, window_of(c, dst, 1) * subblock_);
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
        load.live += occupied(block);
        for (std::uint32_t w = 0; w < arena(block).words; ++w) {
            load.tombstones +=
                static_cast<std::uint32_t>(std::popcount(tomb_mask(block, w)));
        }
        for (std::uint32_t s = 0; s < fanout(block); ++s) {
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
    // freed blocks land on the free lists before the reinsert below starts
    // allocating, so a rebuild recycles its own storage instead of growing
    // the arenas.
    std::vector<LiveEdge> live;
    std::vector<std::uint32_t> stack{top};
    std::uint64_t tombstones = 0;
    while (!stack.empty()) {
        const std::uint32_t block = stack.back();
        stack.pop_back();
        for_each_occupied(block, [&](std::uint32_t slot) {
            const EdgeCell& c = cell(block, slot);
            live.push_back(LiveEdge{c.dst, c.weight, cal_pos_of(block, slot)});
        });
        for (std::uint32_t w = 0; w < arena(block).words; ++w) {
            tombstones +=
                static_cast<std::uint64_t>(std::popcount(tomb_mask(block, w)));
        }
        for (std::uint32_t s = 0; s < fanout(block); ++s) {
            std::uint32_t& down = child(block, s);
            if (down != kNoBlock) {
                stack.push_back(down);
                down = kNoBlock;
            }
        }
        free_block(block);
    }
    top = kNoBlock;
    metrics_.tombstones_purged->add(tombstones);
    metrics_.trees_rebuilt->inc();
    if (live.empty()) {
        return 0;
    }
    // Reinsert through the regular INSERT cascade into a top sized for the
    // survivors: placement invariants (including the delete-only EMPTY-exit
    // soundness) hold by construction in a tombstone-free tree, and every
    // placement re-binds the cell's CAL copy exactly as a fresh build
    // would.
    top = allocate_top(static_cast<std::uint32_t>(live.size()));
    for (const LiveEdge& e : live) {
        insert_new(top, e.dst, e.weight, e.cal_pos);
    }
    return static_cast<std::uint32_t>(live.size());
}

std::uint64_t EdgeblockArray::tombstones_in_arena() const noexcept {
    std::uint64_t total = 0;
    for (const BlockClass c : {BlockClass::Wide, BlockClass::Narrow}) {
        const Arena& a = arenas_[static_cast<std::size_t>(c)];
        for (std::uint32_t b = 0; b < a.count; ++b) {
            for (std::uint32_t w = 0; w < a.words; ++w) {
                total += static_cast<std::uint64_t>(
                    std::popcount(tomb_mask(handle(c, b), w)));
            }
        }
    }
    return total;
}

std::uint32_t EdgeblockArray::subtree_depth(std::uint32_t top) const {
    if (top == kNoBlock) {
        return 0;
    }
    std::uint32_t depth = 0;
    for (std::uint32_t s = 0; s < fanout(top); ++s) {
        const std::uint32_t c = child(top, s);
        if (c != kNoBlock) {
            depth = std::max(depth, subtree_depth(c));
        }
    }
    return depth + 1;
}

}  // namespace gt::core

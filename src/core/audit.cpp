#include "core/audit.hpp"

#include <algorithm>
#include <utility>

#include "core/graphtinker.hpp"

namespace gt::core {

std::string_view to_string(AuditCheck check) noexcept {
    switch (check) {
        case AuditCheck::TbhStructure:
            return "tbh-structure";
        case AuditCheck::TbhOrphan:
            return "tbh-orphan";
        case AuditCheck::Occupancy:
            return "occupancy";
        case AuditCheck::RhhPlacement:
            return "rhh-placement";
        case AuditCheck::RhhProbePath:
            return "rhh-probe-path";
        case AuditCheck::FindReachability:
            return "find-reachability";
        case AuditCheck::CalForward:
            return "cal-forward";
        case AuditCheck::CalReverse:
            return "cal-reverse";
        case AuditCheck::CalChain:
            return "cal-chain";
        case AuditCheck::SghBijection:
            return "sgh-bijection";
        case AuditCheck::DegreeAccounting:
            return "degree-accounting";
        case AuditCheck::EdgeAccounting:
            return "edge-accounting";
        case AuditCheck::TbhBranchedFull:
            return "tbh-branched-full";
        case AuditCheck::SizeClass:
            return "size-class";
    }
    return "unknown";
}

std::string AuditViolation::to_string() const {
    std::string out{gt::core::to_string(check)};
    if (src != kInvalidVertex) {
        out += " src=" + std::to_string(src);
    }
    if (dst != kInvalidVertex) {
        out += " dst=" + std::to_string(dst);
    }
    out += ": " + detail;
    return out;
}

bool AuditReport::has(AuditCheck check) const noexcept {
    for (const AuditViolation& v : violations) {
        if (v.check == check) {
            return true;
        }
    }
    return false;
}

std::string AuditReport::to_string() const {
    if (ok()) {
        return {};
    }
    std::string out = "audit found " + std::to_string(violations.size()) +
                      " violation(s)";
    if (truncated) {
        out += " (truncated)";
    }
    out += ":\n";
    for (const AuditViolation& v : violations) {
        out += "  " + v.to_string() + "\n";
    }
    return out;
}

/// Stateful single-run audit walk. Every check appends typed violations and
/// keeps going (up to the report cap), so one run reports every broken
/// invariant class at once. Nested in Auditor so it shares the friend
/// access the core classes grant.
class Auditor::Run {
public:
    explicit Run(const GraphTinker& g) : g_(g), eba_(g.eba_) {}

    AuditReport run() {
        audit_tree_and_cells();
        if (g_.config_.enable_cal) {
            audit_cal();
        }
        if (g_.config_.enable_sgh) {
            audit_sgh();
        }
        audit_edge_totals();
        return std::move(report_);
    }

private:
    void add(AuditCheck check, VertexId src, VertexId dst,
             std::string detail) {
        if (report_.violations.size() >= AuditReport::kMaxViolations) {
            report_.truncated = true;
            return;
        }
        report_.violations.push_back(
            AuditViolation{check, src, dst, std::move(detail)});
    }

    // ---- pass 1: TBH tree walk + per-cell RHH / CAL-forward checks -------

    static constexpr BlockClass kClasses[] = {BlockClass::Wide,
                                              BlockClass::Narrow};

    [[nodiscard]] const EdgeblockArray::Arena& arena_of(BlockClass c) const {
        return eba_.arenas_[static_cast<std::size_t>(c)];
    }
    /// Index of class `c` in the per-class vectors (the arenas' order).
    [[nodiscard]] static std::size_t ci(BlockClass c) {
        return static_cast<std::size_t>(c);
    }
    [[nodiscard]] static std::string name(std::uint32_t h) {
        return (EdgeblockArray::is_narrow(h) ? "narrow block " : "block ") +
               std::to_string(EdgeblockArray::block_index(h));
    }

    void audit_tree_and_cells() {
        for (const BlockClass c : kClasses) {
            reached_[ci(c)].assign(arena_of(c).count, 0);
            free_flag_[ci(c)].assign(arena_of(c).count, 0);
        }
        if (!eba_.has_narrow_class() &&
            arena_of(BlockClass::Narrow).count != 0) {
            add(AuditCheck::SizeClass, kInvalidVertex, kInvalidVertex,
                std::to_string(arena_of(BlockClass::Narrow).count) +
                    " narrow blocks allocated but PAGEWIDTH == SUBBLOCK "
                    "leaves no narrow class");
        }
        audit_free_list(BlockClass::Wide, AuditCheck::TbhStructure);
        audit_free_list(BlockClass::Narrow, AuditCheck::SizeClass);

        for (VertexId dense = 0; dense < g_.props_.size(); ++dense) {
            ++report_.vertices_audited;
            const VertexId raw = g_.raw_of(dense);
            const EdgeCount cells = walk_vertex(dense, raw);
            total_cells_ += cells;
            const std::uint32_t degree = g_.props_[dense].degree;
            if (degree != cells) {
                add(AuditCheck::DegreeAccounting, raw, kInvalidVertex,
                    "stored degree " + std::to_string(degree) + " but " +
                        std::to_string(cells) + " live cells");
            }
        }

        for (const BlockClass c : kClasses) {
            for (std::uint32_t b = 0; b < arena_of(c).count; ++b) {
                if (!free_flag_[ci(c)][b] && reached_[ci(c)][b] == 0) {
                    add(AuditCheck::TbhOrphan, kInvalidVertex, kInvalidVertex,
                        "allocated " + name(EdgeblockArray::handle(c, b)) +
                            " unreachable from every top parent");
                }
            }
        }
    }

    /// A class's free list names each of its blocks at most once, and only
    /// blocks its arena has handed out. `check` is the class the list's
    /// violations report under.
    void audit_free_list(BlockClass c, AuditCheck check) {
        for (const std::uint32_t b : arena_of(c).free) {
            const std::uint32_t h = EdgeblockArray::handle(c, b);
            if (b >= arena_of(c).count) {
                add(check, kInvalidVertex, kInvalidVertex,
                    "free list holds out-of-range " + name(h));
                continue;
            }
            if (free_flag_[ci(c)][b]) {
                add(check, kInvalidVertex, kInvalidVertex,
                    name(h) + " free-listed twice");
            }
            free_flag_[ci(c)][b] = 1;
            for (std::uint32_t s = 0; s < eba_.fanout(h); ++s) {
                if (eba_.child(h, s) != EdgeblockArray::kNoBlock) {
                    add(check, kInvalidVertex, kInvalidVertex,
                        "free " + name(h) + " still links child at subblock " +
                            std::to_string(s));
                }
            }
            audit_free_block(h, check);
        }
    }

    /// Reclaimed blocks must be scrubbed clean: release_block clears both
    /// mask planes (which are the cells' state and the block's live count),
    /// and allocate_block recycles them without re-clearing — a dirty free
    /// block would leak stale edges (or tombstones) straight into the next
    /// tree built on top of it.
    void audit_free_block(std::uint32_t h, AuditCheck check) {
        for (std::uint32_t w = 0; w < eba_.arena(h).words; ++w) {
            if (eba_.occ_mask(h, w) != 0 || eba_.tomb_mask(h, w) != 0) {
                add(check, kInvalidVertex, kInvalidVertex,
                    "free " + name(h) +
                        " has non-empty occupancy/tombstone masks");
                break;
            }
        }
    }

    /// Depth-first walk of one vertex's edgeblock tree. Returns the number
    /// of live cells seen under the tree.
    EdgeCount walk_vertex(VertexId dense, VertexId raw) {
        const std::uint32_t top = g_.props_[dense].top;
        if (top == EdgeblockArray::kNoBlock) {
            return 0;
        }
        EdgeCount cells = 0;
        struct Frame {
            std::uint32_t block;
            std::uint32_t level;
        };
        std::vector<Frame> stack{{top, 0}};
        while (!stack.empty()) {
            const auto [block, level] = stack.back();
            stack.pop_back();
            if (!eba_.in_range(block)) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    "handle " + std::to_string(block) +
                        " outside the arena (level " + std::to_string(level) +
                        ")");
                continue;
            }
            const std::size_t c = ci(EdgeblockArray::class_of(block));
            const std::uint32_t b = EdgeblockArray::block_index(block);
            if (free_flag_[c][b]) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    "reachable " + name(block) + " is on the free list");
                continue;
            }
            if (reached_[c][b]++ != 0) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    name(block) + " reached twice (cycle or shared child)");
                continue;  // do not descend again
            }
            if (EdgeblockArray::is_narrow(block)) {
                ++report_.narrow_blocks;
                if (level != 0) {
                    add(AuditCheck::SizeClass, raw, kInvalidVertex,
                        name(block) + " linked as a child at level " +
                            std::to_string(level));
                }
                if (!eba_.has_narrow_class()) {
                    add(AuditCheck::SizeClass, raw, kInvalidVertex,
                        name(block) +
                            " in a store whose PAGEWIDTH == SUBBLOCK");
                }
            } else {
                ++report_.wide_blocks;
            }
            ++report_.blocks_audited;
            cells += audit_block(raw, top, block, level);
            for (std::uint32_t s = 0; s < eba_.fanout(block); ++s) {
                const std::uint32_t down = eba_.child(block, s);
                if (down != EdgeblockArray::kNoBlock) {
                    audit_branched_window(raw, block, s);
                    stack.push_back(Frame{down, level + 1});
                }
            }
        }
        // Compact deletes demote a wide top once it holds SUBBLOCK/2 edges
        // or fewer, so a smaller one means a missed demotion.
        if (g_.config_.deletion_mode == DeletionMode::DeleteAndCompact &&
            eba_.has_narrow_class() &&
            !EdgeblockArray::is_narrow(top) && cells <= eba_.subblock_ / 2) {
            add(AuditCheck::SizeClass, raw, kInvalidVertex,
                "wide top " + name(top) + " holds only " +
                    std::to_string(cells) + " live edges (demotes at <= " +
                    std::to_string(eba_.subblock_ / 2) + ")");
        }
        return cells;
    }

    /// A window branches out only once it is full, and no erase empties a
    /// cell of it while the child stays linked (delete-only tombstones;
    /// compact-delete refills the hole from below or unlinks the emptied
    /// child). FIND without Robin Hood order stops at a window holding an
    /// EMPTY cell, so one under a live child link would hide the subtree.
    void audit_branched_window(VertexId raw, std::uint32_t block,
                               std::uint32_t sb) {
        const std::uint32_t sb_base = sb * eba_.subblock_;
        for (std::uint32_t off = 0; off < eba_.subblock_; ++off) {
            if (eba_.state_of(block, sb_base + off) == CellState::Empty) {
                add(AuditCheck::TbhBranchedFull, raw, kInvalidVertex,
                    name(block) + " subblock " + std::to_string(sb) +
                        " links a child but its slot " +
                        std::to_string(off) + " is EMPTY");
                return;
            }
        }
    }

    /// Per-cell checks of one reachable block at its tree level. Returns the
    /// number of occupied cells.
    EdgeCount audit_block(VertexId raw, std::uint32_t top,
                          std::uint32_t block, std::uint32_t level) {
        EdgeCount occupied = 0;
        for (std::uint32_t slot = 0; slot < eba_.arena(block).width; ++slot) {
            const EdgeCell& c = eba_.cell(block, slot);
            const bool is_occupied = eba_.is_occupied(block, slot);
            if (eba_.is_tombstone(block, slot)) {
                ++report_.tombstones;
                if (is_occupied) {
                    add(AuditCheck::Occupancy, raw, c.dst,
                        "cell both occupied and tombstoned (" + name(block) +
                            " slot " + std::to_string(slot) + ")");
                }
            }
            if (!is_occupied) {
                continue;
            }
            ++occupied;
            ++report_.live_edges;
            ++report_.cells_audited;
            audit_cell(raw, top, block, slot, level, c);
        }
        return occupied;
    }

    void audit_cell(VertexId raw, std::uint32_t top, std::uint32_t block,
                    std::uint32_t slot, std::uint32_t level,
                    const EdgeCell& c) {
        const std::uint32_t sb = slot / eba_.subblock_;
        const std::uint32_t sb_base = sb * eba_.subblock_;

        // Robin Hood placement: the cell sits in the subblock its
        // (dst, level) hash selects (a narrow block is one window). Any
        // slot of that window is ownable — the probe distance is derived
        // from where the edge sits.
        const std::uint32_t want = eba_.window_of(block, c.dst, level);
        if (want != sb) {
            add(AuditCheck::RhhPlacement, raw, c.dst,
                "cell stored in subblock " + std::to_string(sb) +
                    " but hashes to " + std::to_string(want) + " at level " +
                    std::to_string(level));
        } else if (eba_.rhh_) {
            // Probe-path continuity (delete-only mode): no EMPTY cell may
            // precede the edge on its probe path, otherwise the FIND
            // early-exit would miss it.
            const std::uint32_t home = eba_.home_of(c.dst, level);
            const std::uint32_t probe =
                eba_.displacement(c.dst, level, slot - sb_base);
            for (std::uint32_t d = 0; d < probe; ++d) {
                const std::uint32_t on_path =
                    sb_base + ((home + d) & (eba_.subblock_ - 1));
                if (eba_.state_of(block, on_path) == CellState::Empty) {
                    add(AuditCheck::RhhProbePath, raw, c.dst,
                        "EMPTY cell at probe distance " + std::to_string(d) +
                            " precedes edge stored at distance " +
                            std::to_string(probe));
                    break;
                }
            }
        }

        // End-to-end FIND retrieval.
        const auto found = eba_.find(top, c.dst);
        if (!found || *found != c.weight) {
            add(AuditCheck::FindReachability, raw, c.dst,
                !found ? "stored cell not reachable via FIND"
                       : "FIND returns weight " + std::to_string(*found) +
                             " but cell stores " + std::to_string(c.weight));
        }

        // CAL forward pointer.
        const std::uint32_t cal_pos = eba_.cal_pos_of(block, slot);
        if (!g_.config_.enable_cal) {
            if (cal_pos != kNoCalPos) {
                add(AuditCheck::CalForward, raw, c.dst,
                    "CAL disabled but cell carries CAL pointer " +
                        std::to_string(cal_pos));
            }
            return;
        }
        if (cal_pos == kNoCalPos) {
            add(AuditCheck::CalForward, raw, c.dst,
                "occupied cell without CAL pointer");
            return;
        }
        if (cal_pos >= g_.cal_.pool_.size()) {
            add(AuditCheck::CalForward, raw, c.dst,
                "CAL pointer " + std::to_string(cal_pos) +
                    " outside the pool");
            return;
        }
        const auto slot_view = g_.cal_.slot_at(cal_pos);
        if (!slot_view.valid || slot_view.src != raw ||
            slot_view.dst != c.dst || slot_view.weight != c.weight ||
            slot_view.owner.block != block || slot_view.owner.slot != slot) {
            add(AuditCheck::CalForward, raw, c.dst,
                "CAL slot " + std::to_string(cal_pos) +
                    " disagrees with its owning cell");
        }
    }

    // ---- pass 2: CAL chains + reverse pointers ---------------------------

    void audit_cal() {
        const CoarseAdjacencyList& cal = g_.cal_;
        constexpr std::uint32_t kNone = 0xffffffffU;
        std::vector<std::uint8_t> chained(cal.blocks_.size(), 0);

        for (std::size_t group = 0; group < cal.groups_.size(); ++group) {
            const auto& meta = cal.groups_[group];
            if ((meta.head == kNone) != (meta.tail == kNone)) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "group " + std::to_string(group) +
                        " has mismatched head/tail sentinels");
                continue;
            }
            std::uint32_t prev = kNone;
            std::uint32_t b = meta.head;
            std::size_t steps = 0;
            while (b != kNone) {
                if (b >= cal.blocks_.size() ||
                    ++steps > cal.blocks_.size()) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "group " + std::to_string(group) +
                            " chain is out of range or cyclic");
                    break;
                }
                if (chained[b]++ != 0) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " appears in two chains");
                    break;
                }
                const auto& bm = cal.blocks_[b];
                if (bm.group != group) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) + " tagged group " +
                            std::to_string(bm.group) + " but chained in " +
                            std::to_string(group));
                }
                if (bm.prev != prev) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " prev link broken");
                }
                if (bm.used > cal.block_edges_) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " used count exceeds capacity");
                }
                if (bm.next == kNone && meta.tail != b) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "group " + std::to_string(group) +
                            " tail does not terminate its chain");
                }
                ++report_.cal_blocks;
                audit_cal_block(b);
                prev = b;
                b = bm.next;
            }
            if (b == kNone && steps != meta.blocks) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "group " + std::to_string(group) + " counts " +
                        std::to_string(meta.blocks) + " blocks but chains " +
                        std::to_string(steps));
            }
        }

        // Every pool block is either chained or free-listed, never both.
        std::vector<std::uint8_t> free_flag(cal.blocks_.size(), 0);
        for (const std::uint32_t b : cal.free_) {
            if (b < cal.blocks_.size()) {
                free_flag[b] = 1;
                audit_cal_free_block(b);
            }
        }
        for (std::size_t b = 0; b < cal.blocks_.size(); ++b) {
            if (chained[b] != 0 && free_flag[b] != 0) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "CAL block " + std::to_string(b) +
                        " both chained and free-listed");
            } else if (chained[b] == 0 && free_flag[b] == 0) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "CAL block " + std::to_string(b) +
                        " neither chained nor free-listed");
            }
        }

        if (cal_live_ != cal.live_edges()) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "CAL live counter says " + std::to_string(cal.live_edges()) +
                    " but " + std::to_string(cal_live_) +
                    " live slots exist");
        }
    }

    /// Free-listed CAL blocks must be fully drained: a stale live slot in a
    /// recycled block would resurface as a phantom edge the next time the
    /// block is appended to a chain.
    void audit_cal_free_block(std::uint32_t block) {
        const CoarseAdjacencyList& cal = g_.cal_;
        if (cal.blocks_[block].used != 0) {
            add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                "free CAL block " + std::to_string(block) + " counts " +
                    std::to_string(cal.blocks_[block].used) + " used slots");
        }
        const std::size_t base =
            static_cast<std::size_t>(block) * cal.block_edges_;
        for (std::uint32_t i = 0; i < cal.block_edges_; ++i) {
            if (cal.pool_[base + i].src != kInvalidVertex) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "free CAL block " + std::to_string(block) +
                        " holds a live slot at offset " + std::to_string(i));
                break;
            }
        }
    }

    /// Reverse (CAL slot -> edge-cell) round-trip for one chained block.
    /// Holes are legal only under delete-only deletes: a compacting erase
    /// refills every hole it marks before the operation returns.
    void audit_cal_block(std::uint32_t block) {
        const CoarseAdjacencyList& cal = g_.cal_;
        const std::size_t base =
            static_cast<std::size_t>(block) * cal.block_edges_;
        const bool compact =
            g_.config_.deletion_mode == DeletionMode::DeleteAndCompact;
        for (std::uint32_t i = 0; i < cal.blocks_[block].used; ++i) {
            ++report_.cal_slots_audited;
            const auto& slot = cal.pool_[base + i];
            if (slot.src == kInvalidVertex) {
                if (compact) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL slot " + std::to_string(base + i) +
                            " is a hole in a compacting store");
                }
                continue;
            }
            ++cal_live_;
            const auto pos = static_cast<std::uint32_t>(base + i);
            // The owner handle names its arena: the block must be one that
            // arena handed out, the slot one of its blocks' cells.
            if (!eba_.in_range(slot.owner.block) ||
                slot.owner.slot >= eba_.arena(slot.owner.block).width) {
                add(AuditCheck::CalReverse, slot.src, slot.dst,
                    "CAL slot " + std::to_string(pos) +
                        " owner reference outside the arena");
                continue;
            }
            const EdgeCell& cell =
                eba_.cell(slot.owner.block, slot.owner.slot);
            if (!eba_.is_occupied(slot.owner.block, slot.owner.slot) ||
                eba_.cal_pos_of(slot.owner.block, slot.owner.slot) != pos ||
                cell.dst != slot.dst || cell.weight != slot.weight) {
                add(AuditCheck::CalReverse, slot.src, slot.dst,
                    "CAL slot " + std::to_string(pos) +
                        " owner cell does not point back");
            }
        }
    }

    // ---- pass 3: SGH bijection and its free list --------------------------

    /// Every dense id SGH has handed out is either mapped, by exactly one
    /// source whose reverse entry names it back, or free-listed once,
    /// unmapped and holding nothing. A mapped source always holds a top:
    /// the operation that empties a tree (compact erase, purge rebuild,
    /// unwind of a failed insert) recycles its id.
    void audit_sgh() {
        const ScatterGatherHash& sgh = g_.sgh_;
        const std::size_t span = sgh.span();
        if (span != g_.props_.size()) {
            add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                "SGH spans " + std::to_string(span) +
                    " dense ids but the main region holds " +
                    std::to_string(g_.props_.size()));
        }
        enum : std::uint8_t { kUnclaimed, kFree, kMapped };
        std::vector<std::uint8_t> state(span, kUnclaimed);
        for (const VertexId dense : sgh.free_) {
            const std::string id = "free dense id " + std::to_string(dense);
            if (dense >= span) {
                add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                    id + " lies outside the span");
                continue;
            }
            if (state[dense] == kFree) {
                add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                    id + " is free-listed twice");
                continue;
            }
            state[dense] = kFree;
            if (sgh.raw_of(dense) != kInvalidVertex) {
                add(AuditCheck::SghBijection, sgh.raw_of(dense),
                    kInvalidVertex, id + " still names a raw id");
            }
            if (dense < g_.props_.size() &&
                g_.props_[dense].top != EdgeblockArray::kNoBlock) {
                add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                    id + " holds a top");
            }
            if (dense < g_.props_.size() && g_.props_[dense].degree != 0) {
                add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                    id + " has degree " +
                        std::to_string(g_.props_[dense].degree));
            }
        }
        sgh.map_.for_each([&](VertexId raw, VertexId dense) {
            const std::string id = "dense id " + std::to_string(dense);
            if (dense >= span) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    id + " lies outside the span");
                return;
            }
            if (state[dense] != kUnclaimed) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    id + (state[dense] == kFree ? " is mapped and free-listed"
                                                : " is mapped twice"));
                return;
            }
            state[dense] = kMapped;
            if (sgh.raw_of(dense) != raw) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    id + " does not round-trip (its reverse entry names " +
                        std::to_string(sgh.raw_of(dense)) + ")");
            }
            if (dense < g_.props_.size() &&
                g_.props_[dense].top == EdgeblockArray::kNoBlock) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    id + " is mapped but holds no top (not recycled)");
            }
        });
        for (VertexId dense = 0; dense < span; ++dense) {
            if (state[dense] == kUnclaimed) {
                add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                    "dense id " + std::to_string(dense) +
                        " is neither mapped nor free-listed");
            }
            report_.free_ids += state[dense] != kMapped ? 1 : 0;
        }
    }

    // ---- pass 4: global accounting --------------------------------------

    void audit_edge_totals() {
        if (total_cells_ != g_.num_edges_) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "edge counter says " + std::to_string(g_.num_edges_) +
                    " but " + std::to_string(total_cells_) +
                    " live cells are stored");
        }
        if (g_.config_.enable_cal && cal_live_ != g_.num_edges_) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "edge counter says " + std::to_string(g_.num_edges_) +
                    " but the CAL holds " + std::to_string(cal_live_) +
                    " live copies");
        }
    }

    const GraphTinker& g_;
    const EdgeblockArray& eba_;
    AuditReport report_;
    // Per size class: blocks reached from a top, and free-listed blocks.
    std::vector<std::uint8_t> reached_[2];
    std::vector<std::uint8_t> free_flag_[2];
    EdgeCount total_cells_ = 0;
    EdgeCount cal_live_ = 0;
};

AuditReport Auditor::run(const GraphTinker& graph) {
    return Run(graph).run();
}

AuditReport GraphTinker::audit() const { return Auditor::run(*this); }

// ---- test-only corruption hooks ----------------------------------------

std::optional<CellRef> CorruptionInjector::locate_cell(GraphTinker& graph,
                                                       VertexId src,
                                                       VertexId dst) {
    const auto dense = graph.dense_of(src);
    if (!dense) {
        return std::nullopt;
    }
    return graph.eba_.find_ref(graph.props_[*dense].top, dst);
}

bool CorruptionInjector::break_cal_pointer(GraphTinker& graph, VertexId src,
                                           VertexId dst) {
    const auto ref = locate_cell(graph, src, dst);
    if (!ref) {
        return false;
    }
    std::uint32_t& cal_pos = graph.eba_.cal_pos_of(ref->block, ref->slot);
    if (cal_pos == kNoCalPos) {
        return false;
    }
    cal_pos = kNoCalPos;
    return true;
}

bool CorruptionInjector::corrupt_probe(GraphTinker& graph, VertexId src,
                                       VertexId dst) {
    const auto ref = locate_cell(graph, src, dst);
    EdgeblockArray& eba = graph.eba_;
    if (!ref || EdgeblockArray::is_narrow(ref->block) || eba.spb_ < 2) {
        return false;
    }
    // Swap the cell with the first slot of the next subblock (wrapping):
    // a window its (dst, level) hash never selects. Cells, CAL pointers
    // and both mask bits travel together, so the block's counts still add
    // up and only placement is wrong.
    const std::uint32_t a = ref->slot;
    const std::uint32_t b =
        (a / eba.subblock_ + 1) % eba.spb_ * eba.subblock_;
    std::swap(eba.cell(ref->block, a), eba.cell(ref->block, b));
    std::swap(eba.cal_pos_of(ref->block, a), eba.cal_pos_of(ref->block, b));
    const bool occ_b = eba.is_occupied(ref->block, b);
    const bool tomb_b = eba.is_tombstone(ref->block, b);
    eba.set_occupancy(ref->block, b, true);
    eba.set_tombstone(ref->block, b, false);
    eba.set_occupancy(ref->block, a, occ_b);
    eba.set_tombstone(ref->block, a, tomb_b);
    return true;
}

bool CorruptionInjector::orphan_child(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense || graph.props_[*dense].top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    const std::uint32_t top = graph.props_[*dense].top;
    for (std::uint32_t s = 0; s < eba.fanout(top); ++s) {
        std::uint32_t& down = eba.child(top, s);
        if (down != EdgeblockArray::kNoBlock) {
            down = EdgeblockArray::kNoBlock;
            return true;
        }
    }
    return false;
}

bool CorruptionInjector::link_cycle(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense || graph.props_[*dense].top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    const std::uint32_t top = graph.props_[*dense].top;
    for (std::uint32_t s = 0; s < eba.fanout(top); ++s) {
        std::uint32_t& down = eba.child(top, s);
        if (down == EdgeblockArray::kNoBlock) {
            down = top;  // the top block becomes its own descendant
            return true;
        }
    }
    return false;
}

bool CorruptionInjector::corrupt_degree(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense || *dense >= graph.props_.size()) {
        return false;
    }
    ++graph.props_[*dense].degree;
    return true;
}

bool CorruptionInjector::corrupt_sgh(GraphTinker& graph) {
    auto& table = graph.sgh_.dense_to_raw_;
    if (table.size() < 2) {
        return false;
    }
    std::swap(table[0], table[1]);
    return true;
}

bool CorruptionInjector::free_mapped_id(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!graph.config_.enable_sgh || !dense) {
        return false;
    }
    graph.sgh_.free_.push_back(*dense);
    return true;
}

bool CorruptionInjector::vanish_cell(GraphTinker& graph, VertexId src,
                                     VertexId dst) {
    const auto ref = locate_cell(graph, src, dst);
    if (!ref) {
        return false;
    }
    // The occupancy bit is the cell's state: clearing it empties the cell
    // while the source's degree and the edge's CAL copy still count it.
    graph.eba_.set_occupancy(ref->block, ref->slot, false);
    return true;
}

bool CorruptionInjector::tombstone_live_cell(GraphTinker& graph, VertexId src,
                                             VertexId dst) {
    const auto ref = locate_cell(graph, src, dst);
    if (!ref) {
        return false;
    }
    graph.eba_.set_tombstone(ref->block, ref->slot, true);
    return true;
}

bool CorruptionInjector::branch_unfull_window(GraphTinker& graph,
                                              VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense || graph.props_[*dense].top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    const std::uint32_t top = graph.props_[*dense].top;
    for (std::uint32_t s = 0; s < eba.fanout(top); ++s) {
        if (eba.child(top, s) != EdgeblockArray::kNoBlock) {
            continue;
        }
        for (std::uint32_t off = 0; off < eba.subblock_; ++off) {
            if (eba.state_of(top, s * eba.subblock_ + off) ==
                CellState::Empty) {
                const std::uint32_t fresh =
                    eba.allocate_block(BlockClass::Wide);
                eba.child(top, s) = fresh;
                return true;
            }
        }
    }
    return false;
}

bool CorruptionInjector::widen_top(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense) {
        return false;
    }
    std::uint32_t& top = graph.props_[*dense].top;
    if (top == EdgeblockArray::kNoBlock || !EdgeblockArray::is_narrow(top)) {
        return false;
    }
    ProbeWork work;
    (void)graph.eba_.promote(top, work);
    return true;
}

bool CorruptionInjector::punch_cal_hole(GraphTinker& graph, VertexId src,
                                        VertexId dst) {
    const auto ref = locate_cell(graph, src, dst);
    if (!ref || !graph.config_.enable_cal) {
        return false;
    }
    std::uint32_t& cal_pos = graph.eba_.cal_pos_of(ref->block, ref->slot);
    if (cal_pos == kNoCalPos) {
        return false;
    }
    // Re-append the edge's copy at its group's tail, re-point the cell at
    // it, and mark the old slot: what a compacting erase leaves behind when
    // it marks a hole and never refills it.
    CoarseAdjacencyList& cal = graph.cal_;
    const auto old = cal.pool_[cal_pos];
    const std::uint32_t moved_to = cal.appender(*graph.dense_of(src))
                                       .append(old.src, old.dst, old.weight,
                                               old.owner);
    cal.pool_[cal_pos].src = kInvalidVertex;
    --cal.live_;
    cal_pos = moved_to;
    return true;
}

bool CorruptionInjector::link_narrow_as_child(GraphTinker& graph,
                                              VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    const std::uint32_t top = graph.props_[*dense].top;
    if (top == EdgeblockArray::kNoBlock || EdgeblockArray::is_narrow(top)) {
        return false;
    }
    // Prefer a full childless window, so only the class rule breaks.
    std::uint32_t pick = EdgeblockArray::kNoBlock;
    for (std::uint32_t s = 0; s < eba.fanout(top); ++s) {
        if (eba.child(top, s) != EdgeblockArray::kNoBlock) {
            continue;
        }
        bool full = true;
        for (std::uint32_t off = 0; off < eba.subblock_; ++off) {
            full = full && eba.is_occupied(top, s * eba.subblock_ + off);
        }
        if (full) {
            pick = s;
            break;
        }
        if (pick == EdgeblockArray::kNoBlock) {
            pick = s;
        }
    }
    if (pick == EdgeblockArray::kNoBlock) {
        return false;
    }
    const std::uint32_t fresh = eba.allocate_block(BlockClass::Narrow);
    eba.child(top, pick) = fresh;
    return true;
}

}  // namespace gt::core

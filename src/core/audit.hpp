// Deep structural auditor for GraphTinker (correctness-tooling layer).
//
// GraphTinker's performance story rests on invariants that ordinary unit
// tests cannot see from the public API: Robin Hood probe-distance bookkeeping
// inside every subblock, the Tree-Based Hashing parent/child links that make
// probe cost O(log degree), the per-edge CAL back-pointers that keep the
// compact secondary copy in sync in O(1), and the SGH dense-index bijection
// that keeps scans proportional to non-empty vertices. The auditor walks the
// raw arenas of all four components and cross-checks every one of those
// invariants, returning a *typed* report of violations rather than a single
// string — so tests can assert that a deliberately seeded corruption is
// detected as exactly the violation class it belongs to.
//
// Invariant classes checked (one AuditCheck per class):
//   TBH structure     every reachable block handle is a live arena block,
//                     reached through exactly one parent link (no cycles, no
//                     shared children), and free-listed blocks are detached
//                     and scrubbed (both mask planes zero)
//   TBH orphans       every allocated, non-free block is reachable from some
//                     vertex's top-parent handle (no leaked subtrees)
//   occupancy         no cell is marked both occupied and tombstoned (the
//                     masks are the cell state, and a block's live count is
//                     the popcount of its occupancy words)
//   RHH placement     every occupied cell sits in the subblock its (dst,
//                     level) hash selects (its probe distance is derived
//                     from that position, so any slot of the window is ok)
//   RHH probe path    in delete-only (RHH) mode no EMPTY cell interrupts the
//                     probe window before a stored edge — the invariant that
//                     makes the FIND early-exit sound
//   TBH branched full in every mode, a subblock window that links a child
//                     holds no EMPTY cell — the invariant that lets a FIND
//                     without Robin Hood order stop at a window with one
//   FIND              every stored cell is reachable through the public FIND
//                     walk (end-to-end retrieval check)
//   CAL forward       every occupied edge-cell points at a live CAL slot
//                     carrying the same (src, dst, weight) and owner
//   CAL reverse       every live CAL slot's owner back-pointer leads to the
//                     edge-cell that points back at it (the round-trip)
//   CAL chains        group chains are well-linked doubly linked lists and
//                     chained + free blocks account for the whole pool
//   SGH bijection     every dense id in the span is either mapped by one
//                     source whose reverse entry round-trips (and which
//                     holds a top) or free-listed once, unmapped, with no
//                     top and degree 0
//   degree accounting per-vertex degree counters equal the live cells stored
//                     under the vertex's tree
//   edge accounting   the global edge counter, the per-vertex sum and the
//                     CAL live count all agree
//   size class        a narrow block is only ever a top (never a linked
//                     child) and exists only when PAGEWIDTH > SUBBLOCK, the
//                     narrow free list is in range, disjoint and scrubbed,
//                     and under compact deletes every wide top holds more
//                     than SUBBLOCK/2 live edges (smaller ones demote)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace gt::core {

class GraphTinker;
struct CellRef;

/// Invariant class an AuditViolation belongs to.
enum class AuditCheck : std::uint8_t {
    TbhStructure,      // bad handle, cycle, shared child, free-list overlap
    TbhOrphan,         // allocated block unreachable from every top parent
    Occupancy,         // cell both occupied and tombstoned
    RhhPlacement,      // cell outside its hashed subblock or wrong probe
    RhhProbePath,      // EMPTY cell inside a live cell's probe window
    FindReachability,  // stored cell not retrievable via FIND
    CalForward,        // edge-cell -> CAL slot mismatch
    CalReverse,        // CAL slot -> edge-cell back-pointer mismatch
    CalChain,          // chain link/length, compact-mode hole, pool leak
    SghBijection,      // dense<->raw round-trip or free-list breach
    DegreeAccounting,  // per-vertex degree counter drift
    EdgeAccounting,    // global edge counters disagree
    TbhBranchedFull,   // window that links a child holds an EMPTY cell
    SizeClass,         // narrow block misplaced or a wide top left too small
};

[[nodiscard]] std::string_view to_string(AuditCheck check) noexcept;

/// One detected invariant violation.
struct AuditViolation {
    AuditCheck check;
    VertexId src = kInvalidVertex;  // raw source id when applicable
    VertexId dst = kInvalidVertex;  // destination id when applicable
    std::string detail;             // human-readable specifics

    [[nodiscard]] std::string to_string() const;
};

/// Result of a full structural audit.
struct AuditReport {
    /// Reporting stops (and `truncated` is set) after this many violations;
    /// a corrupted structure tends to trip thousands of downstream checks.
    static constexpr std::size_t kMaxViolations = 64;

    std::vector<AuditViolation> violations;
    bool truncated = false;

    // Coverage counters: what the audit actually inspected.
    std::size_t vertices_audited = 0;
    std::size_t blocks_audited = 0;
    std::size_t cells_audited = 0;
    std::size_t cal_slots_audited = 0;

    // Independent census from the walk itself — the ground truth the
    // telemetry parity test compares gt.obs gauges against. Counted cell by
    // cell during the sweep, never read from the structures' own counters.
    EdgeCount live_edges = 0;    // occupied cells across reachable trees
    EdgeCount tombstones = 0;    // tombstone cells across reachable trees
    std::size_t cal_blocks = 0;  // CAL blocks reached via group chains
    std::size_t wide_blocks = 0;    // reachable blocks of each size class
    std::size_t narrow_blocks = 0;
    std::size_t free_ids = 0;  // SGH span ids no forward entry claims

    [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
    /// True when the report contains at least one violation of `check`.
    [[nodiscard]] bool has(AuditCheck check) const noexcept;
    /// Multi-line human-readable rendering (empty string when ok()).
    [[nodiscard]] std::string to_string() const;
};

/// Runs the full invariant sweep over a GraphTinker instance. Read-only:
/// safe to run concurrently with other readers of the same instance.
class Auditor {
public:
    [[nodiscard]] static AuditReport run(const GraphTinker& graph);

private:
    class Run;  // stateful single-run walk (audit.cpp)
};

/// TEST-ONLY: deliberately corrupts a live GraphTinker so the test suite can
/// prove audit() detects each violation class. Every injector returns true
/// when the corruption was applied (false when the targeted structure does
/// not exist, e.g. no overflow child to orphan). Never use outside tests —
/// the corrupted instance is unusable afterwards.
class CorruptionInjector {
public:
    /// Clears the CAL pointer of the (src, dst) edge-cell -> CalForward (and
    /// the stranded CAL slot additionally trips CalReverse).
    static bool break_cal_pointer(GraphTinker& graph, VertexId src,
                                  VertexId dst);
    /// Moves the (src, dst) edge-cell into a slot of a subblock its hash
    /// cannot own (swapping with whatever sat there) -> RhhPlacement (+ FIND
    /// and CAL drift).
    static bool corrupt_probe(GraphTinker& graph, VertexId src, VertexId dst);
    /// Detaches the first parent->child edgeblock link under `src`'s tree,
    /// stranding the child subtree -> TbhOrphan (+ accounting drift).
    static bool orphan_child(GraphTinker& graph, VertexId src);
    /// Points an unused child slot of `src`'s top block back at the top
    /// block itself, creating a cycle -> TbhStructure.
    static bool link_cycle(GraphTinker& graph, VertexId src);
    /// Bumps the stored degree counter of `src` -> DegreeAccounting.
    static bool corrupt_degree(GraphTinker& graph, VertexId src);
    /// Swaps the first two dense->raw entries of the SGH without updating
    /// the forward map -> SghBijection.
    static bool corrupt_sgh(GraphTinker& graph);
    /// Pushes `src`'s dense id on SGH's free list while the source stays
    /// mapped and keeps its tree -> SghBijection alone.
    static bool free_mapped_id(GraphTinker& graph, VertexId src);
    /// Clears the occupancy bit of (src, dst): the cell empties while the
    /// source's degree and the CAL copy still count it -> DegreeAccounting,
    /// CalReverse and EdgeAccounting.
    static bool vanish_cell(GraphTinker& graph, VertexId src, VertexId dst);
    /// Sets the tombstone bit of the live (src, dst) cell -> Occupancy
    /// alone.
    static bool tombstone_live_cell(GraphTinker& graph, VertexId src,
                                    VertexId dst);
    /// Links a fresh empty block under the first childless subblock window
    /// of `src`'s top block that holds an EMPTY cell -> TbhBranchedFull.
    static bool branch_unfull_window(GraphTinker& graph, VertexId src);
    /// Re-places the edges of `src`'s narrow top into a wide top, CAL
    /// owners re-bound, as a promotion would — but without the full window
    /// that triggers one. With at most SUBBLOCK/2 edges under compact
    /// deletes -> SizeClass alone.
    static bool widen_top(GraphTinker& graph, VertexId src);
    /// Links a fresh narrow block as the child of a childless window of
    /// `src`'s wide top (a full one when there is one) -> SizeClass.
    static bool link_narrow_as_child(GraphTinker& graph, VertexId src);
    /// Moves the (src, dst) edge's CAL copy to its group's tail, leaving a
    /// marked hole behind -> CalChain alone under compact deletes (a legal
    /// hole under delete-only).
    static bool punch_cal_hole(GraphTinker& graph, VertexId src, VertexId dst);

private:
    /// Locates the edge-cell of (src, dst); nullopt when absent.
    static std::optional<CellRef> locate_cell(GraphTinker& graph,
                                              VertexId src, VertexId dst);
};

}  // namespace gt::core

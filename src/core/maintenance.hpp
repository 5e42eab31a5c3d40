// Maintenance & space reclamation for GraphTinker (DESIGN.md §3.5).
//
// Delete-only mode leaves two kinds of debris behind: tombstones (probe
// work stays proportional to the peak graph) and CAL holes that keep being
// scanned. The maintainer walks the store and undoes both:
//
//   tombstone purge   delete-only trees whose tombstone fraction crosses
//                     Config::purge_tombstone_threshold are rebuilt in
//                     place (EdgeblockArray::rebuild_tree), restoring
//                     fresh-build Robin Hood probe distance and returning
//                     surplus blocks to the arena free list
//   CAL compaction    once the hole fraction crosses
//                     Config::cal_compact_threshold, every group chain is
//                     rewritten dense (CoarseAdjacencyList::compact_chains)
//                     and emptied blocks return to the CAL free list; moved
//                     edges' owners are re-bound through set_cal_pos
//
// GraphTinker::maintain() is the one entry point: an explicit sweep over
// every vertex tree and the CAL. Stores in the default compact-delete mode
// reclaim on every erase (a hole is refilled from below and emptied blocks
// free at once, so a window that links a child stays full) and leave it
// nothing to do; delete-only stores (the paper's Robin Hood configuration)
// call it between delete waves.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gt::core {

class GraphTinker;

/// What one maintenance run accomplished.
struct MaintenanceReport {
    std::size_t trees_examined = 0;       // vertex trees censused
    std::size_t trees_purged = 0;         // tombstone-purge rebuilds
    std::size_t cells_moved = 0;          // edges relocated by purges
    std::size_t tombstones_purged = 0;    // tombstones erased
    std::size_t eba_blocks_reclaimed = 0; // edgeblocks freed (net)
    std::size_t cal_holes_reclaimed = 0;  // CAL slots compacted away
    std::size_t cal_blocks_reclaimed = 0; // CAL blocks freed (net)

    /// True when the run changed nothing (no purge or compaction).
    [[nodiscard]] bool idle() const noexcept {
        return trees_purged == 0 && cells_moved == 0 &&
               tombstones_purged == 0 &&
               eba_blocks_reclaimed == 0 && cal_holes_reclaimed == 0 &&
               cal_blocks_reclaimed == 0;
    }

    MaintenanceReport& operator+=(const MaintenanceReport& o) noexcept {
        trees_examined += o.trees_examined;
        trees_purged += o.trees_purged;
        cells_moved += o.cells_moved;
        tombstones_purged += o.tombstones_purged;
        eba_blocks_reclaimed += o.eba_blocks_reclaimed;
        cal_holes_reclaimed += o.cal_holes_reclaimed;
        cal_blocks_reclaimed += o.cal_blocks_reclaimed;
        return *this;
    }
};

/// Executes maintenance sweeps over a GraphTinker instance. Mutates the
/// store — same single-writer contract as inserts and deletes.
class Maintainer {
public:
    /// Full sweep: every vertex tree plus the CAL chains.
    static MaintenanceReport run(GraphTinker& graph);

private:
    class Run;  // stateful single-run walk (maintenance.cpp)
};

}  // namespace gt::core

// GraphTinker configuration (paper §III.B, §V.A).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/status.hpp"

namespace gt::core {

/// Deletion mechanism (paper §III.C).
enum class DeletionMode : std::uint8_t {
    /// Tombstone the slot; no structural shrinking. Fast deletes, but probe
    /// work and analytics scans stay proportional to the peak graph size
    /// until an explicit maintain() sweep purges the debris.
    DeleteOnly,
    /// Refill the hole with an edge pulled from the deepest descendant
    /// subblock on the same hash path, freeing emptied edgeblocks and
    /// compacting the CAL in place. Robin Hood swapping is off in this mode
    /// (the paper turns RHH off to avoid the edge-tracking overhead of
    /// swaps), and on in the other one: the deletion mode alone picks the
    /// probe discipline. The default: the store shrinks as edges are
    /// deleted.
    DeleteAndCompact,
};

struct Config {
    /// Edge-cells per edgeblock. Paper default 64; evaluated 8..256 (Fig 17-19).
    std::uint32_t pagewidth = 64;
    /// Edge-cells per Subblock — the branch-out granularity. Paper default 8;
    /// at most 64, so a window's occupancy is one mask word.
    std::uint32_t subblock = 8;
    /// Edge-cells per Workblock — the retrieval granularity. Paper default 4.
    std::uint32_t workblock = 4;

    /// Scatter-Gather Hashing: densify the source-vertex index space.
    bool enable_sgh = true;
    /// Coarse Adjacency List: maintain the compact secondary edge copy.
    bool enable_cal = true;

    DeletionMode deletion_mode = DeletionMode::DeleteAndCompact;

    /// Source vertices per CAL group ("for example 1024", paper §III.B).
    std::uint32_t cal_group_size = 1024;
    /// Edges per CAL block.
    std::uint32_t cal_block_edges = 128;

    /// Initial dense-vertex capacity (grows on demand).
    std::uint32_t initial_vertices = 1024;

    /// Expected number of edges; storage pools reserve capacity for this
    /// many up front (0 = grow on demand). STINGER-style deployments size
    /// the structure for the maximum attainable graph, so the benches pass
    /// the dataset's edge count here for both stores.
    std::uint64_t reserve_edges = 0;

    // ---- maintenance & space reclamation (core/maintenance.hpp) ----------

    /// Delete-only mode: a vertex tree whose tombstone fraction
    /// (tombstones / (live + tombstones)) reaches this threshold is rebuilt
    /// by maintain(), purging the tombstones and restoring fresh-build Robin
    /// Hood probe distances. 0 rebuilds on the first tombstone; 1 disables
    /// purging.
    double purge_tombstone_threshold = 0.25;
    /// CAL hole fraction (holes / scanned slots) at which maintain()
    /// compacts the group chains, returning emptied blocks to the CAL free
    /// list. 1 disables chain compaction.
    double cal_compact_threshold = 0.25;

    /// Non-throwing validation: divisibility/power-of-two invariants plus
    /// the resource-sanity caps an *untrusted* config (one decoded from a
    /// snapshot file) must clear before the store allocates anything from
    /// it. Returns the first violated invariant as a typed Status.
    [[nodiscard]] Status check() const noexcept {
        auto pow2 = [](std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; };
        auto bad = [](const char* why) {
            return Status{StatusCode::InvalidArgument, why};
        };
        if (!pow2(pagewidth) || !pow2(subblock) || !pow2(workblock)) {
            return bad("pagewidth/subblock/workblock must be powers of two");
        }
        if (pagewidth % subblock != 0 || subblock % workblock != 0) {
            return bad(
                "pagewidth must divide into subblocks, subblocks into "
                "workblocks");
        }
        if (pagewidth > 65536) {
            return bad("pagewidth larger than 65536 unsupported");
        }
        if (subblock > 64) {
            return bad("subblock wider than one 64-bit mask word unsupported");
        }
        if (cal_group_size == 0 || cal_block_edges == 0) {
            return bad("CAL geometry must be non-zero");
        }
        if (cal_group_size > (1U << 24) || cal_block_edges > (1U << 24)) {
            return bad("CAL geometry implausibly large");
        }
        if (deletion_mode != DeletionMode::DeleteOnly &&
            deletion_mode != DeletionMode::DeleteAndCompact) {
            return bad("deletion_mode outside the enum range");
        }
        if (initial_vertices > (1U << 28)) {
            return bad("initial_vertices implausibly large");
        }
        if (reserve_edges > (std::uint64_t{1} << 40)) {
            return bad("reserve_edges implausibly large");
        }
        if (!(purge_tombstone_threshold >= 0.0 &&
              purge_tombstone_threshold <= 1.0) ||
            !(cal_compact_threshold >= 0.0 && cal_compact_threshold <= 1.0)) {
            // Negated >= form so NaN (possible in a fuzzed header) fails.
            return bad("maintenance thresholds must lie in [0, 1]");
        }
        return Status::success();
    }

    /// Validates as check(); throws std::invalid_argument on bad values
    /// (the construction-time API — programmer error, not data error).
    void validate() const {
        const Status st = check();
        if (!st.ok()) {
            throw std::invalid_argument(st.message);
        }
    }

    /// True when inserts use Robin Hood swapping: exactly the delete-only
    /// stores (RHH is incompatible with the compacting delete path).
    [[nodiscard]] bool rhh_active() const noexcept {
        return deletion_mode == DeletionMode::DeleteOnly;
    }
};

}  // namespace gt::core

#include "core/maintenance.hpp"

#include "core/graphtinker.hpp"

namespace gt::core {

/// Stateful single-run maintenance walk. Nested in Maintainer so it shares
/// the friend access GraphTinker grants.
class Maintainer::Run {
public:
    explicit Run(GraphTinker& g) : g_(g) {}

    MaintenanceReport run() {
        // Purge rebuilds go through the regular INSERT cascade; defer their
        // probe-counter flushes to one batch like the ingest paths do.
        const EdgeblockArray::StatsBatchScope stats_scope{g_.eba_};
        for (VertexId dense = 0; dense < g_.props_.size(); ++dense) {
            maintain_tree(dense);
        }
        compact_cal();
        // One record per sweep: how much work this run touched (cells
        // examined + moved).
        g_.maintenance_runs_->inc();
        g_.maintenance_cells_touched_->record(cost_);
        return report_;
    }

private:
    void maintain_tree(VertexId dense) {
        std::uint32_t& top = g_.props_[dense].top;
        if (top == EdgeblockArray::kNoBlock) {
            ++cost_;
            return;
        }
        ++report_.trees_examined;
        const EdgeblockArray::TreeLoad load = g_.eba_.tree_load(top);
        cost_ += static_cast<std::uint64_t>(load.live) + load.tombstones +
                 load.blocks;
        const Config& cfg = g_.config_;
        if (cfg.deletion_mode == DeletionMode::DeleteOnly &&
            load.tombstones > 0 &&
            static_cast<double>(load.tombstones) >
                cfg.purge_tombstone_threshold *
                    static_cast<double>(load.live + load.tombstones)) {
            // A tree with no live cell rebuilds to nothing, and its source's
            // dense id is recycled below.
            const std::size_t blocks_before = g_.eba_.blocks_in_use();
            g_.prepare_release();
            const std::uint32_t moved = g_.eba_.rebuild_tree(top);
            cost_ += 2ULL * moved;  // collect + reinsert
            ++report_.trees_purged;
            report_.cells_moved += moved;
            report_.tombstones_purged += load.tombstones;
            g_.release_if_empty(dense);
            const std::size_t blocks_after = g_.eba_.blocks_in_use();
            if (blocks_after < blocks_before) {
                report_.eba_blocks_reclaimed += blocks_before - blocks_after;
            }
        }
    }

    void compact_cal() {
        if (!g_.config_.enable_cal) {
            return;
        }
        const EdgeCount scanned = g_.cal_.scanned_slots();
        const EdgeCount holes = scanned - g_.cal_.live_edges();
        if (holes == 0 ||
            static_cast<double>(holes) <=
                g_.config_.cal_compact_threshold *
                    static_cast<double>(scanned)) {
            return;
        }
        const std::size_t blocks_before = g_.cal_.blocks_in_use();
        report_.cal_holes_reclaimed += g_.cal_.compact_chains(
            [this](CellRef owner, std::uint32_t pos) {
                g_.eba_.set_cal_pos(owner, pos);
            });
        const std::size_t blocks_after = g_.cal_.blocks_in_use();
        if (blocks_after < blocks_before) {
            report_.cal_blocks_reclaimed += blocks_before - blocks_after;
        }
        cost_ += scanned;
    }

    GraphTinker& g_;
    MaintenanceReport report_;
    std::uint64_t cost_ = 0;
};

MaintenanceReport Maintainer::run(GraphTinker& graph) {
    return Run(graph).run();
}

MaintenanceReport GraphTinker::maintain() { return Maintainer::run(*this); }

}  // namespace gt::core

// Fig. 18: effect of PAGEWIDTH on BFS throughput in incremental-processing
// mode (which reads the EdgeblockArray), hollywood_sim.
//
// Expected shape (paper): the inverse of Fig 17 — smaller PAGEWIDTH gives a
// more compact structure, so IP-mode analytics retrieves more live edges
// per unit scanned and throughput falls as PAGEWIDTH grows.
#include <iostream>

#include "common/drivers.hpp"
#include "common/harness.hpp"
#include "core/graphtinker.hpp"
#include "engine/algorithms.hpp"
#include "engine/reference.hpp"
#include "util/table.hpp"

int main() {
    using namespace gt;
    bench::banner("Fig 18",
                  "BFS (IP mode) throughput for PAGEWIDTH in "
                  "{16,32,64,128,256} (hollywood_sim)");

    const auto spec = bench::scaled_dataset("hollywood_sim");
    const auto edges = engine::symmetrize(spec.generate());
    const std::size_t batch = bench::batch_size() * 2;
    const VertexId root = bench::max_degree_vertex(edges);

    Table table({"PAGEWIDTH", "BFS-IP(Meps)", "blocks_in_use",
                 "cells_per_edge"});
    for (const std::uint32_t pw : {16u, 32u, 64u, 128u, 256u}) {
        core::Config cfg = bench::gt_config(spec.num_vertices, edges.size());
        cfg.pagewidth = pw;
        core::GraphTinker store(cfg);
        const auto stats = bench::dynamic_analytics<engine::Bfs>(
            store, edges, batch, engine::ModePolicy::ForceIncremental, root);
        // Cells held: wide blocks of PAGEWIDTH cells plus one-subblock
        // narrow tops.
        const core::EdgeblockArray& eba = store.edgeblock_array();
        const double cells = static_cast<double>(
            eba.blocks_in_use(core::BlockClass::Wide) * pw +
            eba.blocks_in_use(core::BlockClass::Narrow) * cfg.subblock);
        table.add_row({"PW" + std::to_string(pw),
                       Table::fmt(stats.throughput_meps(), 3),
                       std::to_string(eba.blocks_in_use()),
                       Table::fmt(cells / static_cast<double>(
                                              store.num_edges()),
                                  2)});
    }
    table.print(std::cout);
    return 0;
}

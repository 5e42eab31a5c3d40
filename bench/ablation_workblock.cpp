// Ablation: Workblock size (the retrieval-granularity parameter, §III.B).
//
// The paper: "having too large Workblock sizes would increase the
// probability of a successful completion of the RHH process in that
// retrieval, but at the same time would increase the number of edges
// retrieved from DRAM" — the Workblock knob trades retrieval count against
// retrieval width. This bench sweeps it at the default PAGEWIDTH/Subblock
// and reports both the workblock-fetch counter and wall-clock throughput.
#include <iostream>

#include "common/drivers.hpp"
#include "common/harness.hpp"
#include "core/graphtinker.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
    using namespace gt;
    bench::banner("Ablation: Workblock size",
                  "insertion on hollywood_sim at PAGEWIDTH=64, Subblock=8, "
                  "Workblock in {1,2,4,8}");

    const auto spec = bench::scaled_dataset("hollywood_sim");
    const auto edges = spec.generate();

    Table table({"workblock", "insert(Meps)", "wb_fetches/edge",
                 "cells/fetch"});
    for (const std::uint32_t wb : {1u, 2u, 4u, 8u}) {
        core::Config cfg = bench::gt_config(spec.num_vertices, edges.size());
        cfg.workblock = wb;
        core::GraphTinker store(cfg);
        const auto series =
            bench::insertion_series(store, edges, bench::batch_size());
        const std::uint64_t fetches =
            store.obs().counter("eba.workblocks_fetched").value();
        const std::uint64_t cells =
            store.obs().counter("eba.cells_probed").value();
        const double fetches_per_edge =
            static_cast<double>(fetches) / static_cast<double>(edges.size());
        const double cells_per_fetch =
            fetches > 0 ? static_cast<double>(cells) /
                              static_cast<double>(fetches)
                        : 0.0;
        table.add_row({"WB" + std::to_string(wb),
                       Table::fmt(summarize(series).mean, 3),
                       Table::fmt(fetches_per_edge, 2),
                       Table::fmt(cells_per_fetch, 2)});
    }
    table.print(std::cout);
    std::cout << "\n(smaller Workblocks retrieve less per fetch but fetch "
                 "more often; the default 4 balances the two)\n";
    return 0;
}

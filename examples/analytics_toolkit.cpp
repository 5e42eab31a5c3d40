// Analytics toolkit tour: the extension APIs in one program — PageRank,
// triangle counting / clustering coefficients, snapshot export,
// direction-optimizing BFS, and save/load persistence.
//
//   $ ./build/examples/analytics_toolkit
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/audit.hpp"
#include "core/bidirectional.hpp"
#include "core/serialize.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "engine/snapshot.hpp"
#include "engine/triangles.hpp"
#include "engine/vertex_centric.hpp"
#include "gen/rmat.hpp"

int main() {
    using namespace gt;

    const auto edges =
        engine::symmetrize(rmat_edges(20'000, 150'000, /*seed=*/77));

    // A bidirectional store gives both adjacency directions.
    core::BidirectionalGraphTinker graph;
    graph.insert_batch(edges);
    std::printf("graph: %llu directed edges over %u vertices\n\n",
                static_cast<unsigned long long>(graph.num_edges()),
                graph.num_vertices());

    // 1. PageRank (forward push) over the forward direction.
    engine::PageRank<core::GraphTinker> pr_alg{&graph.forward(), 0.85, 1e-9};
    engine::DynamicAnalysis<core::GraphTinker,
                            engine::PageRank<core::GraphTinker>>
        pr(graph.forward(), engine::EngineOptions{},
           pr_alg);
    pr.run_from_scratch();
    VertexId top_vertex = 0;
    double top_rank = 0.0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (pr.property(v).rank > top_rank) {
            top_rank = pr.property(v).rank;
            top_vertex = v;
        }
    }
    std::printf("1. PageRank: most central vertex is %u (rank %.2f)\n",
                top_vertex, top_rank);

    // 2. Triangles and clustering coefficients.
    const auto tri = engine::count_triangles(graph.forward());
    std::printf("2. Triangles: %llu total, global clustering %.4f\n",
                static_cast<unsigned long long>(tri.total_triangles),
                tri.global_clustering);

    // 3. Direction-optimizing BFS from the most central vertex.
    engine::DirectionStats dstats;
    const auto levels =
        engine::direction_optimizing_bfs(graph, top_vertex, &dstats);
    const auto reached = static_cast<std::size_t>(
        std::count_if(levels.begin(), levels.end(),
                      [](std::uint32_t l) { return l != kInfDistance; }));
    std::printf("3. BFS from %u: reached %zu vertices in %zu levels "
                "(%zu bottom-up), %llu edges examined\n",
                top_vertex, reached, dstats.levels, dstats.bottom_up_levels,
                static_cast<unsigned long long>(dstats.edges_examined));

    // 4. Freeze a CSR snapshot and run a static oracle on it.
    const auto snap = engine::snapshot_of(graph.forward());
    const auto static_bfs = engine::reference_bfs(snap, top_vertex);
    std::printf("4. Snapshot: CSR with %llu edges; static BFS agrees with "
                "dynamic: %s\n",
                static_cast<unsigned long long>(snap.num_edges()),
                levels == static_bfs ? "yes" : "NO (bug!)");

    // 5. Persist and restore.
    std::stringstream buffer;
    if (const gt::Status st = core::write_snapshot(graph.forward(), buffer);
        !st.ok()) {
        std::printf("5. Persistence FAILED: %s\n", st.to_string().c_str());
        return 1;
    }
    core::LoadedSnapshot loaded;
    if (const gt::Status st = core::read_snapshot(buffer, loaded); !st.ok()) {
        std::printf("5. Restore FAILED: %s\n", st.to_string().c_str());
        return 1;
    }
    const auto restored = std::move(loaded.graph);
    std::printf("5. Persistence: snapshot is %zu bytes; restored graph has "
                "%llu edges (audit: %s)\n",
                buffer.str().size(),
                static_cast<unsigned long long>(restored->num_edges()),
                restored->audit().ok() ? "ok" : "FAILED");
    return 0;
}

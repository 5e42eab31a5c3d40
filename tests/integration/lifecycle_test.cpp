// Integration tests: full dynamic lifecycles (load -> analyze -> delete ->
// analyze) across deletion modes, parallel-vs-serial equivalence, and
// sustained churn with structural validation.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/test_util.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "gen/batcher.hpp"
#include "gen/datasets.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"

namespace gt {
namespace {

class LifecycleTest : public ::testing::TestWithParam<core::DeletionMode> {};

TEST_P(LifecycleTest, LoadAnalyzeDeleteAnalyze) {
    core::Config cfg;
    cfg.deletion_mode = GetParam();
    core::GraphTinker g(cfg);

    // Phase 1: batched load with analytics after each batch (paper's
    // two-step experiment protocol, §V.B).
    const auto stream =
        test::stabilize_weights(engine::symmetrize(rmat_edges(400, 6000, 55)));
    EdgeBatcher batches(stream, 1500);
    engine::DynamicAnalysis<core::GraphTinker, engine::Cc> cc(g);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        (void)g.insert_batch(batches.batch(b));
        cc.on_batch(batches.batch(b));
        ASSERT_TRUE(g.audit().ok())
            << "batch " << b << ": " << g.audit().to_string();
    }
    {
        const engine::CsrSnapshot csr(stream, g.num_vertices());
        const auto want = engine::reference_cc(csr);
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(cc.property(v), want[v]) << v;
        }
    }

    // Phase 2: delete the whole stream in batches, re-analyzing as we go
    // (from scratch, as deletions are not monotone).
    const auto deletions = deletion_stream(stream, 7);
    EdgeBatcher del_batches(deletions, 2000);
    std::set<std::pair<VertexId, VertexId>> remaining;
    for (const Edge& e : stream) {
        remaining.insert({e.src, e.dst});
    }
    for (std::size_t b = 0; b < del_batches.num_batches(); ++b) {
        for (const Edge& e : del_batches.batch(b)) {
            (void)g.delete_edge(e.src, e.dst);
            remaining.erase({e.src, e.dst});
        }
        ASSERT_EQ(g.num_edges(), remaining.size());
        ASSERT_TRUE(g.audit().ok())
            << "deletion batch " << b << ": " << g.audit().to_string();
    }
    EXPECT_EQ(g.num_edges(), 0u);
    if (GetParam() == core::DeletionMode::DeleteAndCompact) {
        EXPECT_EQ(g.edgeblock_array().blocks_in_use(), 0u)
            << "compact mode must release every edgeblock";
        EXPECT_EQ(g.cal().blocks_in_use(), 0u);
    }

    // Phase 3: the structure is still fully usable after emptying.
    (void)g.insert_edge(1, 2, 3);
    EXPECT_EQ(g.find_edge(1, 2), std::optional<Weight>(3));
    ASSERT_TRUE(g.audit().ok()) << g.audit().to_string();
}

INSTANTIATE_TEST_SUITE_P(Modes, LifecycleTest,
                         ::testing::Values(core::DeletionMode::DeleteOnly,
                                           core::DeletionMode::DeleteAndCompact),
                         [](const auto& info) {
                             return info.param ==
                                            core::DeletionMode::DeleteOnly
                                        ? "delete_only"
                                        : "delete_and_compact";
                         });

TEST(Integration, ReinsertionAfterDeletionReusesStructure) {
    core::GraphTinker g;
    const auto edges = rmat_edges(200, 4000, 66);
    for (int cycle = 0; cycle < 3; ++cycle) {
        (void)g.insert_batch(edges);
        const auto peak = g.edgeblock_array().blocks_allocated();
        (void)g.delete_batch(edges);
        EXPECT_EQ(g.num_edges(), 0u);
        (void)g.insert_batch(edges);
        // Tombstoned slots absorb the reinsertion: the arena must not keep
        // growing cycle over cycle.
        EXPECT_LE(g.edgeblock_array().blocks_allocated(), peak + 2);
        (void)g.delete_batch(edges);
        ASSERT_TRUE(g.audit().ok())
            << "cycle " << cycle << ": " << g.audit().to_string();
    }
}

TEST(Integration, ParallelShardsEqualSerialUnderChurn) {
    const auto inserts = rmat_edges(800, 15000, 91);
    const auto deletions = deletion_stream(inserts, 3);
    core::ShardedStore<core::GraphTinker> sharded(6, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    EdgeBatcher ins(inserts, 4000);
    for (std::size_t b = 0; b < ins.num_batches(); ++b) {
        (void)sharded.insert_batch(ins.batch(b));
        (void)serial.insert_batch(ins.batch(b));
        ASSERT_EQ(sharded.num_edges(), serial.num_edges());
    }
    // Delete half.
    EdgeBatcher dels(
        std::span<const Edge>(deletions.data(), deletions.size() / 2), 3000);
    for (std::size_t b = 0; b < dels.num_batches(); ++b) {
        (void)sharded.delete_batch(dels.batch(b));
        (void)serial.delete_batch(dels.batch(b));
        ASSERT_EQ(sharded.num_edges(), serial.num_edges());
    }
    using E = std::tuple<VertexId, VertexId, Weight>;
    std::set<E> serial_set;
    serial.visit_edges(
        [&](VertexId u, VertexId v, Weight w) { serial_set.emplace(u, v, w); });
    std::set<E> sharded_set;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        sharded.shard(s).visit_edges([&](VertexId u, VertexId v, Weight w) {
            sharded_set.emplace(u, v, w);
        });
        ASSERT_TRUE(sharded.shard(s).audit().ok())
            << "shard " << s << ": " << sharded.shard(s).audit().to_string();
    }
    EXPECT_EQ(sharded_set, serial_set);
}

TEST(Integration, StingerAndTinkerAgreeOnFinalGraph) {
    // Both stores, fed the same churn, must converge to the same edge set —
    // and the same engine over each must produce the same analysis.
    const auto inserts = test::stabilize_weights(
        engine::symmetrize(rmat_edges(300, 5000, 101)));
    const auto deletions = deletion_stream(inserts, 11);

    core::GraphTinker tinker;
    stinger::Stinger baseline;
    (void)tinker.insert_batch(inserts);
    for (const Edge& e : inserts) {
        (void)baseline.insert_edge(e.src, e.dst, e.weight);
    }
    for (std::size_t i = 0; i < deletions.size() / 3; ++i) {
        (void)tinker.delete_edge(deletions[i].src, deletions[i].dst);
        (void)baseline.delete_edge(deletions[i].src, deletions[i].dst);
    }
    ASSERT_EQ(tinker.num_edges(), baseline.num_edges());

    engine::DynamicAnalysis<core::GraphTinker, engine::Bfs> bfs_t(tinker);
    engine::DynamicAnalysis<stinger::Stinger, engine::Bfs> bfs_s(baseline);
    bfs_t.set_root(0);
    bfs_s.set_root(0);
    bfs_t.run_from_scratch();
    bfs_s.run_from_scratch();
    const VertexId bound =
        std::max(tinker.num_vertices(), baseline.num_vertices());
    for (VertexId v = 0; v < bound; ++v) {
        ASSERT_EQ(bfs_t.property(v), bfs_s.property(v)) << v;
    }
}

TEST(Integration, TinyScaledDatasetEndToEnd) {
    // Exercise the real dataset registry path at a micro scale.
    const auto spec = dataset_by_name("RMAT_500K_8M").scaled(0.0005);
    const auto edges = spec.generate();
    EXPECT_EQ(edges.size(), spec.num_edges);
    core::GraphTinker g;
    (void)g.insert_batch(edges);
    EXPECT_GT(g.num_edges(), 0u);
    ASSERT_TRUE(g.audit().ok()) << g.audit().to_string();
    engine::DynamicAnalysis<core::GraphTinker, engine::Cc> cc(g);
    const auto stats = cc.run_from_scratch();
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_GT(stats.logical_edges, 0u);
}

}  // namespace
}  // namespace gt

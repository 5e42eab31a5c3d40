// Tests for the shard-parallel analytics engine: bit-equivalence with the
// serial engine and with the static references, across algorithms, modes and
// shard counts.
#include <gtest/gtest.h>

#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/reference.hpp"
#include "gen/batcher.hpp"
#include "gen/rmat.hpp"

namespace gt::engine {
namespace {

class ParallelEngineTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelEngineTest, BfsMatchesReferenceAcrossShardCounts) {
    const std::size_t shards = GetParam();
    const auto edges = symmetrize(rmat_edges(400, 6000, 21));
    core::ShardedStore<core::GraphTinker> store(shards, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    bfs.set_root(0);
    const auto stats = bfs.run_from_scratch();
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_EQ(bfs.num_workers(), shards);

    VertexId bound = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bound = std::max(bound, store.shard(s).num_vertices());
    }
    const CsrSnapshot csr(edges, bound);
    const auto want = reference_bfs(csr, 0);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want[v]) << "shards=" << shards << " v=" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ParallelEngineTest,
                         ::testing::Values(1, 2, 4, 7));

TEST(ParallelEngine, CcAndSsspMatchSerialEngineDynamically) {
    const auto edges = symmetrize(rmat_edges(300, 5000, 31));
    // Stabilize weights so serial/parallel/oracle all agree under dups.
    std::vector<Edge> stable = edges;
    for (Edge& e : stable) {
        e.weight = 1 + (e.src * 7 + e.dst * 13) % 50;
    }

    core::ShardedStore<core::GraphTinker> sharded(3, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Cc> par_cc(sharded);
    DynamicAnalysis<core::GraphTinker, Cc> ser_cc(serial);
    ParallelDynamicAnalysis<core::GraphTinker, Sssp> par_sssp(sharded);
    DynamicAnalysis<core::GraphTinker, Sssp> ser_sssp(serial);
    par_sssp.set_root(1);
    ser_sssp.set_root(1);

    EdgeBatcher batches(stable, 1000);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        par_cc.on_batch(batch);
        ser_cc.on_batch(batch);
        par_sssp.on_batch(batch);
        ser_sssp.on_batch(batch);
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par_cc.property(v), ser_cc.property(v))
                << "CC batch " << b << " vertex " << v;
            ASSERT_EQ(par_sssp.property(v), ser_sssp.property(v))
                << "SSSP batch " << b << " vertex " << v;
        }
    }
}

TEST(ParallelEngine, ForcedModesRespected) {
    // Every policy must pick the same mode sequence as the serial engine
    // on the same edges, not just the two forced ones.
    const auto edges = symmetrize(rmat_edges(2000, 60000, 91));
    core::ShardedStore<core::GraphTinker> store(3, [] {
        return core::Config{};
    });
    core::GraphTinker serial;
    (void)store.insert_batch(edges);
    (void)serial.insert_batch(edges);
    for (const ModePolicy policy :
         {ModePolicy::ForceFull, ModePolicy::ForceIncremental,
          ModePolicy::Hybrid, ModePolicy::HybridDegreeAware}) {
        const EngineOptions opts{.policy = policy};
        ParallelDynamicAnalysis<core::GraphTinker, Bfs> par(store, opts);
        DynamicAnalysis<core::GraphTinker, Bfs> ser(serial, opts);
        par.set_root(0);
        ser.set_root(0);
        const auto got = par.run_from_scratch();
        const auto want = ser.run_from_scratch();
        const int p = static_cast<int>(policy);
        if (policy == ModePolicy::ForceFull) {
            EXPECT_EQ(got.incremental_iterations, 0u);
        }
        if (policy == ModePolicy::ForceIncremental) {
            EXPECT_EQ(got.full_iterations, 0u);
        }
        EXPECT_EQ(got.full_iterations, want.full_iterations) << "policy " << p;
        EXPECT_EQ(got.incremental_iterations, want.incremental_iterations)
            << "policy " << p;
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "policy " << p << " vertex " << v;
        }
    }
}

TEST(ParallelEngine, TraceAndCountsAddUp) {
    const auto edges = symmetrize(rmat_edges(250, 3000, 51));
    core::ShardedStore<core::GraphTinker> store(4, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);
    // The sharded store has per-shard registries; a standalone registry
    // collects the engine-level telemetry instead.
    obs::Registry registry;
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(
        store, EngineOptions{.registry = &registry});
    bfs.set_root(0);
    const auto stats = bfs.run_from_scratch();
    const auto snap = registry.snapshot();
    const auto* trace = snap.find_series("engine.trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->rows.size(), stats.iterations);
    std::uint64_t streamed = 0;
    for (const auto& row : trace->rows) {
        streamed += static_cast<std::uint64_t>(row[4]);
    }
    EXPECT_EQ(streamed, stats.edges_streamed);
    EXPECT_EQ(snap.counter_value("engine.iterations"), stats.iterations);
    EXPECT_GT(stats.logical_edges, 0u);
}

}  // namespace
}  // namespace gt::engine

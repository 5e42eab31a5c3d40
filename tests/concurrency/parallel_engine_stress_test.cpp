// TSan race-stress for the shard-parallel analytics engine: repeated
// incremental batches with per-batch equivalence against the serial engine,
// back-to-back from-scratch runs reusing the same worker state, and runs
// that overlap a writer thread. The engine's merge/apply phases are serial
// by design; this proves the parallel compute phase keeps worker-local state
// actually local and reads the shards only through its pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

#include "core/audit.hpp"
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

TEST(ParallelEngineStress, IncrementalBfsStaysBitEqualUnderManyBatches) {
    const auto edges = symmetrize(rmat_edges(300, 5000, 61));
    core::ShardedStore<core::GraphTinker> sharded(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> par(sharded);
    DynamicAnalysis<core::GraphTinker, Bfs> ser(serial);
    par.set_root(0);
    ser.set_root(0);

    EdgeBatcher batches(edges, 200);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        par.on_batch(batch);
        ser.on_batch(batch);
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "batch " << b << " vertex " << v;
        }
    }
    // The stores behind the engine must still be structurally sound.
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        EXPECT_TRUE(core::Auditor::run(sharded.shard(s)).ok())
            << "shard " << s;
    }
}

TEST(ParallelEngineStress, RepeatedFromScratchRunsAreStable) {
    const auto edges = symmetrize(rmat_edges(250, 4000, 71));
    core::ShardedStore<core::GraphTinker> store(3, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);

    VertexId bound = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bound = std::max(bound, store.shard(s).num_vertices());
    }
    const CsrSnapshot csr(edges, bound);
    const auto want = reference_bfs(csr, 0);

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    bfs.set_root(0);
    for (int run = 0; run < 5; ++run) {
        const auto stats = bfs.run_from_scratch();
        ASSERT_GT(stats.iterations, 0u) << "run " << run;
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(bfs.property(v), want[v])
                << "run " << run << " vertex " << v;
        }
    }
}

TEST(ParallelEngineStress, TwoAlgorithmsShareTheStore) {
    // Two engines driving parallel compute phases over the same sharded
    // store back to back: readers of shared graph state, writers only of
    // their own property arrays.
    const auto edges = symmetrize(rmat_edges(200, 3000, 81));
    core::ShardedStore<core::GraphTinker> store(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Cc> cc(store);
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    DynamicAnalysis<core::GraphTinker, Cc> ser_cc(serial);
    DynamicAnalysis<core::GraphTinker, Bfs> ser_bfs(serial);
    bfs.set_root(0);
    ser_bfs.set_root(0);

    EdgeBatcher batches(edges, 500);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)store.insert_batch(batch);
        (void)serial.insert_batch(batch);
        cc.on_batch(batch);
        bfs.on_batch(batch);
        ser_cc.on_batch(batch);
        ser_bfs.on_batch(batch);
    }
    for (VertexId v = 0; v < serial.num_vertices(); ++v) {
        ASSERT_EQ(cc.property(v), ser_cc.property(v)) << "CC vertex " << v;
        ASSERT_EQ(bfs.property(v), ser_bfs.property(v)) << "BFS vertex " << v;
    }
}

TEST(ParallelEngineStress, RunsOverlapIngest) {
    // Analytics runs while a writer thread churns the store: each run must
    // read the shards through its pin, never under a shard worker's writes.
    const auto edges = symmetrize(rmat_edges(300, 6000, 101));
    const std::size_t half = edges.size() / 2;
    const std::span<const Edge> churn(edges.data() + half, edges.size() - half);
    core::ShardedStore<core::GraphTinker> store(3, [] {
        return core::Config{};
    });
    (void)store.insert_batch(std::span<const Edge>(edges.data(), half));

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    bfs.set_root(0);
    std::atomic<bool> started{false};
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        auto apply = [&](bool insert) {
            EdgeBatcher batches(churn, 50);
            for (std::size_t b = 0; b < batches.num_batches(); ++b) {
                (void)(insert ? store.insert_batch(batches.batch(b))
                              : store.delete_batch(batches.batch(b)));
                started.store(true, std::memory_order_relaxed);
            }
        };
        apply(true);
        while (!stop.load(std::memory_order_relaxed)) {
            apply(false);
            apply(true);
        }
    });
    while (!started.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
    }
    for (int run = 0; run < 30; ++run) {
        (void)bfs.run_from_scratch();
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    ASSERT_TRUE(store.flush().ok());

    (void)bfs.run_from_scratch();
    VertexId bound = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bound = std::max(bound, store.shard(s).num_vertices());
    }
    const CsrSnapshot csr(edges, bound);
    const auto want = reference_bfs(csr, 0);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want[v]) << "vertex " << v;
    }
}

}  // namespace
}  // namespace gt::engine

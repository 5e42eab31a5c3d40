// Pipelined ShardedStore contract tests: writes deferred behind the
// all-shard read pin (TSan certifies the single-writer/many-reader epochs),
// flush/drain barrier correctness (queue-depth gauges included), the
// WouldDeadlock refusal under a pin, asynchronous per-shard failure
// latching, and destructor draining of still-queued batches. Sized to stay
// fast under ThreadSanitizer; run under the tsan preset to certify the
// pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "gen/rmat.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace gt::core {
namespace {

Config pipeline_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 8;
    cfg.workblock = 4;
    return cfg;
}

using Sharded = ShardedStore<GraphTinker>;

/// Splits a stream into the edges owned by `target` and everything else,
/// using the store's own placement function.
void split_by_shard(std::span<const Edge> edges, std::size_t target,
                    std::size_t shards, std::vector<Edge>& owned,
                    std::vector<Edge>& others) {
    for (const Edge& e : edges) {
        (Sharded::shard_of(e.src, shards) == target ? owned : others)
            .push_back(e);
    }
}

TEST(ShardedPipeline, PinnedShardDefersWritesUntilRelease) {
    constexpr std::size_t kShards = 2;
    Sharded store(kShards, [] { return pipeline_config(); });
    const auto all = rmat_edges(200, 2000, 13);
    std::vector<Edge> owned;
    std::vector<Edge> others;
    split_by_shard(all, 0, kShards, owned, others);
    ASSERT_FALSE(owned.empty());

    {
        const auto pin = store.read_snapshot_all();
        // Enqueue work for a pinned shard: its worker must block on the
        // rwlock instead of mutating under the reader.
        (void)store.insert_batch(owned);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(pin.store(0).num_edges(), 0u);
        EXPECT_EQ(pin.edge_total(), 0u);
    }
    store.drain();
    GraphTinker reference(pipeline_config());
    (void)reference.insert_batch(owned);
    EXPECT_EQ(store.shard(0).num_edges(), reference.num_edges());
}

TEST(ShardedPipeline, FlushDrainsAndEpochsAdvance) {
    constexpr std::size_t kShards = 4;
    Sharded store(kShards, [] { return pipeline_config(); });
    GraphTinker reference(pipeline_config());

    const auto edges = rmat_edges(150, 3000, 5);
    constexpr std::size_t kSlice = 500;
    for (std::size_t i = 0; i < edges.size(); i += kSlice) {
        const auto slice =
            std::span<const Edge>(edges).subspan(i, kSlice);
        (void)store.insert_batch(slice);
        (void)reference.insert_batch(slice);
    }
    ASSERT_TRUE(store.flush().ok());
    EXPECT_EQ(store.num_edges(), reference.num_edges());

    // Every shard got a slice of the stream, and flush() on an already-idle
    // pipeline stays Ok.
    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_GT(store.shard(s).num_edges(), 0u) << "shard " << s;
    }
    EXPECT_TRUE(store.flush().ok());
}

TEST(ShardedPipeline, QueueDepthGaugesReadZeroAfterFlush) {
    constexpr std::size_t kShards = 3;
    obs::Registry registry;
    Sharded store(kShards, [] { return pipeline_config(); },
                  ShardedOptions{&registry});
    // 1-edge batches take the bypass: one push per edge, so the producer
    // keeps setting the gauges while the workers drain.
    const auto edges = rmat_edges(2000, 20000, 17);
    for (const Edge& e : edges) {
        (void)store.insert_batch({&e, 1});
    }
    ASSERT_TRUE(store.flush().ok());
    const obs::Snapshot snap = registry.snapshot();
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::string name = "shard." + std::to_string(s) + ".queue_depth";
        ASSERT_NE(snap.gauge(name), nullptr) << name;
        EXPECT_EQ(snap.gauge_value(name), 0.0) << name;
    }
}

TEST(ShardedPipeline, ShardFailureLatchesUntilFlush) {
    constexpr std::size_t kShards = 3;
    Sharded store(kShards, [] { return pipeline_config(); });
    const auto edges = rmat_edges(200, 5000, 11);

    {
        // Single-shot: exactly one shard's edgeblock growth faults, rolls
        // its slice back, and latches; the other shards commit.
        const fail::ScopedFailPoint fp("eba.grow", 1);
        (void)store.insert_batch(edges);

        // flush() reports the latched failure once and re-arms.
        const Status first = store.flush();
        ASSERT_FALSE(first.ok());
        EXPECT_EQ(first.code, StatusCode::FaultInjected);
        EXPECT_TRUE(first.message.starts_with("shard "))
            << first.message;
        EXPECT_TRUE(store.flush().ok());
    }

    // Rollback left every shard structurally sound.
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        EXPECT_TRUE(Auditor::run(store.shard(s)).ok()) << "shard " << s;
    }

    // Re-ingesting with nothing armed heals: the store converges to the
    // serial reference.
    (void)store.insert_batch(edges);
    ASSERT_TRUE(store.flush().ok());
    GraphTinker reference(pipeline_config());
    (void)reference.insert_batch(edges);
    EXPECT_EQ(store.num_edges(), reference.num_edges());
}

TEST(ShardedPipeline, FlushUnderReadPinRefusesWouldDeadlock) {
    constexpr std::size_t kShards = 2;
    Sharded store(kShards, [] { return pipeline_config(); });
    const auto all = rmat_edges(100, 1000, 17);
    (void)store.insert_batch(all);
    ASSERT_TRUE(store.flush().ok());

    {
        const auto pin = store.read_snapshot_all();
        // Queue work for the pinned shards: their workers block on the
        // pin's shared locks, so the queues cannot settle. Without the
        // per-thread pin registry, flush() here would wait on those workers
        // forever.
        (void)store.insert_batch(all);
        const Status st = store.flush();
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code, StatusCode::WouldDeadlock);
        EXPECT_EQ(st.detail, 0u);  // names the first pinned shard
        // shard(i) under the caller's pin does not block: it serves the
        // pin's settled epoch instead of waiting on the blocked worker.
        EXPECT_EQ(store.shard(0).num_edges(), pin.store(0).num_edges());
    }

    // Pin released: the same flush completes and reports a healthy run.
    ASSERT_TRUE(store.flush().ok());
    GraphTinker reference(pipeline_config());
    (void)reference.insert_batch(all);
    EXPECT_EQ(store.num_edges(), reference.num_edges());
}

/// Minimal store: counts applied edges. Exercises the per-edge fallback of
/// the worker's dispatch (no insert_batch member) and makes destruction
/// observable from outside the wrapper.
class CountingStore {
public:
    explicit CountingStore(std::atomic<std::uint64_t>* counter)
        : counter_(counter) {}

    bool insert_edge(VertexId, VertexId, Weight) {
        counter_->fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    // Referenced by the worker's dispatch switch; never called here.
    bool delete_edge(VertexId, VertexId) { return false; }

private:
    std::atomic<std::uint64_t>* counter_;
};

TEST(ShardedPipeline, DestructorDrainsQueuedBatches) {
    std::atomic<std::uint64_t> applied{0};
    constexpr std::size_t kEdges = 20000;
    const auto edges = rmat_edges(500, kEdges, 3);
    {
        ShardedStore<CountingStore> store(3, [&] { return &applied; });
        constexpr std::size_t kSlice = 128;
        for (std::size_t i = 0; i < edges.size(); i += kSlice) {
            const std::size_t len = std::min(kSlice, edges.size() - i);
            (void)store.insert_batch(
                std::span<const Edge>(edges).subspan(i, len));
        }
        // No drain/flush: the destructor must stop the queues and still
        // apply every enqueued slice before the stores die.
    }
    EXPECT_EQ(applied.load(std::memory_order_relaxed), kEdges);
}

}  // namespace
}  // namespace gt::core

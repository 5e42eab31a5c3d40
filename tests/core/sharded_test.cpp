// Tests for the parallel sharded wrapper (paper Fig. 6).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"

namespace gt::core {
namespace {

using E = std::tuple<VertexId, VertexId, Weight>;

template <typename Sharded>
std::set<E> all_edges(const Sharded& sharded) {
    std::set<E> out;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        sharded.shard(s).visit_edges(
            [&](VertexId u, VertexId v, Weight w) { out.emplace(u, v, w); });
    }
    return out;
}

TEST(Sharded, GraphTinkerMatchesSerialInstance) {
    const auto edges = rmat_edges(1000, 20000, 31);
    ShardedStore<GraphTinker> sharded(4, [] { return Config{}; });
    GraphTinker serial;
    (void)sharded.insert_batch(edges);
    (void)serial.insert_batch(edges);
    EXPECT_EQ(sharded.num_edges(), serial.num_edges());

    std::set<E> serial_edges;
    serial.visit_edges(
        [&](VertexId u, VertexId v, Weight w) { serial_edges.emplace(u, v, w); });
    EXPECT_EQ(all_edges(sharded), serial_edges);
}

TEST(Sharded, ShardsPartitionBySourceOnly) {
    const auto edges = rmat_edges(500, 5000, 32);
    ShardedStore<GraphTinker> sharded(8, [] { return Config{}; });
    (void)sharded.insert_batch(edges);
    // Every vertex's out-edges live in exactly one shard.
    for (VertexId v = 0; v < 500; ++v) {
        int shards_with_v = 0;
        for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
            if (sharded.shard(s).degree(v) > 0) {
                ++shards_with_v;
            }
        }
        EXPECT_LE(shards_with_v, 1) << "vertex " << v << " split across shards";
    }
}

TEST(Sharded, DeleteBatchRemovesEverything) {
    const auto edges = rmat_edges(300, 8000, 33);
    ShardedStore<GraphTinker> sharded(3, [] { return Config{}; });
    (void)sharded.insert_batch(edges);
    EXPECT_GT(sharded.num_edges(), 0u);
    (void)sharded.delete_batch(edges);
    EXPECT_EQ(sharded.num_edges(), 0u);
}

TEST(Sharded, FindRoutesToOwningShard) {
    ShardedStore<GraphTinker> sharded(5, [] { return Config{}; });
    const std::vector<Edge> batch{{1, 2, 10}, {3, 4, 20}, {100, 7, 30}};
    (void)sharded.insert_batch(batch);
    const auto find = [&](VertexId src, VertexId dst) {
        return sharded
            .shard(ShardedStore<GraphTinker>::shard_of(src,
                                                       sharded.num_shards()))
            .find_edge(src, dst);
    };
    EXPECT_EQ(find(1, 2), std::optional<Weight>(10));
    EXPECT_EQ(find(100, 7), std::optional<Weight>(30));
    EXPECT_FALSE(find(1, 7).has_value());
}

TEST(Sharded, WorksForStingerToo) {
    const auto edges = rmat_edges(400, 6000, 34);
    ShardedStore<stinger::Stinger> sharded(
        4, [] { return stinger::StingerConfig{}; });
    stinger::Stinger serial;
    (void)sharded.insert_batch(edges);
    for (const Edge& e : edges) {
        (void)serial.insert_edge(e.src, e.dst, e.weight);
    }
    EXPECT_EQ(sharded.num_edges(), serial.num_edges());
    std::set<E> serial_edges;
    serial.visit_edges(
        [&](VertexId u, VertexId v, Weight w) { serial_edges.emplace(u, v, w); });
    EXPECT_EQ(all_edges(sharded), serial_edges);
}

TEST(Sharded, SingleShardDegeneratesGracefully) {
    ShardedStore<GraphTinker> sharded(1, [] { return Config{}; });
    const std::vector<Edge> batch{{1, 2, 3}};
    (void)sharded.insert_batch(batch);
    EXPECT_EQ(sharded.num_edges(), 1u);
    EXPECT_EQ(sharded.num_shards(), 1u);
}

TEST(Sharded, ZeroShardRequestClampsToOne) {
    ShardedStore<GraphTinker> sharded(0, [] { return Config{}; });
    EXPECT_EQ(sharded.num_shards(), 1u);
}

TEST(Sharded, ReadSnapshotAllSeesOneConsistentCut) {
    const auto edges = rmat_edges(800, 12000, 34);
    ShardedStore<GraphTinker> sharded(4, [] { return Config{}; });
    (void)sharded.insert_batch(edges);
    GraphTinker serial;
    (void)serial.insert_batch(edges);

    {
        const auto pin = sharded.read_snapshot_all();
        ASSERT_EQ(pin.num_shards(), 4u);
        // The pin's cross-shard aggregate matches the serial instance, and
        // the per-shard views union to exactly the serial edge set — one
        // settled epoch across every shard.
        EXPECT_EQ(pin.edge_total(), serial.num_edges());
        std::set<E> pinned_edges;
        for (std::size_t s = 0; s < pin.num_shards(); ++s) {
            pin.store(s).visit_edges([&](VertexId u, VertexId v, Weight w) {
                pinned_edges.emplace(u, v, w);
            });
        }
        std::set<E> serial_edges;
        serial.visit_edges([&](VertexId u, VertexId v, Weight w) {
            serial_edges.emplace(u, v, w);
        });
        EXPECT_EQ(pinned_edges, serial_edges);
    }

    // Ingest resumes after the pin drops.
    const std::vector<Edge> more{{900, 901, 1}};
    EXPECT_TRUE(sharded.insert_batch(more).ok());
    EXPECT_EQ(sharded.num_edges(), serial.num_edges() + 1);
}

}  // namespace
}  // namespace gt::core

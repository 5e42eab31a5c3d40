// TSan race-stress for ShardedStore: the one-writer-per-shard model under
// rapid interleaved insert/delete batches, cross-checked against a serial
// reference instance and swept by the deep auditor per shard. Any cross-shard
// write leak or partition race shows up either as a TSan report or as a
// content divergence.
#include <gtest/gtest.h>

#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "gen/batcher.hpp"
#include "gen/rmat.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

Config stress_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 8;
    cfg.workblock = 4;
    return cfg;
}

TEST(ShardedStress, InterleavedInsertDeleteMatchesSerialReference) {
    constexpr std::size_t kShards = 4;
    constexpr std::uint32_t kVertices = 200;
    ShardedStore<GraphTinker> store(kShards,
                                    [] { return stress_config(); });
    GraphTinker reference(stress_config());

    const auto inserts = rmat_edges(kVertices, 4000, 77);
    Rng rng(99);
    EdgeBatcher batches(inserts, 500);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)store.insert_batch(batch);
        (void)reference.insert_batch(batch);

        // Delete a pseudo-random slice of everything inserted so far, so
        // shard-parallel DELETE walks interleave with prior INSERT state.
        std::vector<Edge> doomed;
        for (int i = 0; i < 120; ++i) {
            const auto& e = inserts[rng.next_below((b + 1) * 500)];
            doomed.push_back(e);
        }
        (void)store.delete_batch(doomed);
        (void)reference.delete_batch(doomed);

        ASSERT_EQ(store.num_edges(), reference.num_edges()) << "batch " << b;
    }

    // Content equivalence: every reference edge is found in its shard with
    // the same weight, and no shard holds an edge the reference lacks.
    reference.visit_edges([&](VertexId src, VertexId dst, Weight w) {
        const auto got =
            store
                .shard(ShardedStore<GraphTinker>::shard_of(src,
                                                           store.num_shards()))
                .find_edge(src, dst);
        ASSERT_TRUE(got.has_value()) << src << "->" << dst;
        EXPECT_EQ(*got, w) << src << "->" << dst;
    });
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        store.shard(s).visit_edges(
            [&](VertexId src, VertexId dst, Weight w) {
                const auto want = reference.find_edge(src, dst);
                ASSERT_TRUE(want.has_value())
                    << "shard " << s << " leaked " << src << "->" << dst;
                EXPECT_EQ(*want, w);
            });
    }

    // Every shard must pass the deep structural audit after the stress run.
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        const AuditReport report = Auditor::run(store.shard(s));
        EXPECT_TRUE(report.ok()) << "shard " << s << ": "
                                 << report.to_string();
    }
}

TEST(ShardedStress, RepeatedSmallBatchesAcrossManyShards) {
    // Seven shards on small batches maximizes queue hand-offs relative to
    // real work — the regime where worker wakeup races would surface.
    ShardedStore<GraphTinker> store(7, [] { return stress_config(); });
    const auto edges = rmat_edges(100, 3000, 123);
    EdgeBatcher batches(edges, 64);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        (void)store.insert_batch(batches.batch(b));
    }
    EdgeCount per_shard_total = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        per_shard_total += store.shard(s).num_edges();
        EXPECT_TRUE(Auditor::run(store.shard(s)).ok()) << "shard " << s;
    }
    EXPECT_EQ(per_shard_total, store.num_edges());
}

TEST(ShardedStress, DeleteEverythingInParallel) {
    ShardedStore<GraphTinker> store(4, [] { return stress_config(); });
    const auto edges = rmat_edges(80, 2500, 31);
    (void)store.insert_batch(edges);
    (void)store.delete_batch(edges);
    EXPECT_EQ(store.num_edges(), 0u);
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        const AuditReport report = Auditor::run(store.shard(s));
        EXPECT_TRUE(report.ok()) << "shard " << s << ": "
                                 << report.to_string();
    }
}

}  // namespace
}  // namespace gt::core

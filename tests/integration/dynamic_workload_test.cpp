// Long-horizon dynamic workload tests: sustained interleaved insert/delete/
// analytics across stores, engines and feature configurations — the closest
// thing to production traffic the suite simulates.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_map>

#include "common/scoped_audit.hpp"
#include "common/test_util.hpp"
#include "core/bidirectional.hpp"
#include "core/graphtinker.hpp"
#include "core/serialize.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "engine/snapshot.hpp"
#include "engine/triangles.hpp"
#include "engine/vertex_centric.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

using EdgeKey = std::pair<VertexId, VertexId>;

// Three stores fed identical update streams must agree with a model and
// with each other at every checkpoint.
TEST(DynamicWorkload, ThreeStoresTrackOneModelThroughMixedTraffic) {
    core::Config compact_cfg;
    compact_cfg.deletion_mode = core::DeletionMode::DeleteAndCompact;
    core::GraphTinker tinker_only;
    core::GraphTinker tinker_compact(compact_cfg);
    const test::ScopedAudit audit_only(tinker_only, "delete-only store");
    const test::ScopedAudit audit_compact(tinker_compact, "compacting store");
    stinger::Stinger baseline;
    std::map<EdgeKey, Weight> model;

    Rng rng(2026);
    constexpr int kPhases = 8;
    constexpr int kOpsPerPhase = 6000;
    for (int phase = 0; phase < kPhases; ++phase) {
        // Traffic mix shifts phase by phase: growth -> churn -> decay.
        const std::uint64_t insert_bias =
            phase < 3 ? 8 : (phase < 6 ? 5 : 2);
        for (int op = 0; op < kOpsPerPhase; ++op) {
            const auto src = static_cast<VertexId>(rng.next_below(300));
            const auto dst = static_cast<VertexId>(rng.next_below(300));
            if (rng.next_below(10) < insert_bias) {
                const auto w = static_cast<Weight>(1 + rng.next_below(200));
                (void)tinker_only.insert_edge(src, dst, w);
                (void)tinker_compact.insert_edge(src, dst, w);
                (void)baseline.insert_edge(src, dst, w);
                model[{src, dst}] = w;
            } else {
                (void)tinker_only.delete_edge(src, dst);
                (void)tinker_compact.delete_edge(src, dst);
                (void)baseline.delete_edge(src, dst);
                model.erase({src, dst});
            }
        }
        // Checkpoint: counts, contents, structure.
        ASSERT_EQ(tinker_only.num_edges(), model.size()) << "phase " << phase;
        ASSERT_EQ(tinker_compact.num_edges(), model.size());
        ASSERT_EQ(baseline.num_edges(), model.size());
        ASSERT_TRUE(tinker_only.audit().ok())
            << "phase " << phase << ": " << tinker_only.audit().to_string();
        ASSERT_TRUE(tinker_compact.audit().ok())
            << "phase " << phase << ": " << tinker_compact.audit().to_string();
        std::map<EdgeKey, Weight> seen;
        tinker_compact.visit_edges([&](VertexId s, VertexId d, Weight w) {
            seen[{s, d}] = w;
        });
        ASSERT_EQ(seen, model) << "phase " << phase;
    }
    // Decay phases shrank the graph: compact mode must hold fewer blocks.
    EXPECT_LE(tinker_compact.edgeblock_array().blocks_in_use(),
              tinker_only.edgeblock_array().blocks_in_use());
}

// Analytics stays correct while the graph both grows and shrinks, with the
// engine recomputing after deletion batches (the paper's deletion protocol).
TEST(DynamicWorkload, AnalyticsSurviveGrowthAndDecay) {
    core::GraphTinker g;
    std::map<EdgeKey, Weight> model;
    Rng rng(7);
    engine::DynamicAnalysis<core::GraphTinker, engine::Cc> cc(g);

    auto oracle_check = [&]() {
        std::vector<Edge> edges;
        for (const auto& [key, w] : model) {
            edges.push_back({key.first, key.second, w});
        }
        const engine::CsrSnapshot csr(edges, g.num_vertices());
        const auto want = engine::reference_cc(csr);
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(cc.property(v), want[v]) << "vertex " << v;
        }
    };

    for (int round = 0; round < 6; ++round) {
        // Insert a symmetric batch.
        std::vector<Edge> batch;
        for (int i = 0; i < 800; ++i) {
            const auto a = static_cast<VertexId>(rng.next_below(200));
            const auto b = static_cast<VertexId>(rng.next_below(200));
            const auto w = static_cast<Weight>(1 + rng.next_below(9));
            batch.push_back({a, b, w});
            batch.push_back({b, a, w});
        }
        (void)g.insert_batch(batch);
        for (const Edge& e : batch) {
            model[{e.src, e.dst}] = e.weight;
        }
        cc.on_batch(batch);
        oracle_check();

        // Delete a symmetric slice, then recompute from scratch.
        std::vector<EdgeKey> to_delete;
        int count = 0;
        for (const auto& [key, w] : model) {
            if (++count % 5 == 0 && key.first <= key.second) {
                to_delete.push_back(key);
            }
        }
        for (const EdgeKey& key : to_delete) {
            (void)g.delete_edge(key.first, key.second);
            (void)g.delete_edge(key.second, key.first);
            model.erase(key);
            model.erase({key.second, key.first});
        }
        cc.run_from_scratch();
        oracle_check();
    }
}

// A mixed update stream, the bidirectional store and persistence compose:
// the stream applied in order to a bidirectional store, snapshotted and
// reloaded, yields the same analytics.
TEST(DynamicWorkload, PreparedBatchesPersistenceAndPullBfsCompose) {
    struct Update {
        Edge edge;
        bool insert;
    };
    Rng rng(77);
    std::vector<Update> raw;
    for (int i = 0; i < 8000; ++i) {
        const Edge e{static_cast<VertexId>(rng.next_below(150)),
                     static_cast<VertexId>(rng.next_below(150)),
                     static_cast<Weight>(1 + rng.next_below(20))};
        raw.push_back(Update{e, rng.next_below(10) < 8});
    }

    core::BidirectionalGraphTinker g;
    // Apply forward+mirror via the wrapper's API, in stream order.
    for (const Update& u : raw) {
        if (u.insert) {
            (void)g.insert_edge(u.edge.src, u.edge.dst, u.edge.weight);
        } else {
            (void)g.delete_edge(u.edge.src, u.edge.dst);
        }
    }
    ASSERT_EQ(g.validate(), "");

    // Direction-optimizing BFS == hybrid-engine BFS on the same store.
    engine::DynamicAnalysis<core::BidirectionalGraphTinker, engine::Bfs> bfs(
        g);
    bfs.set_root(0);
    bfs.run_from_scratch();
    const auto pull = engine::direction_optimizing_bfs(g, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), pull[v]) << v;
    }

    // Persist the forward direction and reload; triangles must agree.
    std::stringstream buffer;
    ASSERT_TRUE(core::write_snapshot(g.forward(), buffer).ok());
    core::LoadedSnapshot loaded;
    ASSERT_TRUE(core::read_snapshot(buffer, loaded).ok());
    const auto restored = std::move(loaded.graph);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(engine::count_triangles(g.forward()).total_triangles,
              engine::count_triangles(*restored).total_triangles);
    // And the CSR snapshot of both match edge-for-edge.
    const auto a = engine::snapshot_of(g.forward());
    const auto b = engine::snapshot_of(*restored);
    EXPECT_EQ(a.num_edges(), b.num_edges());
}

// Feature-flag sweep under the full dynamic protocol: every configuration
// must produce identical analytics results (features affect speed, never
// answers).
TEST(DynamicWorkload, FeatureFlagsNeverChangeAnswers) {
    const auto stream = test::stabilize_weights(
        engine::symmetrize(rmat_edges(200, 4000, 99)));
    std::vector<std::vector<std::uint32_t>> results;
    for (const bool sgh : {true, false}) {
        for (const bool cal : {true, false}) {
            core::Config cfg;
            cfg.enable_sgh = sgh;
            cfg.enable_cal = cal;
            core::GraphTinker g(cfg);
            (void)g.insert_batch(stream);
            engine::DynamicAnalysis<core::GraphTinker, engine::Sssp> sssp(g);
            sssp.set_root(0);
            sssp.run_from_scratch();
            std::vector<std::uint32_t> props;
            for (VertexId v = 0; v < g.num_vertices(); ++v) {
                props.push_back(sssp.property(v));
            }
            results.push_back(std::move(props));
        }
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[i], results[0]) << "config " << i;
    }
}

}  // namespace
}  // namespace gt

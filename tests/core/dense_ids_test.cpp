// Dense-id lifecycle: SGH recycles the dense id of a source whose tree
// empties, so the main region, the vertex properties and the SGH map track
// the sources live at once rather than every source ever streamed. These
// tests churn a sliding window of mostly one-off sources through every
// deletion mode and a sharded store, prove a failed batch leaves no mapped
// source without a top, and check the kInvalidVertex screen that the SGH
// map's reserved key relies on, along the solo, durable, sharded and
// bidirectional ingest paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/bidirectional.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "recover/durable.hpp"
#include "recover/recover_test_util.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

using Model = std::map<VertexId, std::map<VertexId, Weight>>;
using Sharded = ShardedStore<GraphTinker>;

constexpr VertexId kIdSpace = VertexId{1} << 20;
constexpr std::size_t kShards = 3;
constexpr std::size_t kSourcesPerShardStep = 12;
constexpr std::size_t kTurnover = 8;  // steps an edge stays in the window
constexpr std::size_t kSteps = 5 * kTurnover;

/// One window step: fresh sources drawn from a 2^20-id space (so they
/// rarely return), each with 1–6 out-edges. Every step holds the same
/// number of sources per shard, so the number of sources live at once is
/// flat from the first turnover on, for the whole store and for each shard.
std::vector<std::vector<Edge>> window_steps(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<Edge>> steps(kSteps);
    for (std::vector<Edge>& step : steps) {
        std::vector<std::size_t> quota(kShards, kSourcesPerShardStep);
        std::size_t left = kShards * kSourcesPerShardStep;
        while (left > 0) {
            const auto src = static_cast<VertexId>(rng.next_below(kIdSpace));
            std::size_t& q = quota[Sharded::shard_of(src, kShards)];
            if (q == 0) {
                continue;
            }
            --q;
            --left;
            const auto degree = 1 + rng.next_below(6);
            for (std::uint64_t i = 0; i < degree; ++i) {
                step.push_back(
                    Edge{src, static_cast<VertexId>(rng.next_below(kIdSpace)),
                         static_cast<Weight>(1 + rng.next_below(1000))});
            }
        }
    }
    return steps;
}

/// Live sources per shard (index kShards = the whole store).
std::vector<std::size_t> live_sources(const Model& model) {
    std::vector<std::size_t> live(kShards + 1, 0);
    for (const auto& [src, out] : model) {
        if (!out.empty()) {
            ++live[Sharded::shard_of(src, kShards)];
            ++live[kShards];
        }
    }
    return live;
}

void apply(Model& model, const std::vector<Edge>& batch, bool insert) {
    for (const Edge& e : batch) {
        if (insert) {
            model[e.src][e.dst] = e.weight;
        } else if (const auto it = model.find(e.src); it != model.end()) {
            it->second.erase(e.dst);
        }
    }
}

EdgeCount model_edges(const Model& model) {
    EdgeCount edges = 0;
    for (const auto& [src, out] : model) {
        edges += out.size();
    }
    return edges;
}

/// Every model edge is found with its weight in the store `owner(src)`
/// returns, degrees agree, and the batch just deleted is gone.
template <typename Owner>
void expect_model(Owner&& owner, const Model& model,
                  const std::vector<Edge>& gone, const std::string& where) {
    for (const auto& [src, out] : model) {
        const GraphTinker& g = owner(src);
        ASSERT_EQ(g.degree(src), out.size()) << where << " src " << src;
        for (const auto& [dst, w] : out) {
            ASSERT_EQ(g.find_edge(src, dst), std::optional<Weight>(w))
                << where << " edge " << src << "->" << dst;
        }
    }
    for (const Edge& e : gone) {
        const auto it = model.find(e.src);
        if (it == model.end() || it->second.count(e.dst) == 0) {
            ASSERT_FALSE(owner(e.src).find_edge(e.src, e.dst).has_value())
                << where << " deleted edge " << e.src << "->" << e.dst;
        }
    }
}

/// expect_model for one store, plus its edge count and a clean audit.
void expect_matches(const GraphTinker& g, const Model& model,
                    const std::vector<Edge>& gone, const std::string& where) {
    expect_model([&](VertexId) -> const GraphTinker& { return g; }, model,
                 gone, where);
    ASSERT_EQ(g.num_edges(), model_edges(model)) << where;
    const AuditReport report = g.audit();
    ASSERT_TRUE(report.ok()) << where << ": " << report.to_string();
}

std::size_t per_source_bytes(const GraphTinker& g) {
    const GraphTinker::MemoryFootprint mf = g.memory_footprint();
    return mf.sgh_bytes + mf.props_bytes;
}

enum class Mode { Compact, DeleteOnlyMaintained };

class DenseIdWindow : public ::testing::TestWithParam<Mode> {};

TEST_P(DenseIdWindow, MainRegionTracksPeakLiveSources) {
    Config cfg;
    if (GetParam() == Mode::DeleteOnlyMaintained) {
        cfg.deletion_mode = DeletionMode::DeleteOnly;
    }
    GraphTinker g(cfg);
    const auto steps = window_steps(41);
    Model model;
    std::size_t peak = 0;
    std::size_t bytes_after_second_turnover = 0;
    std::size_t ever_streamed = 0;
    std::set<VertexId> seen;
    for (std::size_t k = 0; k < kSteps; ++k) {
        const std::string where = "step " + std::to_string(k);
        ASSERT_TRUE(g.insert_batch(steps[k]).ok()) << where;
        apply(model, steps[k], true);
        peak = std::max(peak, live_sources(model)[kShards]);
        expect_matches(g, model, {}, where + " insert");
        if (k >= kTurnover) {
            const auto& gone = steps[k - kTurnover];
            ASSERT_TRUE(g.delete_batch(gone).ok()) << where;
            apply(model, gone, false);
            if (GetParam() == Mode::DeleteOnlyMaintained) {
                // Delete-only trees keep their tombstoned tops until the
                // sweep rebuilds them, and only then recycle their ids.
                (void)g.maintain();
            }
            expect_matches(g, model, gone, where + " delete");
        }
        ASSERT_LE(g.main_region_size(), peak) << where;
        for (const Edge& e : steps[k]) {
            ever_streamed += seen.insert(e.src).second ? 1 : 0;
        }
        if (k == 2 * kTurnover) {
            bytes_after_second_turnover = per_source_bytes(g);
        } else if (k > 2 * kTurnover) {
            ASSERT_LE(per_source_bytes(g), bytes_after_second_turnover)
                << where;
        }
    }
    // The window streamed several times as many sources as it ever held.
    EXPECT_GT(ever_streamed, 3 * peak);
    EXPECT_EQ(g.main_region_size() - g.free_ids(),
              g.num_nonempty_vertices());
}

INSTANTIATE_TEST_SUITE_P(Modes, DenseIdWindow,
                         ::testing::Values(Mode::Compact,
                                           Mode::DeleteOnlyMaintained),
                         [](const auto& info) {
                             return info.param == Mode::Compact
                                        ? std::string("compact")
                                        : std::string("delete_only_maintain");
                         });

TEST(DenseIdWindowSharded, EachShardTracksItsPeakLiveSources) {
    Sharded store(kShards, [] { return Config{}; });
    const auto steps = window_steps(43);
    Model model;
    std::vector<std::size_t> peak(kShards + 1, 0);
    std::vector<std::size_t> bytes_after_second_turnover(kShards, 0);
    const auto check = [&](const std::vector<Edge>& gone,
                           const std::string& where) {
        ASSERT_TRUE(store.flush().ok()) << where;
        expect_model(
            [&](VertexId src) -> const GraphTinker& {
                return store.shard(Sharded::shard_of(src, kShards));
            },
            model, gone, where);
        ASSERT_EQ(store.num_edges(), model_edges(model)) << where;
        for (std::size_t s = 0; s < kShards; ++s) {
            const AuditReport report = store.shard(s).audit();
            ASSERT_TRUE(report.ok()) << where << " shard " << s << ": "
                                     << report.to_string();
            ASSERT_LE(store.shard(s).main_region_size(), peak[s])
                << where << " shard " << s;
        }
    };
    for (std::size_t k = 0; k < kSteps; ++k) {
        const std::string where = "step " + std::to_string(k);
        ASSERT_TRUE(store.insert_batch(steps[k]).ok());
        apply(model, steps[k], true);
        const auto live = live_sources(model);
        for (std::size_t s = 0; s <= kShards; ++s) {
            peak[s] = std::max(peak[s], live[s]);
        }
        check({}, where + " insert");
        if (k >= kTurnover) {
            const auto& gone = steps[k - kTurnover];
            ASSERT_TRUE(store.delete_batch(gone).ok());
            apply(model, gone, false);
            check(gone, where + " delete");
        }
        for (std::size_t s = 0; s < kShards; ++s) {
            const std::size_t bytes = per_source_bytes(store.shard(s));
            if (k == 2 * kTurnover) {
                bytes_after_second_turnover[s] = bytes;
            } else if (k > 2 * kTurnover) {
                ASSERT_LE(bytes, bytes_after_second_turnover[s])
                    << where << " shard " << s;
            }
        }
    }
}

// ---- a failed batch maps nothing it did not use --------------------------

/// Every mapped dense id holds a top: the recycled-id census adds up.
void expect_no_mapped_empty(const GraphTinker& g, const std::string& where) {
    EXPECT_EQ(g.main_region_size() - g.free_ids(), g.num_nonempty_vertices())
        << where;
}

TEST(DenseIdRollback, FailedInsertBatchReleasesEverySourceItMapped) {
    struct Case {
        const char* site;
        std::uint64_t countdown;
    };
    // cal.grow counts every edge's pre-flight (120 for the surviving
    // sources' runs, then two per new source); eba.grow fires when the 40
    // recycled narrow tops are used up. Each fails the batch with runs of
    // new sources still ahead.
    for (const Case c : {Case{"cal.grow", 1}, Case{"cal.grow", 130},
                         Case{"cal.grow", 300}, Case{"eba.grow", 1}}) {
        const std::string where =
            std::string(c.site) + "@" + std::to_string(c.countdown);
        GraphTinker g;
        const test::ScopedAudit audit(g, where);
        // Sources 0..99 with two edges each; then 0..39 empty again, so
        // the failing batch's new sources pop recycled ids first.
        std::vector<Edge> base;
        for (VertexId s = 0; s < 100; ++s) {
            base.push_back(Edge{s, s + 1, 1});
            base.push_back(Edge{s, s + 2, 1});
        }
        ASSERT_TRUE(g.insert_batch(base).ok());
        ASSERT_TRUE(g.delete_batch({base.begin(), base.begin() + 80}).ok());
        ASSERT_EQ(g.free_ids(), 40u);
        const auto before = test::edge_map_of(g);

        // Two new edges for each of the 60 surviving sources (their runs
        // sort first), then two for each of 120 new sources.
        std::vector<Edge> batch;
        for (VertexId s = 1000; s < 1120; ++s) {
            batch.push_back(Edge{s, 7, 2});
            batch.push_back(Edge{s, 8, 2});
            batch.push_back(Edge{40 + (s - 1000) % 60, 9 + (s - 1000) / 60, 3});
        }
        {
            const fail::ScopedFailPoint fp(c.site, c.countdown);
            const Status st = g.insert_batch(batch);
            ASSERT_EQ(st.code, StatusCode::FaultInjected) << where;
        }
        EXPECT_EQ(test::edge_map_of(g), before) << where;
        expect_no_mapped_empty(g, where);
        EXPECT_EQ(g.main_region_size() - g.free_ids(), 60u) << where;
        for (VertexId s = 1000; s < 1120; ++s) {
            ASSERT_EQ(g.degree(s), 0u) << where << " src " << s;
        }
        audit.check();

        // The retry maps the new sources into the recycled ids first.
        ASSERT_TRUE(g.insert_batch(batch).ok()) << where;
        EXPECT_EQ(g.free_ids(), 0u) << where;
        EXPECT_EQ(g.main_region_size(), 180u) << where;
        expect_no_mapped_empty(g, where);
    }
}

TEST(DenseIdRollback, FailedSoloInsertReleasesItsNewSource) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo");
    const auto mapped = [&] { return g.main_region_size() - g.free_ids(); };
    // Fill the narrow arena, so a new source's top needs it to grow.
    const EdgeblockArray& eba = g.edgeblock_array();
    ASSERT_TRUE(g.insert_edge(0, 1, 1));
    for (VertexId s = 1; eba.blocks_in_use(BlockClass::Narrow) <
                         eba.blocks_reserved(BlockClass::Narrow);
         ++s) {
        ASSERT_TRUE(g.insert_edge(s, 1, 1));
    }

    // Source 500 pops the recycled id of source 0, then its CAL pre-flight
    // fails: the id goes back on the free list.
    ASSERT_TRUE(g.delete_edge(0, 1));
    ASSERT_EQ(g.free_ids(), 1u);
    const std::size_t held = mapped();
    {
        const fail::ScopedFailPoint fp("cal.grow", 1);
        EXPECT_THROW((void)g.insert_edge(500, 1, 1), fail::InjectedFault);
    }
    EXPECT_EQ(g.free_ids(), 1u);
    EXPECT_EQ(mapped(), held);
    EXPECT_EQ(g.degree(500), 0u);
    expect_no_mapped_empty(g, "cal.grow");
    audit.check();

    // With the free list empty and the narrow arena full again, source 500
    // extends the span and then its top cannot be allocated.
    ASSERT_TRUE(g.insert_edge(0, 1, 1));
    ASSERT_EQ(g.free_ids(), 0u);
    const std::size_t region = g.main_region_size();
    {
        const fail::ScopedFailPoint fp("eba.grow", 1);
        EXPECT_THROW((void)g.insert_edge(500, 1, 1), fail::InjectedFault);
    }
    EXPECT_EQ(g.main_region_size(), region + 1);
    EXPECT_EQ(g.free_ids(), 1u);
    EXPECT_EQ(g.degree(500), 0u);
    expect_no_mapped_empty(g, "eba.grow");
    audit.check();

    EXPECT_TRUE(g.insert_edge(500, 1, 1));
    EXPECT_EQ(g.free_ids(), 0u);
    EXPECT_EQ(g.main_region_size(), region + 1);
}

// ---- the sentinel screen -------------------------------------------------

/// Calls each solo operation with a kInvalidVertex endpoint. Returns true
/// when every call refused.
template <typename Store>
bool poke_sentinels(Store& store) {
    bool any = false;
    any |= store.insert_edge(kInvalidVertex, 5, 1);
    any |= store.insert_edge(5, kInvalidVertex, 1);
    any |= store.insert_edge(kInvalidVertex, kInvalidVertex, 1);
    any |= store.delete_edge(kInvalidVertex, 7);
    any |= store.delete_edge(7, kInvalidVertex);
    return !any;
}

std::vector<Edge> small_graph() {
    return {{1, 2, 3}, {5, 6, 7}, {7, 8, 9}, {9, 1, 1}};
}

TEST(SentinelScreen, SoloOpsRefuseTheSentinelWithoutSideEffects) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo sentinel");
    ASSERT_TRUE(g.insert_batch(small_graph()).ok());
    const auto before = test::edge_map_of(g);
    const VertexId vertices = g.num_vertices();
    const std::uint64_t epoch = g.mutation_epoch();
    EXPECT_TRUE(poke_sentinels(g));
    EXPECT_EQ(test::edge_map_of(g), before);
    EXPECT_EQ(g.num_vertices(), vertices);
    EXPECT_EQ(g.mutation_epoch(), epoch);
    EXPECT_EQ(g.main_region_size(), 4u);
    EXPECT_EQ(g.degree(kInvalidVertex), 0u);
    EXPECT_FALSE(g.find_edge(kInvalidVertex, 5).has_value());
    EXPECT_TRUE(g.visit_out_edges(kInvalidVertex, [](VertexId, Weight) {
        ADD_FAILURE() << "the sentinel has no out-edges";
    }));
}

TEST(SentinelScreen, DurableStoreLogsNothingAndReopens) {
    test::TempDir dir;
    test::EdgeMap before;
    VertexId vertices = 0;
    {
        recover::DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(small_graph()).ok());
        const std::uint64_t seq = store.wal().durable_seq();
        before = test::edge_map_of(store.graph());
        vertices = store.graph().num_vertices();
        EXPECT_TRUE(poke_sentinels(store.graph()));
        EXPECT_EQ(store.wal().durable_seq(), seq);
        EXPECT_TRUE(store.wal().status().ok());
        EXPECT_EQ(test::edge_map_of(store.graph()), before);
        store.close();
    }
    recover::DurableStore store;
    recover::RecoveryInfo info;
    const Status st = store.open(dir.file("db"), {}, &info);
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_TRUE(info.audit_clean);
    EXPECT_EQ(info.replay.batches_applied, 1u);
    EXPECT_EQ(test::edge_map_of(store.graph()), before);
    EXPECT_EQ(store.graph().num_vertices(), vertices);
}

TEST(SentinelScreen, ShardedBatchesRefuseItAndLeaveShardsUntouched) {
    Sharded store(kShards, [] { return Config{}; });
    ASSERT_TRUE(store.insert_batch(small_graph()).ok());
    ASSERT_TRUE(store.flush().ok());
    std::vector<VertexId> vertices;
    std::vector<test::EdgeMap> before;
    for (std::size_t s = 0; s < kShards; ++s) {
        vertices.push_back(store.shard(s).num_vertices());
        before.push_back(test::edge_map_of(store.shard(s)));
    }
    // Every slice holding a sentinel edge is refused whole by its shard's
    // batch screen; flush() reports the lowest such shard.
    const auto expect_refused = [&](std::span<const Edge> batch) {
        std::size_t first = kShards;
        for (const Edge& e : batch) {
            first = std::min(first, Sharded::shard_of(e.src, kShards));
        }
        const Status st = store.flush();
        EXPECT_EQ(st.code, StatusCode::InvalidArgument) << st.to_string();
        EXPECT_TRUE(
            st.message.starts_with("shard " + std::to_string(first) + ": "))
            << st.message;
    };
    const std::vector<Edge> inserts{{kInvalidVertex, 5, 1},
                                    {5, kInvalidVertex, 1}};
    const std::vector<Edge> deletes{{kInvalidVertex, 7, 0},
                                    {7, kInvalidVertex, 0}};
    (void)store.insert_batch(inserts);
    expect_refused(inserts);
    (void)store.delete_batch(deletes);
    expect_refused(deletes);
    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(store.shard(s).num_vertices(), vertices[s]) << s;
        EXPECT_EQ(test::edge_map_of(store.shard(s)), before[s]) << s;
        const AuditReport report = store.shard(s).audit();
        EXPECT_TRUE(report.ok()) << s << ": " << report.to_string();
    }
}

TEST(SentinelScreen, BidirectionalAndPreparedBatchesRefuseIt) {
    BidirectionalGraphTinker bidi;
    bidi.insert_batch(small_graph());
    const VertexId vertices = bidi.num_vertices();
    EXPECT_TRUE(poke_sentinels(bidi));
    EXPECT_EQ(bidi.num_edges(), small_graph().size());
    EXPECT_EQ(bidi.num_vertices(), vertices);
    EXPECT_EQ(bidi.validate(), "");
}

}  // namespace
}  // namespace gt::core

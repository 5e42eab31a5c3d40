// GraphTinker façade tests: feature flags, traversal paths, CAL pointer
// integrity, and randomized model checks across the configuration space.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

TEST(GraphTinker, EmptyGraphBasics) {
    GraphTinker g;
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_nonempty_vertices(), 0u);
    EXPECT_EQ(g.degree(5), 0u);
    EXPECT_FALSE(g.find_edge(1, 2).has_value());
    EXPECT_FALSE(g.delete_edge(1, 2));
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, InsertUpdatesDegreeAndCounts) {
    GraphTinker g;
    EXPECT_TRUE(g.insert_edge(10, 20, 1));
    EXPECT_TRUE(g.insert_edge(10, 30, 2));
    EXPECT_TRUE(g.insert_edge(40, 10, 3));
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_EQ(g.degree(10), 2u);
    EXPECT_EQ(g.degree(40), 1u);
    EXPECT_EQ(g.degree(20), 0u);
    EXPECT_EQ(g.num_vertices(), 41u);          // max raw id + 1
    EXPECT_EQ(g.num_nonempty_vertices(), 2u);  // only sources own blocks
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, SelfLoopsAndZeroVertex) {
    GraphTinker g;
    EXPECT_TRUE(g.insert_edge(0, 0, 9));
    EXPECT_EQ(g.find_edge(0, 0), std::optional<Weight>(9));
    EXPECT_TRUE(g.delete_edge(0, 0));
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTinker, DuplicateInsertIsWeightUpdateEverywhere) {
    GraphTinker g;  // CAL on: the copy must be updated too
    (void)g.insert_edge(1, 2, 5);
    EXPECT_FALSE(g.insert_edge(1, 2, 50));
    EXPECT_EQ(g.find_edge(1, 2), std::optional<Weight>(50));
    Weight cal_weight = 0;
    g.visit_edges([&](VertexId, VertexId, Weight w) { cal_weight = w; });
    EXPECT_EQ(cal_weight, 50u);  // streamed from the CAL
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, OutEdgeIterationMatchesInserts) {
    GraphTinker g;
    std::set<std::pair<VertexId, Weight>> expected;
    for (VertexId d = 0; d < 500; ++d) {
        (void)g.insert_edge(7, d, d + 1);
        expected.insert({d, d + 1});
    }
    std::set<std::pair<VertexId, Weight>> seen;
    g.visit_out_edges(7, [&](VertexId dst, Weight w) {
        EXPECT_TRUE(seen.insert({dst, w}).second);
    });
    EXPECT_EQ(seen, expected);
    g.visit_out_edges(999, [](VertexId, Weight) {
        FAIL() << "unknown vertex must yield nothing";
    });
}

TEST(GraphTinker, CalAndEbaStreamsAgree) {
    GraphTinker g;
    const auto edges = rmat_edges(200, 3000, 4);
    (void)g.insert_batch(edges);
    using E = std::tuple<VertexId, VertexId, Weight>;
    std::set<E> via_cal;
    std::set<E> via_eba;
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        EXPECT_TRUE(via_cal.emplace(s, d, w).second) << "dup in CAL stream";
    });
    g.visit_edges_via_eba([&](VertexId s, VertexId d, Weight w) {
        EXPECT_TRUE(via_eba.emplace(s, d, w).second) << "dup in EBA stream";
    });
    EXPECT_EQ(via_cal, via_eba);
    EXPECT_EQ(via_cal.size(), g.num_edges());
}

TEST(GraphTinker, SghDisabledSweepsRawIdSpace) {
    Config cfg;
    cfg.enable_sgh = false;
    GraphTinker g(cfg);
    (void)g.insert_edge(34, 1, 1);
    (void)g.insert_edge(22789, 1, 1);
    // Without SGH the main region spans the raw id range (the paper's
    // "22755 indexes apart" motivating example).
    EXPECT_EQ(g.main_region_size(), 22790u);
    EXPECT_EQ(g.num_nonempty_vertices(), 2u);
    GraphTinker with_sgh;
    (void)with_sgh.insert_edge(34, 1, 1);
    (void)with_sgh.insert_edge(22789, 1, 1);
    EXPECT_EQ(with_sgh.main_region_size(), 2u);
}

TEST(GraphTinker, NonemptyVerticesCountSourcesHoldingEdges) {
    // Compact deletes free a source's top with its last edge, so the held
    // tops are exactly the sources with edges; the emptied source's dense id
    // is recycled, so the main region spans the most sources ever held at
    // once (after an insert batch, here), not every source ever streamed.
    GraphTinker g;
    std::map<VertexId, std::set<VertexId>> model;
    Rng rng(29);
    const auto held = [&] {
        std::size_t n = 0;
        for (const auto& [src, out] : model) {
            n += out.empty() ? 0 : 1;
        }
        return n;
    };
    std::size_t peak = 0;
    for (int round = 0; round < 6; ++round) {
        std::vector<Edge> inserts;
        std::vector<Edge> deletes;
        for (int i = 0; i < 200; ++i) {
            const auto src = static_cast<VertexId>(rng.next_below(50));
            const auto dst = static_cast<VertexId>(rng.next_below(20));
            if (model[src].insert(dst).second) {
                inserts.push_back(Edge{src, dst, 1});
            }
        }
        const std::size_t held_after_inserts = held();
        // Every third source in turn churns down to zero edges.
        for (auto& [src, out] : model) {
            if ((src + round) % 3 == 0) {
                for (const VertexId dst : out) {
                    deletes.push_back(Edge{src, dst, 0});
                }
                out.clear();
            }
        }
        ASSERT_TRUE(g.insert_batch(inserts).ok());
        peak = std::max(peak, held_after_inserts);
        ASSERT_TRUE(g.delete_batch(deletes).ok());
        EXPECT_EQ(g.num_nonempty_vertices(), held()) << "round " << round;
        EXPECT_DOUBLE_EQ(g.telemetry().gauge_value("gt.nonempty_vertices"),
                         static_cast<double>(held()));
        EXPECT_EQ(g.main_region_size(), peak) << "round " << round;
        EXPECT_EQ(g.free_ids(), peak - held()) << "round " << round;
    }
    std::vector<Edge> rest;
    for (auto& [src, out] : model) {
        for (const VertexId dst : out) {
            rest.push_back(Edge{src, dst, 0});
        }
        out.clear();
    }
    ASSERT_TRUE(g.delete_batch(rest).ok());
    EXPECT_EQ(g.num_nonempty_vertices(), 0u);
    EXPECT_EQ(g.main_region_size(), peak);
    EXPECT_EQ(g.free_ids(), peak);
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, CalDisabledStillStreams) {
    Config cfg;
    cfg.enable_cal = false;
    GraphTinker g(cfg);
    (void)g.insert_edge(1, 2, 3);
    (void)g.insert_edge(4, 5, 6);
    std::set<std::tuple<VertexId, VertexId, Weight>> seen;
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        seen.emplace(s, d, w);
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen.contains({1, 2, 3}));
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, BatchHelpers) {
    GraphTinker g;
    const auto edges = rmat_edges(100, 1000, 6);
    (void)g.insert_batch(edges);
    const auto count_after_insert = g.num_edges();
    EXPECT_GT(count_after_insert, 0u);
    (void)g.delete_batch(edges);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
}

TEST(GraphTinker, OversizedBatchIsRefusedBeforeAnyRead) {
    // The sorted path's keys and source-run offsets are 32-bit, so a batch
    // of more than 2^32 - 1 edges is refused on its length alone. The span
    // covers address space with no access rights: reading any of its edges
    // would fault.
    const std::size_t n = (std::size_t{1} << 32) + 1;
    const std::size_t bytes = n * sizeof(Edge);
    void* const mem = ::mmap(nullptr, bytes, PROT_NONE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                             0);
    if (mem == MAP_FAILED) {
        GTEST_SKIP() << "cannot map " << bytes << " bytes of address space";
    }
    const std::span<const Edge> batch(static_cast<const Edge*>(mem), n);
    GraphTinker g;
    for (const bool deletes : {false, true}) {
        const Status st =
            deletes ? g.delete_batch(batch) : g.insert_batch(batch);
        EXPECT_EQ(st.code, StatusCode::InvalidArgument) << deletes;
    }
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.main_region_size(), 0u);
    ::munmap(mem, bytes);
}

TEST(GraphTinker, HighDegreeHubStaysConsistent) {
    GraphTinker g;
    const test::ScopedAudit audit_guard(g, "high-degree hub");
    constexpr VertexId kDegree = 30000;
    for (VertexId d = 0; d < kDegree; ++d) {
        ASSERT_TRUE(g.insert_edge(0, d, 1));
    }
    EXPECT_EQ(g.degree(0), kDegree);
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
    // Spot-check FIND at depth.
    for (VertexId d = 0; d < kDegree; d += 997) {
        EXPECT_TRUE(g.find_edge(0, d).has_value()) << d;
    }
}

// ---- randomized model check across the configuration space -------------

struct ModelParam {
    std::uint32_t pagewidth;
    std::uint32_t subblock;
    std::uint32_t workblock;
    bool sgh;
    bool cal;
    DeletionMode mode;
};

class GraphTinkerModelTest : public ::testing::TestWithParam<ModelParam> {};

TEST_P(GraphTinkerModelTest, MatchesModelUnderRandomChurn) {
    const ModelParam p = GetParam();
    Config cfg;
    cfg.pagewidth = p.pagewidth;
    cfg.subblock = p.subblock;
    cfg.workblock = p.workblock;
    cfg.enable_sgh = p.sgh;
    cfg.enable_cal = p.cal;
    cfg.deletion_mode = p.mode;
    GraphTinker g(cfg);
    // Deep-audits the final state when the test scope closes.
    const test::ScopedAudit audit_guard(g, "model churn");
    std::unordered_map<std::uint64_t, Weight> model;
    auto key = [](VertexId a, VertexId b) {
        return (static_cast<std::uint64_t>(a) << 32) | b;
    };
    Rng rng(p.pagewidth * 1000 + p.subblock);
    constexpr int kOps = 40000;
    for (int op = 0; op < kOps; ++op) {
        // Skewed source distribution so some vertices grow deep trees.
        const auto src = static_cast<VertexId>(
            rng.next_below(rng.next_below(2) != 0u ? 8 : 512));
        const auto dst = static_cast<VertexId>(rng.next_below(512));
        const auto roll = rng.next_below(10);
        if (roll < 6) {
            const auto w = static_cast<Weight>(1 + rng.next_below(1000));
            const bool inserted = g.insert_edge(src, dst, w);
            EXPECT_EQ(inserted, !model.contains(key(src, dst)));
            model[key(src, dst)] = w;
        } else if (roll < 9) {
            const bool deleted = g.delete_edge(src, dst);
            EXPECT_EQ(deleted, model.erase(key(src, dst)) > 0);
        } else {
            const auto got = g.find_edge(src, dst);
            const auto it = model.find(key(src, dst));
            if (it == model.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(g.num_edges(), model.size());
        if (op % 10000 == 9999) {
            ASSERT_TRUE(g.audit().ok())
                << "op " << op << ": " << g.audit().to_string();
        }
    }
    // Full audit at the end: every model edge findable and streamed.
    ASSERT_TRUE(g.audit().ok()) << g.audit().to_string();
    std::unordered_map<std::uint64_t, Weight> streamed;
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        EXPECT_TRUE(streamed.emplace(key(s, d), w).second);
    });
    EXPECT_EQ(streamed.size(), model.size());
    for (const auto& [k, w] : model) {
        ASSERT_TRUE(streamed.contains(k));
        EXPECT_EQ(streamed.at(k), w);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GraphTinkerModelTest,
    ::testing::Values(
        // Paper defaults, both deletion modes.
        ModelParam{64, 8, 4, true, true, DeletionMode::DeleteOnly},
        ModelParam{64, 8, 4, true, true, DeletionMode::DeleteAndCompact},
        // Feature ablations.
        ModelParam{64, 8, 4, false, true, DeletionMode::DeleteOnly},
        ModelParam{64, 8, 4, true, false, DeletionMode::DeleteOnly},
        ModelParam{64, 8, 4, false, false, DeletionMode::DeleteAndCompact},
        // PAGEWIDTH sweep endpoints (Fig 17-19 configurations).
        ModelParam{8, 8, 4, true, true, DeletionMode::DeleteOnly},
        ModelParam{16, 4, 2, true, true, DeletionMode::DeleteAndCompact},
        ModelParam{256, 8, 4, true, true, DeletionMode::DeleteOnly},
        ModelParam{256, 16, 8, true, true, DeletionMode::DeleteAndCompact},
        // Degenerate geometries.
        ModelParam{8, 8, 8, true, true, DeletionMode::DeleteOnly},
        ModelParam{64, 64, 4, true, true, DeletionMode::DeleteAndCompact},
        ModelParam{4, 2, 2, true, true, DeletionMode::DeleteOnly}),
    [](const ::testing::TestParamInfo<ModelParam>& info) {
        const ModelParam& p = info.param;
        return "pw" + std::to_string(p.pagewidth) + "_sb" +
               std::to_string(p.subblock) + "_wb" +
               std::to_string(p.workblock) + (p.sgh ? "_sgh" : "_nosgh") +
               (p.cal ? "_cal" : "_nocal") +
               (p.mode == DeletionMode::DeleteOnly ? "_delonly" : "_delcompact");
    });

// ---- churn without Robin Hood order --------------------------------------

TEST(GraphTinkerChurn, NoRhhModesMatchModelAcrossBatchShapes) {
    // Compact deletes (the default) turn Robin Hood order off, and the
    // insert probe takes one walk: it stops at the first window holding an
    // EMPTY cell and places the edge on the first unoccupied cell it
    // passed. Churn that deletes edges and re-inserts them, one edge at a
    // time and in batches large enough for the source-grouped fast path,
    // must match a model after every batch and leave a clean audit, at the
    // default geometry, a small one and the widest legal window (64 cells,
    // one whole mask word).
    struct Case {
        std::string name;
        Config cfg;
    };
    std::vector<Case> cases;
    cases.push_back({"compact", Config{}});
    Config wide;
    wide.pagewidth = 256;
    wide.subblock = 64;
    wide.workblock = 8;
    cases.push_back({"compact_wide", wide});
    Config small;
    small.pagewidth = 16;
    small.subblock = 4;
    small.workblock = 2;
    cases.push_back({"compact_small", small});

    constexpr VertexId kSources = 160;
    for (const Case& c : cases) {
        ASSERT_FALSE(c.cfg.rhh_active()) << c.name;
        GraphTinker g(c.cfg);
        std::map<std::pair<VertexId, VertexId>, Weight> model;
        std::vector<Edge> live;     // delete candidates (may be stale)
        std::vector<Edge> deleted;  // re-insert candidates
        Rng rng(97);
        const auto fresh_edge = [&] {
            // Skewed sources so a few hubs grow deep trees.
            const auto src = static_cast<VertexId>(
                rng.next_below(rng.next_below(2) != 0U ? 6 : kSources));
            return Edge{src, static_cast<VertexId>(rng.next_below(400)),
                        static_cast<Weight>(1 + rng.next_below(1000))};
        };
        const auto take = [&](std::vector<Edge>& pool) {
            const std::size_t at = rng.next_below(pool.size());
            const Edge e = pool[at];
            pool[at] = pool.back();
            pool.pop_back();
            return e;
        };
        for (int round = 0; round < 240; ++round) {
            const bool per_edge = round % 3 == 0;
            const bool inserts = rng.next_below(5) < 3;
            const std::size_t n = per_edge ? 1 : 33 + rng.next_below(168);
            std::vector<Edge> batch;
            for (std::size_t i = 0; i < n; ++i) {
                if (inserts) {
                    Edge e = !deleted.empty() && rng.next_below(2) == 0
                                 ? take(deleted)
                                 : fresh_edge();
                    e.weight = static_cast<Weight>(1 + rng.next_below(1000));
                    batch.push_back(e);
                } else {
                    batch.push_back(!live.empty() && rng.next_below(4) != 0
                                        ? take(live)
                                        : fresh_edge());
                }
            }
            if (per_edge) {
                const Edge& e = batch.front();
                const auto k = std::make_pair(e.src, e.dst);
                if (inserts) {
                    ASSERT_EQ(g.insert_edge(e.src, e.dst, e.weight),
                              !model.contains(k))
                        << c.name << " round " << round;
                } else {
                    ASSERT_EQ(g.delete_edge(e.src, e.dst), model.contains(k))
                        << c.name << " round " << round;
                }
            } else if (inserts) {
                ASSERT_TRUE(g.insert_batch(batch).ok()) << c.name;
            } else {
                ASSERT_TRUE(g.delete_batch(batch).ok()) << c.name;
            }
            // A batch applies as its edges would one after another.
            for (const Edge& e : batch) {
                const auto k = std::make_pair(e.src, e.dst);
                if (inserts) {
                    model[k] = e.weight;
                    live.push_back(e);
                } else if (model.erase(k) > 0) {
                    deleted.push_back(e);
                }
            }

            ASSERT_EQ(g.num_edges(), model.size())
                << c.name << " round " << round;
            std::vector<std::uint32_t> degree(kSources, 0);
            for (const auto& [k, w] : model) {
                ++degree[k.first];
                ASSERT_EQ(g.find_edge(k.first, k.second),
                          std::optional<Weight>(w))
                    << c.name << " round " << round << " (" << k.first
                    << "," << k.second << ")";
            }
            for (const Edge& e : batch) {
                if (!model.contains({e.src, e.dst})) {
                    ASSERT_FALSE(g.find_edge(e.src, e.dst).has_value())
                        << c.name << " round " << round;
                }
            }
            for (VertexId v = 0; v < kSources; ++v) {
                ASSERT_EQ(g.degree(v), degree[v])
                    << c.name << " round " << round << " v=" << v;
            }
            const AuditReport report = g.audit();
            ASSERT_TRUE(report.ok())
                << c.name << " round " << round << ": " << report.to_string();
        }
        EXPECT_GT(g.obs().counter("eba.branch_outs").value(), 0U) << c.name;
    }
}

}  // namespace
}  // namespace gt::core

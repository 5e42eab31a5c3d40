// Degree-adaptive level 0: a new vertex's top is a one-subblock narrow
// block, promoted to a wide PAGEWIDTH block by the insert that finds it
// full and, under compact deletes, demoted again once SUBBLOCK/2 or fewer
// edges remain. These tests drive single vertices back and forth across
// both thresholds in every deletion mode and across geometries, checking
// the store against a model and the auditor after every batch, and prove a
// failed promotion or demotion rolls its batch back.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

using Model = std::map<VertexId, std::map<VertexId, Weight>>;

enum class Mode { Compact, RhhDeleteOnly };

struct ClassParam {
    std::uint32_t pagewidth;
    std::uint32_t subblock;
    std::uint32_t workblock;
    Mode mode;
};

Config make_config(const ClassParam& p) {
    Config cfg;
    cfg.pagewidth = p.pagewidth;
    cfg.subblock = p.subblock;
    cfg.workblock = p.workblock;
    cfg.deletion_mode = p.mode == Mode::Compact
                            ? DeletionMode::DeleteAndCompact
                            : DeletionMode::DeleteOnly;
    return cfg;
}

std::uint64_t counter(const GraphTinker& g, const char* name) {
    return g.obs().counter(name).value();
}

/// Every model edge is found with its weight, recently deleted ones are
/// not, degrees match, held tops match the sources with edges (compact
/// deletes free an emptied top at once), and the audit is clean.
void expect_matches(const GraphTinker& g, const Model& model,
                    const std::vector<Edge>& gone, const std::string& where) {
    std::size_t holding = 0;
    EdgeCount edges = 0;
    for (const auto& [src, out] : model) {
        ASSERT_EQ(g.degree(src), out.size()) << where << " src " << src;
        for (const auto& [dst, w] : out) {
            ASSERT_EQ(g.find_edge(src, dst), std::optional<Weight>(w))
                << where << " edge " << src << "->" << dst;
        }
        holding += out.empty() ? 0 : 1;
        edges += out.size();
    }
    for (const Edge& e : gone) {
        ASSERT_FALSE(g.find_edge(e.src, e.dst).has_value())
            << where << " deleted edge " << e.src << "->" << e.dst;
    }
    ASSERT_EQ(g.num_edges(), edges) << where;
    if (g.config().deletion_mode == DeletionMode::DeleteAndCompact) {
        ASSERT_EQ(g.num_nonempty_vertices(), holding) << where;
    }
    const AuditReport report = g.audit();
    ASSERT_TRUE(report.ok()) << where << ": " << report.to_string();
}

class SizeClassChurn : public ::testing::TestWithParam<ClassParam> {
protected:
    /// Moves every one of `sources` sources through a degree schedule that
    /// crosses SUBBLOCK <-> SUBBLOCK + 1 (promotion) and SUBBLOCK/2 + 1 <->
    /// SUBBLOCK/2 (demotion) twice each, then empties and refills them.
    /// `per_edge` applies every update as its own one-edge batch; otherwise
    /// each step is one insert batch and one delete batch across all
    /// sources, at least 33 edges each.
    void drive(GraphTinker& g, std::uint32_t sources, bool per_edge) {
        const std::uint32_t s = g.config().subblock;
        const std::uint32_t h = s / 2;
        const std::vector<std::uint32_t> schedule{
            s, s + 1, s, s + 1, h + 1, h, h + 1, h, s + 1, 0, 1};
        Model model;
        Rng rng(g.config().pagewidth * 7 + s + (per_edge ? 1 : 0));
        VertexId next_dst = 1;
        for (std::size_t step = 0; step < schedule.size(); ++step) {
            std::vector<Edge> inserts;
            std::vector<Edge> deletes;
            for (VertexId src = 0; src < sources; ++src) {
                auto& out = model[src];
                while (out.size() < schedule[step]) {
                    const Edge e{src, next_dst++ * 7919 % 1000003,
                                 static_cast<Weight>(1 + rng.next_below(90))};
                    out[e.dst] = e.weight;
                    inserts.push_back(e);
                }
                while (out.size() > schedule[step]) {
                    auto it = out.begin();
                    std::advance(it, rng.next_below(out.size()));
                    deletes.push_back(Edge{src, it->first, 0});
                    out.erase(it);
                }
            }
            const std::string where = "step " + std::to_string(step);
            if (per_edge) {
                for (const Edge& e : inserts) {
                    ASSERT_TRUE(g.insert_batch({&e, 1}).ok()) << where;
                    expect_matches_partial(g, e, true, where);
                }
                for (const Edge& e : deletes) {
                    ASSERT_TRUE(g.delete_batch({&e, 1}).ok()) << where;
                    expect_matches_partial(g, e, false, where);
                }
            } else {
                if (!inserts.empty()) {
                    ASSERT_GE(inserts.size(), 33u);
                    ASSERT_TRUE(g.insert_batch(inserts).ok()) << where;
                }
                if (!deletes.empty()) {
                    ASSERT_GE(deletes.size(), 33u);
                    ASSERT_TRUE(g.delete_batch(deletes).ok()) << where;
                }
            }
            expect_matches(g, model, deletes, where);
        }
    }

    /// The per-edge drive's check after every one-edge batch: the edge's
    /// own presence plus a clean audit (the full model check runs once per
    /// step).
    static void expect_matches_partial(const GraphTinker& g, const Edge& e,
                                       bool present,
                                       const std::string& where) {
        ASSERT_EQ(g.find_edge(e.src, e.dst).has_value(), present)
            << where << " edge " << e.src << "->" << e.dst;
        const AuditReport report = g.audit();
        ASSERT_TRUE(report.ok()) << where << ": " << report.to_string();
    }
};

TEST_P(SizeClassChurn, CrossesBothThresholdsPerEdgeAndBatched) {
    const ClassParam& p = GetParam();
    const bool narrow = p.pagewidth > p.subblock;
    for (const bool per_edge : {true, false}) {
        GraphTinker g(make_config(p));
        // 64 sources fill the first narrow-arena chunk exactly, so probes
        // of its last block read into the arena's pad (checked under ASan
        // at the 2-cell geometry, whose SIMD compare reads 4 cells).
        drive(g, per_edge ? 3 : 64, per_edge);
        if (HasFatalFailure()) {
            return;
        }
        const std::string tag = per_edge ? "per-edge" : "batched";
        if (!narrow) {
            EXPECT_EQ(counter(g, "eba.promotions"), 0u) << tag;
            EXPECT_EQ(g.edgeblock_array().blocks_allocated(BlockClass::Narrow),
                      0u)
                << tag;
            continue;
        }
        EXPECT_GT(counter(g, "eba.promotions"), 0u) << tag;
        if (p.mode == Mode::Compact) {
            EXPECT_GT(counter(g, "eba.demotions"), 0u) << tag;
        } else {
            // Delete-only stores never demote on erase; a maintenance
            // rebuild re-roots a small tree into a narrow top instead.
            EXPECT_EQ(counter(g, "eba.demotions"), 0u) << tag;
            const EdgeblockArray& eba = g.edgeblock_array();
            const std::size_t before = eba.blocks_in_use(BlockClass::Narrow);
            const std::uint32_t live = g.degree(0);
            g.maintain();
            EXPECT_GE(eba.blocks_in_use(BlockClass::Narrow), before) << tag;
            EXPECT_EQ(g.degree(0), live) << tag;
            const AuditReport report = g.audit();
            EXPECT_TRUE(report.ok()) << tag << ": " << report.to_string();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SizeClassChurn,
    ::testing::Values(ClassParam{64, 8, 4, Mode::Compact},
                      ClassParam{64, 8, 4, Mode::RhhDeleteOnly},
                      ClassParam{16, 8, 4, Mode::Compact},
                      ClassParam{16, 8, 4, Mode::RhhDeleteOnly},
                      // PAGEWIDTH == SUBBLOCK: no narrow class.
                      ClassParam{8, 8, 4, Mode::Compact},
                      ClassParam{8, 8, 4, Mode::RhhDeleteOnly},
                      // The widest legal window: one whole mask word.
                      ClassParam{256, 64, 8, Mode::Compact},
                      ClassParam{256, 64, 8, Mode::RhhDeleteOnly},
                      // A 2-cell narrow window.
                      ClassParam{8, 2, 2, Mode::Compact},
                      ClassParam{8, 2, 2, Mode::RhhDeleteOnly}),
    [](const auto& info) {
        const ClassParam& p = info.param;
        const char* mode =
            p.mode == Mode::Compact ? "_compact" : "_rhh_only";
        return "pw" + std::to_string(p.pagewidth) + "_sb" +
               std::to_string(p.subblock) + "_wb" +
               std::to_string(p.workblock) + mode;
    });

TEST(SizeClass, PromotionIsNotABranchOut) {
    GraphTinker g;  // 64/8/4, compact
    for (VertexId d = 0; d < 9; ++d) {
        ASSERT_TRUE(g.insert_edge(1, d * 13, 1));
    }
    const EdgeblockArray& eba = g.edgeblock_array();
    EXPECT_EQ(counter(g, "eba.promotions"), 1u);
    EXPECT_EQ(eba.blocks_in_use(BlockClass::Narrow), 0u);
    // Insert-only: every wide block past the top came from a branch-out.
    EXPECT_EQ(counter(g, "eba.branch_outs"),
              eba.blocks_in_use(BlockClass::Wide) - 1);
    // Down to SUBBLOCK/2 edges the top demotes; the hysteresis keeps it
    // wide until then.
    for (VertexId d = 0; d < 4; ++d) {
        ASSERT_TRUE(g.delete_edge(1, d * 13));
        EXPECT_EQ(counter(g, "eba.demotions"), 0u) << d;
    }
    ASSERT_TRUE(g.delete_edge(1, 4 * 13));
    EXPECT_EQ(counter(g, "eba.demotions"), 1u);
    EXPECT_EQ(eba.blocks_in_use(BlockClass::Narrow), 1u);
    EXPECT_EQ(eba.blocks_in_use(), 1u);
    const AuditReport report = g.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
}

std::map<std::pair<VertexId, VertexId>, Weight> edge_map(
    const GraphTinker& g) {
    std::map<std::pair<VertexId, VertexId>, Weight> out;
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        out[{s, d}] = w;
    });
    return out;
}

TEST(SizeClassRollback, FailedPromotionRollsBackItsBatch) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "promotion rollback");
    // Source 1000 fills its narrow window; nothing is wide yet.
    std::vector<Edge> base;
    for (VertexId d = 0; d < 8; ++d) {
        base.push_back(Edge{1000, d, 5});
    }
    ASSERT_TRUE(g.insert_batch(base).ok());
    ASSERT_EQ(g.edgeblock_array().blocks_reserved(BlockClass::Wide), 0u);
    const auto before = edge_map(g);
    const auto edges_before = g.num_edges();

    // Forty new sources sort ahead of source 1000, whose ninth edge is the
    // batch's last update and needs the first wide blocks.
    std::vector<Edge> batch;
    for (VertexId s = 0; s < 40; ++s) {
        batch.push_back(Edge{s, s + 1, 2});
    }
    batch.push_back(Edge{1000, 8, 5});
    {
        const fail::ScopedFailPoint fp("eba.grow", 1);
        const Status st = g.insert_batch(batch);
        ASSERT_EQ(st.code, StatusCode::FaultInjected) << st.message;
    }
    EXPECT_EQ(g.num_edges(), edges_before);
    EXPECT_EQ(edge_map(g), before);
    EXPECT_EQ(counter(g, "eba.promotions"), 0u);
    EXPECT_EQ(g.edgeblock_array().blocks_in_use(BlockClass::Narrow), 1u);
    audit.check();

    ASSERT_TRUE(g.insert_batch(batch).ok());
    EXPECT_EQ(counter(g, "eba.promotions"), 1u);
}

TEST(SizeClassRollback, FailedDemotionRollsBackItsBatch) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "demotion rollback");
    constexpr VertexId kHub = 500;
    std::vector<Edge> hub;
    for (VertexId d = 0; d < 9; ++d) {
        hub.push_back(Edge{kHub, d * 31, 3});
    }
    ASSERT_TRUE(g.insert_batch(hub).ok());
    const EdgeblockArray& eba = g.edgeblock_array();
    ASSERT_EQ(counter(g, "eba.promotions"), 1u);
    // Use up every narrow block the arena has room for, so the demotion
    // below needs it to grow.
    for (VertexId s = 0; eba.blocks_in_use(BlockClass::Narrow) <
                         eba.blocks_reserved(BlockClass::Narrow);
         ++s) {
        ASSERT_TRUE(g.insert_edge(s, 1, 1));
    }
    const auto before = edge_map(g);

    // Down from nine edges to four: the fifth delete demotes the hub.
    const std::vector<Edge> deletes(hub.begin(), hub.begin() + 5);
    {
        const fail::ScopedFailPoint fp("eba.grow", 1);
        const Status st = g.delete_batch(deletes);
        ASSERT_EQ(st.code, StatusCode::FaultInjected) << st.message;
    }
    EXPECT_EQ(edge_map(g), before);
    EXPECT_EQ(g.degree(kHub), 9u);
    EXPECT_EQ(counter(g, "eba.demotions"), 0u);
    audit.check();

    ASSERT_TRUE(g.delete_batch(deletes).ok());
    EXPECT_EQ(counter(g, "eba.demotions"), 1u);
    EXPECT_EQ(g.degree(kHub), 4u);
}

}  // namespace
}  // namespace gt::core

// The auditor audited: a clean graph must produce an empty report with real
// coverage, and every deliberately seeded corruption class must surface as
// exactly the violation kind it belongs to. Each corruption test drives the
// graph through the public API, reaches into the internals via the test-only
// CorruptionInjector, and asserts the typed report.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/graphtinker.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

Config small_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 8;
    cfg.workblock = 4;
    return cfg;
}

/// Loads a deterministic pseudo-random multigraph dense enough to force
/// Robin Hood displacements and TBH branch-outs on a 16-cell pagewidth.
void load_dense(GraphTinker& g, std::uint32_t vertices = 32,
                std::uint32_t edges = 600) {
    Rng rng(7);
    for (std::uint32_t i = 0; i < edges; ++i) {
        const auto src = static_cast<VertexId>(rng.next() % vertices);
        const auto dst = static_cast<VertexId>(rng.next() % (vertices * 4));
        (void)g.insert_edge(src, dst, 1 + static_cast<Weight>(i % 250));
    }
}

/// First live edge of `src`, so corruption targets always exist.
Edge first_edge_of(const GraphTinker& g, VertexId src) {
    Edge out{src, kInvalidVertex, 0};
    g.visit_out_edges(src, [&](VertexId dst, Weight w) {
        out.dst = dst;
        out.weight = w;
        return false;
    });
    return out;
}

TEST(Audit, CleanGraphReportsNoViolationsWithFullCoverage) {
    GraphTinker g(small_config());
    load_dense(g);
    const AuditReport report = g.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.cells_audited, g.num_edges());
    EXPECT_EQ(report.cal_slots_audited, g.num_edges());
    EXPECT_GT(report.blocks_audited, 1u) << "expected TBH branch-outs";
    EXPECT_EQ(report.vertices_audited, g.main_region_size());
    EXPECT_FALSE(report.truncated);
}

TEST(Audit, CleanAfterDeletionsBothModes) {
    for (const DeletionMode mode :
         {DeletionMode::DeleteOnly, DeletionMode::DeleteAndCompact}) {
        Config cfg = small_config();
        cfg.deletion_mode = mode;
        GraphTinker g(cfg);
        load_dense(g);
        Rng rng(13);
        for (std::uint32_t i = 0; i < 400; ++i) {
            (void)g.delete_edge(static_cast<VertexId>(rng.next() % 32),
                          static_cast<VertexId>(rng.next() % 128));
        }
        const AuditReport report = g.audit();
        EXPECT_TRUE(report.ok())
            << "mode " << static_cast<int>(mode) << ": "
            << report.to_string();
    }
}

TEST(Audit, DetectsBrokenCalPointer) {
    GraphTinker g(small_config());
    load_dense(g);
    const Edge target = first_edge_of(g, 3);
    ASSERT_NE(target.dst, kInvalidVertex);
    ASSERT_TRUE(CorruptionInjector::break_cal_pointer(g, 3, target.dst));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::CalForward)) << report.to_string();
    // The stranded CAL copy still points at the cell, whose pointer no
    // longer points back: the reverse round-trip must trip too.
    EXPECT_TRUE(report.has(AuditCheck::CalReverse)) << report.to_string();
}

TEST(Audit, DetectsCorruptedRhhProbe) {
    GraphTinker g(small_config());
    load_dense(g);
    const Edge target = first_edge_of(g, 5);
    ASSERT_NE(target.dst, kInvalidVertex);
    ASSERT_TRUE(CorruptionInjector::corrupt_probe(g, 5, target.dst));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::RhhPlacement)) << report.to_string();
}

TEST(Audit, DetectsOrphanedTbhChild) {
    GraphTinker g(small_config());
    load_dense(g);
    // Find a vertex whose tree actually branched out.
    bool orphaned = false;
    for (VertexId src = 0; src < 32 && !orphaned; ++src) {
        orphaned = CorruptionInjector::orphan_child(g, src);
    }
    ASSERT_TRUE(orphaned) << "no vertex grew an overflow child";
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::TbhOrphan)) << report.to_string();
}

TEST(Audit, DetectsTbhCycle) {
    GraphTinker g(small_config());
    load_dense(g);
    bool cycled = false;
    for (VertexId src = 0; src < 32 && !cycled; ++src) {
        cycled = CorruptionInjector::link_cycle(g, src);
    }
    ASSERT_TRUE(cycled) << "no top block had a spare child slot";
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::TbhStructure)) << report.to_string();
}

TEST(Audit, DetectsChildUnderWindowWithEmptyCell) {
    // A FIND without Robin Hood order stops at a window holding an EMPTY
    // cell, which is sound only because no such window links a child. A
    // fresh child linked under one hides nothing yet (it is empty), so the
    // branched-full check is the only class that may fire — in both modes.
    for (const DeletionMode mode :
         {DeletionMode::DeleteOnly, DeletionMode::DeleteAndCompact}) {
        Config cfg = small_config();
        cfg.deletion_mode = mode;
        GraphTinker g(cfg);
        load_dense(g);
        ASSERT_TRUE(g.audit().ok()) << g.audit().to_string();
        bool linked = false;
        for (VertexId src = 0; src < 32 && !linked; ++src) {
            linked = CorruptionInjector::branch_unfull_window(g, src);
        }
        ASSERT_TRUE(linked) << "no top block had a childless window with "
                               "an EMPTY cell";
        const AuditReport report = g.audit();
        ASSERT_FALSE(report.ok());
        for (const AuditViolation& v : report.violations) {
            EXPECT_EQ(v.check, AuditCheck::TbhBranchedFull) << v.to_string();
        }
    }
}

TEST(Audit, DetectsWidenedTopAsSizeClassOnly) {
    // A wide top holding SUBBLOCK/2 edges or fewer under compact deletes
    // is a missed demotion. The injector re-places a narrow top's edges
    // exactly as a promotion would (CAL owners re-bound), so every other
    // invariant still holds and only the size-class check may fire.
    GraphTinker g;  // 64/8/4, compact
    for (VertexId d = 0; d < 3; ++d) {
        ASSERT_TRUE(g.insert_edge(9, d * 5, d + 1));
    }
    ASSERT_TRUE(g.audit().ok()) << g.audit().to_string();
    ASSERT_TRUE(CorruptionInjector::widen_top(g, 9));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    for (const AuditViolation& v : report.violations) {
        EXPECT_EQ(v.check, AuditCheck::SizeClass) << v.to_string();
    }
}

TEST(Audit, DetectsUnfilledCalHoleAsCalChainOnly) {
    // A compacting erase refills every CAL hole it marks. The injector
    // leaves one marked and unfilled, with the edge's copy re-appended and
    // its cell re-pointed, so only the chain check may fire; the same hole
    // is legal in a delete-only store.
    for (const DeletionMode mode :
         {DeletionMode::DeleteAndCompact, DeletionMode::DeleteOnly}) {
        Config cfg = small_config();
        cfg.deletion_mode = mode;
        GraphTinker g(cfg);
        load_dense(g);
        const Edge target = first_edge_of(g, 4);
        ASSERT_NE(target.dst, kInvalidVertex);
        ASSERT_TRUE(CorruptionInjector::punch_cal_hole(g, 4, target.dst));
        EXPECT_EQ(g.cal().scanned_slots(), g.cal().live_edges() + 1);
        const AuditReport report = g.audit();
        if (mode == DeletionMode::DeleteOnly) {
            EXPECT_TRUE(report.ok()) << report.to_string();
            continue;
        }
        ASSERT_FALSE(report.ok());
        for (const AuditViolation& v : report.violations) {
            EXPECT_EQ(v.check, AuditCheck::CalChain) << v.to_string();
        }
    }
}

TEST(Audit, DetectsNarrowBlockLinkedAsChild) {
    GraphTinker g(small_config());
    load_dense(g);
    bool linked = false;
    for (VertexId src = 0; src < 32 && !linked; ++src) {
        linked = CorruptionInjector::link_narrow_as_child(g, src);
    }
    ASSERT_TRUE(linked) << "no wide top had a childless window";
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::SizeClass)) << report.to_string();
}

TEST(Audit, DetectsDegreeDrift) {
    GraphTinker g(small_config());
    load_dense(g);
    ASSERT_TRUE(CorruptionInjector::corrupt_degree(g, 1));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::DegreeAccounting))
        << report.to_string();
}

TEST(Audit, DetectsSghBijectionBreak) {
    GraphTinker g(small_config());
    load_dense(g);
    ASSERT_TRUE(CorruptionInjector::corrupt_sgh(g));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::SghBijection)) << report.to_string();
}

TEST(Audit, DetectsMappedIdOnFreeListAsSghBijectionOnly) {
    // A release that skipped the unmap: the id sits on SGH's free list
    // while its source still maps to it and keeps its tree, so the next new
    // source would share it. Only the SGH check may fire.
    GraphTinker g(small_config());
    load_dense(g);
    std::vector<Edge> out;
    g.visit_out_edges(3, [&](VertexId dst, Weight) {
        out.push_back(Edge{3, dst, 0});
    });
    ASSERT_TRUE(g.delete_batch(out).ok());  // source 3 empties: recycled
    ASSERT_EQ(g.free_ids(), 1u);
    const AuditReport clean = g.audit();
    ASSERT_TRUE(clean.ok()) << clean.to_string();
    EXPECT_EQ(clean.free_ids, 1u);

    ASSERT_TRUE(CorruptionInjector::free_mapped_id(g, 5));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    for (const AuditViolation& v : report.violations) {
        EXPECT_EQ(v.check, AuditCheck::SghBijection) << v.to_string();
    }
}

TEST(Audit, DetectsOccupancyDrift) {
    // A block's live count is the popcount of its occupancy words, so a
    // vanished cell leaves no counter behind to disagree with. The source's
    // degree, the edge's CAL copy and the global edge count still name it.
    GraphTinker g(small_config());
    load_dense(g);
    const Edge target = first_edge_of(g, 2);
    ASSERT_NE(target.dst, kInvalidVertex);
    ASSERT_TRUE(CorruptionInjector::vanish_cell(g, 2, target.dst));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::DegreeAccounting))
        << report.to_string();
    EXPECT_TRUE(report.has(AuditCheck::CalReverse)) << report.to_string();
    EXPECT_TRUE(report.has(AuditCheck::EdgeAccounting))
        << report.to_string();
}

TEST(Audit, DetectsTombstonedLiveCellAsOccupancyOnly) {
    GraphTinker g(small_config());
    load_dense(g);
    const Edge target = first_edge_of(g, 2);
    ASSERT_NE(target.dst, kInvalidVertex);
    ASSERT_TRUE(CorruptionInjector::tombstone_live_cell(g, 2, target.dst));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    for (const AuditViolation& v : report.violations) {
        EXPECT_EQ(v.check, AuditCheck::Occupancy) << v.to_string();
    }
}

TEST(Audit, ReportTruncatesInsteadOfExploding) {
    GraphTinker g(small_config());
    load_dense(g, 32, 2000);
    // Swapping the SGH tables misattributes every edge of two vertices;
    // with a dense graph that alone will not exceed the cap, so also break
    // many CAL pointers.
    for (VertexId src = 0; src < 32; ++src) {
        Edge e = first_edge_of(g, src);
        if (e.dst != kInvalidVertex) {
            CorruptionInjector::break_cal_pointer(g, src, e.dst);
        }
    }
    ASSERT_TRUE(CorruptionInjector::corrupt_sgh(g));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_LE(report.violations.size(), AuditReport::kMaxViolations);
}

TEST(Audit, ValidateRendersFirstViolation) {
    GraphTinker g(small_config());
    load_dense(g);
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
    ASSERT_TRUE(CorruptionInjector::corrupt_degree(g, 1));
    const std::string rendered = g.audit().to_string();
    EXPECT_NE(rendered.find("degree-accounting"), std::string::npos)
        << rendered;
}

TEST(Audit, CleanWithFeaturesDisabled) {
    Config cfg = small_config();
    cfg.enable_sgh = false;
    cfg.enable_cal = false;
    GraphTinker g(cfg);
    load_dense(g);
    const AuditReport report = g.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.cal_slots_audited, 0u);
}

}  // namespace
}  // namespace gt::core

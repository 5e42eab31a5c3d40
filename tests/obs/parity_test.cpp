// Telemetry parity: the gt.obs gauges a GraphTinker publishes must agree
// with an *independent* census of the structure. The deep auditor already
// walks every block, cell and CAL chain to verify invariants; it counts
// live edges, tombstones and CAL blocks cell-by-cell as it goes — never
// reading the structure's own counters — which makes its report the ground
// truth the registry snapshot is compared against here.
#include <gtest/gtest.h>

#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"
#include "obs/metrics.hpp"

namespace gt::core {
namespace {

TEST(ObsParity, GaugesMatchAuditCensusAfterChurn) {
    Config config;  // CAL on; delete-only RHH so deletes leave tombstones
    config.deletion_mode = DeletionMode::DeleteOnly;
    GraphTinker g(config);
    test::ScopedAudit audit(g);

    const auto edges = rmat_edges(700, 30000, 23);
    (void)g.insert_batch(edges);

    // Delete roughly a third to leave tombstones, compact, then reinsert a
    // slice so the structure holds live cells, tombstones and CAL chains
    // in one snapshot.
    std::vector<Edge> deletes;
    for (std::size_t i = 0; i < edges.size(); i += 3) {
        deletes.push_back(edges[i]);
    }
    (void)g.delete_batch(deletes);
    g.maintain();
    const std::vector<Edge> again(edges.begin(),
                                  edges.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          edges.size() / 10));
    (void)g.insert_batch(again);

    const AuditReport report = Auditor::run(g);
    ASSERT_TRUE(report.ok()) << report.to_string();

    const obs::Snapshot snap = g.telemetry();
    EXPECT_DOUBLE_EQ(snap.gauge_value("gt.num_edges"),
                     static_cast<double>(report.live_edges));
    EXPECT_DOUBLE_EQ(snap.gauge_value("eba.tombstones"),
                     static_cast<double>(report.tombstones));
    EXPECT_DOUBLE_EQ(snap.gauge_value("cal.blocks_in_use"),
                     static_cast<double>(report.cal_blocks));
    EXPECT_DOUBLE_EQ(snap.gauge_value("cal.live_edges"),
                     static_cast<double>(report.live_edges));
    // The EdgeblockArray footprint: each size class the audit reached at
    // its block size (816 B wide, 112 B narrow at 64/8/4), plus the top
    // handle of every main-region record.
    const EdgeblockArray& eba = g.edgeblock_array();
    EXPECT_GT(report.narrow_blocks, 0u);
    EXPECT_GT(report.wide_blocks, 0u);
    EXPECT_DOUBLE_EQ(snap.gauge_value("eba.narrow_tops"),
                     static_cast<double>(report.narrow_blocks));
    EXPECT_DOUBLE_EQ(
        snap.gauge_value("eba.blocks_in_use"),
        static_cast<double>(report.wide_blocks + report.narrow_blocks));
    EXPECT_DOUBLE_EQ(
        snap.gauge_value("mem.edgeblock_bytes"),
        static_cast<double>(
            report.wide_blocks * eba.block_bytes(BlockClass::Wide) +
            report.narrow_blocks * eba.block_bytes(BlockClass::Narrow) +
            g.main_region_size() * sizeof(VertexProperty::top)));

    // The per-source tables: SGH and the vertex properties at their
    // footprint, and the recycled ids the audit finds unclaimed.
    const GraphTinker::MemoryFootprint mem = g.memory_footprint();
    EXPECT_GT(mem.sgh_bytes, 0u);
    EXPECT_DOUBLE_EQ(snap.gauge_value("mem.sgh_bytes"),
                     static_cast<double>(mem.sgh_bytes));
    EXPECT_DOUBLE_EQ(snap.gauge_value("mem.props_bytes"),
                     static_cast<double>(mem.props_bytes));
    EXPECT_EQ(mem.props_bytes,
              g.main_region_size() * sizeof(VertexProperty::degree));
    EXPECT_DOUBLE_EQ(snap.gauge_value("mem.total_bytes"),
                     static_cast<double>(mem.total()));
    EXPECT_GT(report.free_ids, 0u);
    EXPECT_DOUBLE_EQ(snap.gauge_value("sgh.free_ids"),
                     static_cast<double>(report.free_ids));
    EXPECT_EQ(report.free_ids, g.free_ids());

    // Batch accounting: three batches were fed, each counted once, and
    // gt.updates sums their sizes whether or not an update landed.
    EXPECT_EQ(snap.counter_value("gt.batches"), 3u);
    EXPECT_EQ(snap.counter_value("gt.updates"),
              edges.size() + deletes.size() + again.size());
    EXPECT_GE(snap.counter_value("maintenance.runs"), 1u);
}

TEST(ObsParity, CensusTracksTombstonePurge) {
    Config config;
    config.deletion_mode = DeletionMode::DeleteOnly;  // deletes tombstone
    GraphTinker g(config);
    test::ScopedAudit audit(g);
    const auto edges = rmat_edges(300, 8000, 7);
    (void)g.insert_batch(edges);
    std::vector<Edge> deletes(edges.begin(),
                              edges.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      edges.size() / 2));
    (void)g.delete_batch(deletes);

    const AuditReport before = Auditor::run(g);
    ASSERT_TRUE(before.ok()) << before.to_string();
    EXPECT_GT(before.tombstones, 0u);
    EXPECT_DOUBLE_EQ(g.telemetry().gauge_value("eba.tombstones"),
                     static_cast<double>(before.tombstones));

    g.maintain();

    // The purge is allowed to keep a few load-bearing tombstones (probe
    // windows it cannot rewrite in place); parity — not zero — is the
    // contract: the gauge must track whatever the census actually finds.
    const AuditReport after = Auditor::run(g);
    ASSERT_TRUE(after.ok()) << after.to_string();
    EXPECT_LT(after.tombstones, before.tombstones);
    EXPECT_EQ(after.live_edges, before.live_edges);
    EXPECT_DOUBLE_EQ(g.telemetry().gauge_value("eba.tombstones"),
                     static_cast<double>(after.tombstones));
    EXPECT_DOUBLE_EQ(g.telemetry().gauge_value("gt.num_edges"),
                     static_cast<double>(after.live_edges));
}

TEST(ObsParity, NoCalConfigPublishesNoCalGauges) {
    Config config;
    config.enable_cal = false;
    GraphTinker g(config);
    test::ScopedAudit audit(g);
    (void)g.insert_batch(rmat_edges(200, 4000, 11));

    const AuditReport report = Auditor::run(g);
    ASSERT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.cal_blocks, 0u);

    const obs::Snapshot snap = g.telemetry();
    EXPECT_EQ(snap.gauge("cal.blocks_in_use"), nullptr);
    EXPECT_DOUBLE_EQ(snap.gauge_value("gt.num_edges"),
                     static_cast<double>(report.live_edges));
}

}  // namespace
}  // namespace gt::core

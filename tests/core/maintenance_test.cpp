// Maintenance & space-reclamation layer (core/maintenance.hpp): tombstone
// purges and CAL chain compaction must reclaim space and probe distance
// without disturbing a single observable edge, across every feature
// configuration and under the full structural audit; a compact-delete
// store leaves them nothing to do.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"

namespace gt::core {
namespace {

using EdgeMap = std::map<std::pair<VertexId, VertexId>, Weight>;

EdgeMap edge_map(const GraphTinker& g) {
    EdgeMap out;
    g.visit_edges([&](VertexId u, VertexId v, Weight w) {
        out[{u, v}] = w;
    });
    return out;
}

/// Deletes every other streamed edge via delete_batch and returns how many
/// live edges remain.
EdgeCount delete_half(GraphTinker& g, const std::vector<Edge>& edges) {
    std::vector<Edge> deletes;
    for (std::size_t i = 0; i < edges.size(); i += 2) {
        deletes.push_back(edges[i]);
    }
    (void)g.delete_batch(deletes);
    return g.num_edges();
}

/// Mean edge-cells probed per find_edge over every surviving edge.
double mean_find_probe(const GraphTinker& g, const EdgeMap& live) {
    const obs::Counter& probed = g.obs().counter("eba.cells_probed");
    const std::uint64_t before = probed.value();
    for (const auto& [key, weight] : live) {
        EXPECT_EQ(g.find_edge(key.first, key.second), weight);
    }
    const std::uint64_t after = probed.value();
    return live.empty() ? 0.0
                        : static_cast<double>(after - before) /
                              static_cast<double>(live.size());
}

struct NamedConfig {
    std::string name;
    Config config;
};

/// Delete-only mode: deletes tombstone, so maintain() has debris to purge.
Config delete_only() {
    Config cfg;
    cfg.deletion_mode = DeletionMode::DeleteOnly;
    return cfg;
}

std::vector<NamedConfig> all_configs() {
    std::vector<NamedConfig> out;
    out.push_back({"default_compact", Config{}});
    Config compact_no_cal;
    compact_no_cal.enable_cal = false;
    out.push_back({"compact_no_cal", compact_no_cal});
    out.push_back({"delete_only", delete_only()});
    Config no_cal = delete_only();
    no_cal.enable_cal = false;
    out.push_back({"delete_only_no_cal", no_cal});
    return out;
}

TEST(Maintenance, PurgeRestoresProbeDistanceAndFreesBlocks) {
    // Delete-only mode: a heavy delete wave leaves tombstones that keep
    // probe chains at peak-graph length. The purge must erase them, shorten
    // lookups and hand surplus blocks back to the arena.
    GraphTinker g(delete_only());  // RHH is active in delete-only mode
    const test::ScopedAudit audit(g, "purge");
    const auto edges = rmat_edges(800, 40000, 5);
    (void)g.insert_batch(edges);
    delete_half(g, edges);
    audit.check();

    const EdgeMap before_map = edge_map(g);
    const double probe_before = mean_find_probe(g, before_map);
    const std::size_t bytes_before = g.memory_footprint().edgeblock_bytes;

    const MaintenanceReport report = g.maintain();
    EXPECT_GT(report.trees_purged, 0u);
    EXPECT_GT(report.tombstones_purged, 0u);
    EXPECT_EQ(g.obs().counter("eba.trees_rebuilt").value(),
              report.trees_purged);
    EXPECT_EQ(g.obs().counter("eba.tombstones_purged").value(),
              report.tombstones_purged);

    // Not one observable edge moved.
    EXPECT_EQ(edge_map(g), before_map);

    // Probe distance and in-use footprint both shrink.
    const double probe_after = mean_find_probe(g, before_map);
    EXPECT_LE(probe_after, probe_before);
    EXPECT_LT(g.memory_footprint().edgeblock_bytes, bytes_before);
    EXPECT_GT(report.eba_blocks_reclaimed, 0u);
}

TEST(Maintenance, MaintainPreservesEquivalenceAcrossConfigs) {
    std::mt19937 rng(7);
    for (const NamedConfig& nc : all_configs()) {
        GraphTinker g(nc.config);
        const test::ScopedAudit audit(g, nc.name);
        const auto edges = rmat_edges(600, 20000, 31);
        (void)g.insert_batch(edges);

        // Random 60% delete wave, batch + per-edge mixed.
        std::vector<Edge> shuffled = edges;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        const std::size_t cut = shuffled.size() * 3 / 5;
        (void)g.delete_batch(std::span<const Edge>(shuffled).subspan(0, cut / 2));
        for (std::size_t i = cut / 2; i < cut; ++i) {
            (void)g.delete_edge(shuffled[i].src, shuffled[i].dst);
        }
        audit.check();

        const EdgeMap before_map = edge_map(g);
        const EdgeCount before_edges = g.num_edges();
        (void)g.maintain();
        audit.check();
        EXPECT_EQ(g.num_edges(), before_edges) << nc.name;
        EXPECT_EQ(edge_map(g), before_map) << nc.name;
        for (const auto& [key, weight] : before_map) {
            ASSERT_EQ(g.find_edge(key.first, key.second), weight)
                << nc.name << " (" << key.first << "," << key.second << ")";
        }

        // A second sweep right away finds nothing left to do.
        const MaintenanceReport again = g.maintain();
        EXPECT_TRUE(again.idle()) << nc.name;
    }
}

TEST(Maintenance, CompactSweepFindsNothingToDo) {
    // Compact deletes reclaim on every erase: a hole is refilled from below
    // and emptied blocks free at once, so a window that links a child stays
    // full and the CAL holds no hole. The first sweep after any churn, in
    // batches or solo ops, at any geometry, finds nothing to do.
    struct Geometry {
        std::uint32_t pagewidth;
        std::uint32_t subblock;
        std::uint32_t workblock;
        bool cal;
    };
    const auto edges = rmat_edges(1024, 30000, 17);
    constexpr std::size_t kChunk = 2000;
    constexpr std::size_t kWindowChunks = 4;
    constexpr std::size_t kSolo = 200;  // per chunk, through the solo ops
    for (const Geometry& geo :
         {Geometry{64, 8, 4, true}, Geometry{64, 8, 4, false},
          Geometry{8, 4, 2, true}, Geometry{16, 16, 4, true},
          Geometry{256, 64, 8, true}}) {
        Config cfg;
        cfg.pagewidth = geo.pagewidth;
        cfg.subblock = geo.subblock;
        cfg.workblock = geo.workblock;
        cfg.enable_cal = geo.cal;
        const std::string name = std::to_string(geo.pagewidth) + "/" +
                                 std::to_string(geo.subblock) + "/" +
                                 std::to_string(geo.workblock) +
                                 (geo.cal ? " cal" : " no_cal");
        GraphTinker g(cfg);
        const test::ScopedAudit audit(g, name);
        // A sliding window: each step inserts the next chunk and deletes
        // the one kWindowChunks behind it, a slice of each through the
        // solo ops and the rest as one batch.
        const std::span<const Edge> stream(edges);
        ASSERT_EQ(stream.size() % kChunk, 0u);
        for (std::size_t at = 0; at < stream.size(); at += kChunk) {
            const auto in = stream.subspan(at, kChunk);
            for (const Edge& e : in.first(kSolo)) {
                (void)g.insert_edge(e.src, e.dst, e.weight);
            }
            ASSERT_TRUE(g.insert_batch(in.subspan(kSolo)).ok()) << name;
            if (at < kWindowChunks * kChunk) {
                continue;
            }
            const auto out =
                stream.subspan(at - kWindowChunks * kChunk, kChunk);
            for (const Edge& e : out.first(kSolo)) {
                (void)g.delete_edge(e.src, e.dst);
            }
            ASSERT_TRUE(g.delete_batch(out.subspan(kSolo)).ok()) << name;
        }
        audit.check();
        ASSERT_GT(g.edgeblock_array().blocks_in_use(BlockClass::Wide), 1u)
            << name;

        const EdgeMap before = edge_map(g);
        const std::size_t blocks = g.edgeblock_array().blocks_in_use();
        const MaintenanceReport report = g.maintain();
        EXPECT_TRUE(report.idle()) << name;
        EXPECT_GT(report.trees_examined, 0u) << name;
        EXPECT_EQ(g.edgeblock_array().blocks_in_use(), blocks) << name;
        EXPECT_EQ(edge_map(g), before) << name;
    }
}

TEST(Maintenance, CalCompactionReclaimsHolesAndBlocks) {
    // Delete-only holes keep being scanned until compact_chains rewrites the
    // chains dense; afterwards the scanned and live slot counts coincide and
    // emptied blocks sit on the CAL free list.
    GraphTinker g(delete_only());
    const test::ScopedAudit audit(g, "cal_compact");
    const auto edges = rmat_edges(500, 30000, 13);
    (void)g.insert_batch(edges);
    delete_half(g, edges);
    ASSERT_GT(g.cal().scanned_slots(), g.cal().live_edges());

    const EdgeMap before_map = edge_map(g);
    const std::size_t cal_blocks_before = g.cal().blocks_in_use();
    const MaintenanceReport report = g.maintain();
    EXPECT_GT(report.cal_holes_reclaimed, 0u);
    EXPECT_EQ(g.cal().scanned_slots(), g.cal().live_edges());
    EXPECT_LT(g.cal().blocks_in_use(), cal_blocks_before);
    // visit_edges streams from the CAL: the rebind kept every owner
    // pointer coherent, so the edge set is bit-identical.
    EXPECT_EQ(edge_map(g), before_map);
}

TEST(Maintenance, NoopOnEmptyAndFreshStores) {
    for (const NamedConfig& nc : all_configs()) {
        GraphTinker empty(nc.config);
        EXPECT_TRUE(empty.maintain().idle()) << nc.name;
    }

    // A freshly built delete-free store has nothing to purge or compact.
    GraphTinker fresh;
    const test::ScopedAudit audit(fresh, "fresh");
    (void)fresh.insert_batch(rmat_edges(300, 8000, 3));
    const EdgeMap before = edge_map(fresh);
    EXPECT_TRUE(fresh.maintain().idle());
    EXPECT_EQ(edge_map(fresh), before);
}

TEST(Maintenance, FootprintSeparatesInUseFromCapacity) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "footprint");
    const auto edges = rmat_edges(600, 25000, 41);
    (void)g.insert_batch(edges);
    const GraphTinker::MemoryFootprint peak = g.memory_footprint();
    EXPECT_LE(peak.edgeblock_bytes, peak.edgeblock_capacity_bytes);
    EXPECT_LE(peak.cal_bytes, peak.cal_capacity_bytes);

    delete_half(g, edges);
    g.maintain();
    const GraphTinker::MemoryFootprint after = g.memory_footprint();
    // In-use shrinks with reclamation; arena capacity is recycled, never
    // unmapped, so it stays put.
    EXPECT_LT(after.edgeblock_bytes, peak.edgeblock_bytes);
    EXPECT_EQ(after.edgeblock_capacity_bytes, peak.edgeblock_capacity_bytes);
    EXPECT_LE(after.cal_bytes, peak.cal_bytes);
}

TEST(Maintenance, PurgeThresholdOneDisablesPurges) {
    Config cfg = delete_only();
    cfg.purge_tombstone_threshold = 1.0;
    cfg.cal_compact_threshold = 1.0;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "disabled");
    const auto edges = rmat_edges(300, 10000, 9);
    (void)g.insert_batch(edges);
    delete_half(g, edges);
    const MaintenanceReport report = g.maintain();
    EXPECT_EQ(report.trees_purged, 0u);
    EXPECT_EQ(report.cal_holes_reclaimed, 0u);
}

}  // namespace
}  // namespace gt::core

// Round-trip tests for GraphTinker snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/serialize.hpp"
#include "gen/rmat.hpp"
#include "util/crc32c.hpp"

namespace gt::core {
namespace {

using EdgeMap = std::map<std::pair<VertexId, VertexId>, Weight>;

EdgeMap edge_map(const GraphTinker& g) {
    EdgeMap out;
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        out[{s, d}] = w;
    });
    return out;
}

// Status-API wrappers keeping the older round-trip tests terse.
Status save(const GraphTinker& g, std::ostream& out) {
    return write_snapshot(g, out);
}

std::unique_ptr<GraphTinker> load(std::istream& in) {
    LoadedSnapshot loaded;
    if (!read_snapshot(in, loaded).ok()) {
        return nullptr;
    }
    return std::move(loaded.graph);
}

TEST(Serialize, EmptyGraphRoundTrips) {
    GraphTinker g;
    std::stringstream buffer;
    ASSERT_TRUE(save(g, buffer).ok());
    const auto loaded = load(buffer);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->num_edges(), 0u);
    EXPECT_TRUE(loaded->audit().ok()) << loaded->audit().to_string();
}

TEST(Serialize, EdgesWeightsAndDegreesSurvive) {
    GraphTinker g;
    const auto edges = rmat_edges(300, 5000, 77);
    (void)g.insert_batch(edges);
    // A few deletions so tombstoned state is exercised.
    for (std::size_t i = 0; i < edges.size(); i += 7) {
        (void)g.delete_edge(edges[i].src, edges[i].dst);
    }
    std::stringstream buffer;
    ASSERT_TRUE(save(g, buffer).ok());
    const auto loaded = load(buffer);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->num_edges(), g.num_edges());
    EXPECT_EQ(edge_map(*loaded), edge_map(g));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(loaded->degree(v), g.degree(v)) << v;
    }
    EXPECT_TRUE(loaded->audit().ok()) << loaded->audit().to_string();
}

TEST(Serialize, ConfigurationIsPreserved) {
    Config cfg;
    cfg.pagewidth = 128;
    cfg.subblock = 16;
    cfg.workblock = 8;
    cfg.enable_sgh = false;
    cfg.deletion_mode = DeletionMode::DeleteOnly;  // the non-default mode
    GraphTinker g(cfg);
    (void)g.insert_edge(5, 6, 7);
    std::stringstream buffer;
    ASSERT_TRUE(save(g, buffer).ok());
    const auto loaded = load(buffer);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->config().pagewidth, 128u);
    EXPECT_EQ(loaded->config().subblock, 16u);
    EXPECT_FALSE(loaded->config().enable_sgh);
    EXPECT_EQ(loaded->config().deletion_mode, DeletionMode::DeleteOnly);
    EXPECT_EQ(loaded->find_edge(5, 6), std::optional<Weight>(7));
}

TEST(Serialize, DeleteOnlySnapshotReloadsDeleteOnlyWithRhh) {
    // A store saved in delete-only mode keeps that mode when it comes back,
    // whatever the library default is — and keeps behaving like it: Robin
    // Hood on, deletes tombstone.
    Config cfg;
    cfg.deletion_mode = DeletionMode::DeleteOnly;
    GraphTinker g(cfg);
    const auto edges = rmat_edges(200, 3000, 29);
    (void)g.insert_batch(edges);
    std::stringstream buffer;
    ASSERT_TRUE(save(g, buffer).ok());

    // The config section's last u32 once held an amortized maintenance
    // budget. Snapshots written with one set must still load: patch the
    // slot (v2 layout: 16-byte header, then the 56-byte section and its
    // CRC) and re-seal the section checksum.
    std::string bytes = buffer.str();
    constexpr std::size_t kSection = 16;
    constexpr std::size_t kSectionBytes = 56;
    const std::uint32_t old_budget = 65536;
    std::memcpy(&bytes[kSection + kSectionBytes - 4], &old_budget, 4);
    const std::uint32_t crc =
        util::crc32c(bytes.data() + kSection, kSectionBytes);
    std::memcpy(&bytes[kSection + kSectionBytes], &crc, 4);
    std::stringstream patched(bytes);

    const auto loaded = load(patched);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->config().deletion_mode, DeletionMode::DeleteOnly);
    EXPECT_TRUE(loaded->config().rhh_active());
    EXPECT_EQ(edge_map(*loaded), edge_map(g));
    const test::ScopedAudit audit(*loaded, "reloaded delete_only");
    ASSERT_TRUE(loaded->delete_edge(edges[0].src, edges[0].dst));
    EXPECT_GT(loaded->telemetry().gauge_value("eba.tombstones"), 0.0);

    // The default store reloads in the default compact-delete mode.
    GraphTinker compact;
    (void)compact.insert_batch(edges);
    std::stringstream compact_buffer;
    ASSERT_TRUE(save(compact, compact_buffer).ok());
    const auto reloaded = load(compact_buffer);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(reloaded->config().deletion_mode,
              DeletionMode::DeleteAndCompact);
    EXPECT_FALSE(reloaded->config().rhh_active());
}

TEST(Serialize, RobinHoodByteFollowsDeletionMode) {
    // The config section's Robin Hood byte records rhh_active() and is
    // ignored on read: the deletion mode alone decides it. A snapshot
    // stores edges, not their placement, so a file whose byte disagrees
    // with its mode (older writers recorded a separate switch) reloads
    // under its mode's probe discipline.
    constexpr std::size_t kSection = 16;       // v2 header
    constexpr std::size_t kSectionBytes = 56;  // then its CRC
    constexpr std::size_t kRhhByte = kSection + 14;  // after 3 u32 + 2 u8
    const auto patch = [&](const std::string& file, std::uint8_t rhh) {
        std::string bytes = file;
        bytes[kRhhByte] = static_cast<char>(rhh);
        const std::uint32_t crc =
            util::crc32c(bytes.data() + kSection, kSectionBytes);
        std::memcpy(&bytes[kSection + kSectionBytes], &crc, 4);
        return bytes;
    };
    const auto edges = rmat_edges(300, 6000, 37);
    Config delete_only;
    delete_only.deletion_mode = DeletionMode::DeleteOnly;
    for (const Config& cfg : {Config{}, delete_only}) {
        const bool rhh = cfg.deletion_mode == DeletionMode::DeleteOnly;
        const std::string label = rhh ? "delete_only" : "compact";
        GraphTinker g(cfg);
        ASSERT_TRUE(g.insert_batch(edges).ok()) << label;
        std::stringstream buffer;
        ASSERT_TRUE(save(g, buffer).ok()) << label;
        const std::string file = buffer.str();
        EXPECT_EQ(static_cast<std::uint8_t>(file[kRhhByte]), rhh ? 1U : 0U)
            << label;

        std::stringstream patched(patch(file, rhh ? 0 : 1));
        const auto loaded = load(patched);
        ASSERT_NE(loaded, nullptr) << label;
        EXPECT_EQ(loaded->config().deletion_mode, cfg.deletion_mode) << label;
        EXPECT_EQ(loaded->config().rhh_active(), rhh) << label;
        const AuditReport report = loaded->audit();
        EXPECT_TRUE(report.ok()) << label << ": " << report.to_string();
        EXPECT_EQ(loaded->num_edges(), g.num_edges()) << label;
        g.visit_edges([&](VertexId s, VertexId d, Weight w) {
            ASSERT_EQ(loaded->find_edge(s, d), std::optional<Weight>(w))
                << label << " (" << s << "," << d << ")";
        });
    }
}

TEST(Serialize, DeleteHeavyStoreRoundTripsInBothModes) {
    // Delete half the graph (mixing batch and per-edge paths), snapshot,
    // reload, and compare against a fresh twin built from only the
    // survivors. Tombstones, CAL holes and compaction debris must all
    // round-trip into a store that is observably identical and audits
    // clean — in delete-only and in compacting mode.
    std::mt19937 rng(55);
    for (const auto mode : {DeletionMode::DeleteOnly,
                            DeletionMode::DeleteAndCompact}) {
        Config cfg;
        cfg.deletion_mode = mode;
        const std::string label =
            mode == DeletionMode::DeleteOnly ? "delete_only" : "compact";
        GraphTinker g(cfg);
        const test::ScopedAudit audit(g, label);
        const auto edges = rmat_edges(400, 12000, 19);
        (void)g.insert_batch(edges);

        std::vector<Edge> shuffled = edges;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        const std::size_t cut = shuffled.size() / 2;
        (void)g.delete_batch(std::span<const Edge>(shuffled).subspan(0, cut / 2));
        for (std::size_t i = cut / 2; i < cut; ++i) {
            (void)g.delete_edge(shuffled[i].src, shuffled[i].dst);
        }
        audit.check();

        std::stringstream buffer;
        ASSERT_TRUE(save(g, buffer).ok()) << label;
        const auto loaded = load(buffer);
        ASSERT_NE(loaded, nullptr) << label;
        const test::ScopedAudit loaded_audit(*loaded, label + " loaded");

        // Fresh twin from the surviving edge set only.
        GraphTinker twin(cfg);
        g.visit_edges([&](VertexId s, VertexId d, Weight w) {
            (void)twin.insert_edge(s, d, w);
        });
        EXPECT_EQ(loaded->num_edges(), twin.num_edges()) << label;
        EXPECT_EQ(edge_map(*loaded), edge_map(g)) << label;
        EXPECT_EQ(edge_map(*loaded), edge_map(twin)) << label;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
            ASSERT_EQ(loaded->degree(v), twin.degree(v))
                << label << " v=" << v;
        }
        twin.visit_edges([&](VertexId s, VertexId d, Weight w) {
            ASSERT_EQ(loaded->find_edge(s, d), std::optional<Weight>(w))
                << label << " (" << s << "," << d << ")";
        });

        // The reloaded store keeps working: maintenance reclaims the
        // round-tripped debris and deletes/inserts still apply.
        (void)loaded->maintain();
        EXPECT_EQ(edge_map(*loaded), edge_map(twin)) << label;
        EXPECT_TRUE(loaded->insert_edge(99999, 1, 2)) << label;
        EXPECT_TRUE(loaded->delete_edge(99999, 1)) << label;
    }
}

/// A v2 snapshot written by the store before level 0 had two block sizes
/// (every top a full PAGEWIDTH block): the default Config and six sources
/// of degree 1, 4, 5, 8, 9 and 20 — either side of both size-class
/// thresholds. Source 10i+3 holds edges to 100+7d+i with weight d+1.
constexpr unsigned char kSingleClassSnapshot[] = {
    0x42, 0x53, 0x54, 0x47, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x01, 0x00, 0x04, 0x00, 0x00,
    0x80, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x49, 0xc0, 0xc4, 0x96, 0x2f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x0d, 0x00, 0x00, 0x00, 0x65, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x0d, 0x00, 0x00, 0x00, 0x6c, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x0d, 0x00, 0x00, 0x00, 0x73, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x0d, 0x00, 0x00, 0x00, 0x7a, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x17, 0x00, 0x00, 0x00, 0x66, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x17, 0x00, 0x00, 0x00, 0x6d, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x17, 0x00, 0x00, 0x00, 0x74, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x17, 0x00, 0x00, 0x00, 0x7b, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x17, 0x00, 0x00, 0x00, 0x82, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x67, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x6e, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x75, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x7c, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x83, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x8a, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x91, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x21, 0x00, 0x00, 0x00, 0x98, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x68, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x6f, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x76, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x7d, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x84, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x8b, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x92, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0x99, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x2b, 0x00, 0x00, 0x00, 0xa0, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x69, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x70, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x77, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x7e, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x85, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x8c, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x93, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0x9a, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xa1, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xa8, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xaf, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xb6, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xbd, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xc4, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xcb, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xd2, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xd9, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xe0, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xe7, 0x00, 0x00, 0x00, 0x13, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xee, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00,
    0x77, 0x6b, 0xcc, 0x0f, 0x45, 0x53, 0x54, 0x47,
};

TEST(Serialize, SnapshotFromSingleClassStoreLoadsAndAuditsClean) {
    const std::string bytes(
        reinterpret_cast<const char*>(kSingleClassSnapshot),
        sizeof(kSingleClassSnapshot));
    std::istringstream in(bytes);
    LoadedSnapshot loaded;
    ASSERT_TRUE(read_snapshot(in, loaded).ok());
    const GraphTinker& g = *loaded.graph;
    const test::ScopedAudit audit(g, "single-class snapshot");
    EdgeMap want;
    const unsigned degrees[] = {1, 4, 5, 8, 9, 20};
    for (VertexId i = 0; i < 6; ++i) {
        for (VertexId d = 0; d < degrees[i]; ++d) {
            want[{10 * i + 3, 100 + 7 * d + i}] = d + 1;
        }
        EXPECT_EQ(g.degree(10 * i + 3), degrees[i]);
    }
    EXPECT_EQ(edge_map(g), want);
    // Sources up to one window's worth of edges load onto narrow tops.
    EXPECT_EQ(g.edgeblock_array().blocks_in_use(BlockClass::Narrow), 4u);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
    {
        std::stringstream buffer("definitely not a snapshot");
        EXPECT_EQ(load(buffer), nullptr);
    }
    {
        GraphTinker g;
        (void)g.insert_edge(1, 2, 3);
        (void)g.insert_edge(4, 5, 6);
        std::stringstream buffer;
        ASSERT_TRUE(save(g, buffer).ok());
        const std::string full = buffer.str();
        std::stringstream truncated(full.substr(0, full.size() - 4));
        EXPECT_EQ(load(truncated), nullptr);
    }
    {
        std::stringstream empty;
        EXPECT_EQ(load(empty), nullptr);
    }
}

TEST(Serialize, LoadedStoreRemainsFullyUsable) {
    GraphTinker g;
    (void)g.insert_batch(rmat_edges(100, 1500, 3));
    std::stringstream buffer;
    ASSERT_TRUE(save(g, buffer).ok());
    auto loaded = load(buffer);
    ASSERT_NE(loaded, nullptr);
    const auto before = loaded->num_edges();
    EXPECT_TRUE(loaded->insert_edge(9999, 1, 2));
    EXPECT_TRUE(loaded->delete_edge(9999, 1));
    EXPECT_EQ(loaded->num_edges(), before);
    EXPECT_TRUE(loaded->audit().ok()) << loaded->audit().to_string();
}

}  // namespace
}  // namespace gt::core

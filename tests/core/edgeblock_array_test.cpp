// Tests for the EdgeblockArray: Robin Hood probing, Tree-Based Hashing
// branch-out, deletion modes and the compaction machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/edgeblock_array.hpp"
#include "core/serialize.hpp"
#include "util/crc32c.hpp"

namespace gt::core {
namespace {

Config small_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 4;
    cfg.workblock = 2;
    cfg.enable_cal = false;
    return cfg;
}

TEST(EdgeblockArray, InsertFindUpdate) {
    const Config cfg = small_config();
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    EXPECT_TRUE(eba.insert(top, 5, 10).inserted);
    EXPECT_NE(top, EdgeblockArray::kNoBlock);
    EXPECT_FALSE(eba.insert(top, 5, 20).inserted);  // weight update
    EXPECT_EQ(eba.find(top, 5), std::optional<Weight>(20));
    EXPECT_FALSE(eba.find(top, 6).has_value());
}

TEST(EdgeblockArray, FindOnEmptyHandle) {
    const Config cfg = small_config();
    EdgeblockArray eba(cfg, nullptr);
    EXPECT_FALSE(eba.find(EdgeblockArray::kNoBlock, 1).has_value());
    std::uint32_t top = EdgeblockArray::kNoBlock;
    EXPECT_FALSE(eba.erase(top, 1).found);
}

TEST(EdgeblockArray, BranchesOutWhenSubblockCongests) {
    const Config cfg = small_config();  // 4 subblocks of 4 cells
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    // Far more edges than one block holds: the tree must branch.
    for (VertexId d = 0; d < 200; ++d) {
        eba.insert(top, d, 1);
    }
    EXPECT_GT(eba.registry().counter("eba.branch_outs").value(), 0u);
    EXPECT_GT(eba.blocks_in_use(), 1u);
    for (VertexId d = 0; d < 200; ++d) {
        EXPECT_TRUE(eba.find(top, d).has_value()) << d;
    }
}

TEST(EdgeblockArray, DepthIsLogarithmicInDegree) {
    // The paper's probe-distance claim: O(log n) generations vs the
    // adjacency list's O(n) blocks.
    Config cfg;
    cfg.pagewidth = 64;
    cfg.subblock = 8;
    cfg.workblock = 4;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    constexpr VertexId kDegree = 20000;
    for (VertexId d = 0; d < kDegree; ++d) {
        eba.insert(top, d, 1);
    }
    const double depth = eba.subtree_depth(top);
    // Each level multiplies capacity by ~spb (8); generous upper bound of
    // 4x the information-theoretic depth tolerates hash imbalance.
    const double log_bound = std::log2(kDegree) / std::log2(8.0);
    EXPECT_LE(depth, 4.0 * log_bound + 2.0)
        << "tree far deeper than O(log degree)";
}

TEST(EdgeblockArray, RobinHoodSwapsHappenAndPreserveFindability) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteOnly;  // RHH needs delete-only
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 64; ++d) {
        eba.insert(top, d, d + 1);
    }
    EXPECT_GT(eba.registry().counter("eba.rhh_swaps").value(), 0u)
        << "RHH never displaced anything";
    for (VertexId d = 0; d < 64; ++d) {
        EXPECT_EQ(eba.find(top, d), std::optional<Weight>(d + 1));
    }
}

TEST(EdgeblockArray, RhhDisabledInCompactMode) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    EXPECT_FALSE(cfg.rhh_active());
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 64; ++d) {
        eba.insert(top, d, d + 1);
    }
    EXPECT_EQ(eba.registry().counter("eba.rhh_swaps").value(), 0u);
    for (VertexId d = 0; d < 64; ++d) {
        EXPECT_EQ(eba.find(top, d), std::optional<Weight>(d + 1));
    }
}

TEST(EdgeblockArray, DeleteOnlyTombstonesWithoutFreeingBlocks) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteOnly;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 100; ++d) {
        eba.insert(top, d, 1);
    }
    const std::size_t peak_blocks = eba.blocks_in_use();
    for (VertexId d = 0; d < 100; ++d) {
        EXPECT_TRUE(eba.erase(top, d).found);
    }
    EXPECT_EQ(eba.blocks_in_use(), peak_blocks) << "delete-only must not shrink";
    EXPECT_EQ(eba.registry().counter("eba.blocks_freed").value(), 0u);
    for (VertexId d = 0; d < 100; ++d) {
        EXPECT_FALSE(eba.find(top, d).has_value());
    }
    // Tombstoned slots are reusable by later inserts.
    const std::size_t before = eba.blocks_in_use();
    for (VertexId d = 200; d < 260; ++d) {
        eba.insert(top, d, 1);
    }
    EXPECT_LE(eba.blocks_in_use(), before + 4);
}

TEST(EdgeblockArray, DeleteAndCompactShrinksToNothing) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 500; ++d) {
        eba.insert(top, d, 1);
    }
    const std::size_t peak = eba.blocks_in_use();
    EXPECT_GT(peak, 5u);
    for (VertexId d = 0; d < 500; ++d) {
        ASSERT_TRUE(eba.erase(top, d).found) << d;
    }
    EXPECT_EQ(top, EdgeblockArray::kNoBlock) << "empty vertex keeps no block";
    EXPECT_EQ(eba.blocks_in_use(), 0u) << "compact mode must fully shrink";
    EXPECT_GT(eba.registry().counter("eba.blocks_freed").value(), 0u);
}

TEST(EdgeblockArray, CompactionRelocatesDeepEdgesUpward) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 300; ++d) {
        eba.insert(top, d, d);
    }
    const auto depth_before = eba.subtree_depth(top);
    // Delete half; survivors must all stay findable with correct weights.
    for (VertexId d = 0; d < 300; d += 2) {
        ASSERT_TRUE(eba.erase(top, d).found);
    }
    EXPECT_GT(eba.registry().counter("eba.compaction_moves").value(), 0u);
    EXPECT_LE(eba.subtree_depth(top), depth_before);
    for (VertexId d = 1; d < 300; d += 2) {
        EXPECT_EQ(eba.find(top, d), std::optional<Weight>(d)) << d;
    }
    for (VertexId d = 0; d < 300; d += 2) {
        EXPECT_FALSE(eba.find(top, d).has_value()) << d;
    }
}

TEST(EdgeblockArray, FreedBlocksAreRecycled) {
    Config cfg = small_config();
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top_a = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 200; ++d) {
        eba.insert(top_a, d, 1);
    }
    const std::size_t allocated_peak = eba.blocks_allocated();
    for (VertexId d = 0; d < 200; ++d) {
        eba.erase(top_a, d);
    }
    // A second vertex reuses the freed pool instead of growing the arena.
    std::uint32_t top_b = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 200; ++d) {
        eba.insert(top_b, d, 1);
    }
    EXPECT_EQ(eba.blocks_allocated(), allocated_peak);
}

TEST(EdgeblockArray, IterationVisitsExactlyLiveEdges) {
    Config cfg = small_config();
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    std::set<VertexId> expected;
    for (VertexId d = 0; d < 150; ++d) {
        eba.insert(top, d * 3, 1);
        expected.insert(d * 3);
    }
    for (VertexId d = 0; d < 150; d += 5) {
        eba.erase(top, d * 3);
        expected.erase(d * 3);
    }
    std::set<VertexId> seen;
    eba.visit_edges_of(top, [&](VertexId dst, Weight) {
        EXPECT_TRUE(seen.insert(dst).second) << "duplicate " << dst;
    });
    EXPECT_EQ(seen, expected);
}

TEST(EdgeblockArray, WorkblockFetchesAreCounted) {
    Config cfg = small_config();
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    eba.insert(top, 1, 1);
    const obs::Counter& fetched =
        eba.registry().counter("eba.workblocks_fetched");
    const std::uint64_t before = fetched.value();
    (void)eba.find(top, 1);
    EXPECT_GT(fetched.value(), before);
}

TEST(EbaLayout, CellsAreEightBytesAndBlocksAre816) {
    // Default geometry 64/8/4. A wide block: 64 x 8 B cells + 64 x 4 B CAL
    // pointers + 8 x 4 B child handles + 2 x 8 B mask words. A narrow top
    // is one 8-cell window: 8 x 8 B cells + 8 x 4 B CAL pointers + 2 x 8 B
    // mask words. No block stores a live count: it is the popcount of its
    // occupancy words.
    static_assert(sizeof(EdgeCell) == 8);
    EdgeblockArray eba(Config{}, nullptr);
    EXPECT_EQ(eba.block_bytes(BlockClass::Wide), 816u);
    EXPECT_EQ(eba.block_bytes(BlockClass::Narrow), 112u);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    eba.insert(top, 1, 1);
    ASSERT_EQ(eba.blocks_in_use(), 1u);
    EXPECT_TRUE(EdgeblockArray::is_narrow(top));
    EXPECT_EQ(eba.memory_bytes(), 112u);
    // The ninth edge finds the window full: the top is promoted and every
    // block in use is a wide one.
    for (VertexId d = 2; d <= 9; ++d) {
        eba.insert(top, d, 1);
    }
    EXPECT_FALSE(EdgeblockArray::is_narrow(top));
    EXPECT_EQ(eba.blocks_in_use(BlockClass::Narrow), 0u);
    EXPECT_GE(eba.blocks_in_use(BlockClass::Wide), 1u);
    EXPECT_EQ(eba.memory_bytes(), eba.blocks_in_use(BlockClass::Wide) * 816u);
}

/// Subblock windows of class `c` that do not start on a line boundary or
/// spill past the line they start in (every window is at most one line at
/// the default geometry).
std::size_t misaligned_windows(const EdgeblockArray& eba, const Config& cfg,
                               BlockClass c) {
    const std::uint32_t width =
        c == BlockClass::Wide ? cfg.pagewidth : cfg.subblock;
    std::size_t bad = 0;
    for (std::uint32_t b = 0; b < eba.blocks_allocated(c); ++b) {
        const std::uint32_t h = EdgeblockArray::handle(c, b);
        for (std::uint32_t s = 0; s < width; s += cfg.subblock) {
            const auto first =
                reinterpret_cast<std::uintptr_t>(&eba.cell_at(CellRef{h, s}));
            const auto last = reinterpret_cast<std::uintptr_t>(
                &eba.cell_at(CellRef{h, s + cfg.subblock - 1}));
            if (first % kCacheLine != 0 ||
                last / kCacheLine != first / kCacheLine) {
                ++bad;
            }
        }
    }
    return bad;
}

TEST(EbaLayout, SubblockWindowsStayLineAlignedAcrossGrowth) {
    // At the default geometry every 8-cell subblock window is exactly one
    // cache line: it starts on a 64-byte boundary and its last cell sits
    // in the same line. The arena must keep that through reallocations.
    const Config cfg;
    EdgeblockArray eba(cfg, nullptr);
    // Nine edges per vertex promote each top: the wide arena grows by one
    // top per vertex.
    std::vector<std::uint32_t> tops(3000, EdgeblockArray::kNoBlock);
    std::set<const EdgeCell*> bases;
    for (VertexId v = 0; v < tops.size(); ++v) {
        for (VertexId d = 0; d < 9; ++d) {
            eba.insert(tops[v], v * 16 + d, 1);
        }
        ASSERT_FALSE(EdgeblockArray::is_narrow(tops[v]));
        const EdgeCell* base = &eba.cell_at(CellRef{0, 0});
        if (bases.insert(base).second) {
            EXPECT_EQ(misaligned_windows(eba, cfg, BlockClass::Wide), 0u)
                << "after reallocation " << bases.size();
        }
    }
    EXPECT_GE(bases.size(), 4u) << "expected several reallocations";
    EXPECT_EQ(misaligned_windows(eba, cfg, BlockClass::Wide), 0u);
    for (VertexId v = 0; v < tops.size(); ++v) {
        EXPECT_EQ(eba.find(tops[v], v * 16 + 8), std::optional<Weight>(1));
    }
}

TEST(EbaLayout, NarrowWindowsStayLineAlignedAcrossGrowth) {
    // A narrow top is one subblock window, so its cells are one line and
    // must start on a line boundary after every narrow-arena reallocation.
    const Config cfg;
    EdgeblockArray eba(cfg, nullptr);
    std::vector<std::uint32_t> tops(3000, EdgeblockArray::kNoBlock);
    std::set<const EdgeCell*> bases;
    const std::uint32_t first_narrow =
        EdgeblockArray::handle(BlockClass::Narrow, 0);
    for (VertexId v = 0; v < tops.size(); ++v) {
        eba.insert(tops[v], v, 1);
        ASSERT_TRUE(EdgeblockArray::is_narrow(tops[v]));
        const EdgeCell* base = &eba.cell_at(CellRef{first_narrow, 0});
        if (bases.insert(base).second) {
            EXPECT_EQ(misaligned_windows(eba, cfg, BlockClass::Narrow), 0u)
                << "after reallocation " << bases.size();
        }
    }
    EXPECT_GE(bases.size(), 4u) << "expected several reallocations";
    EXPECT_EQ(eba.blocks_allocated(BlockClass::Wide), 0u);
    EXPECT_EQ(misaligned_windows(eba, cfg, BlockClass::Narrow), 0u);
    for (VertexId v = 0; v < tops.size(); ++v) {
        EXPECT_EQ(eba.find(tops[v], v), std::optional<Weight>(1));
    }
}

TEST(EdgeblockArrayConfig, ValidationRejectsBadGeometry) {
    Config bad;
    bad.pagewidth = 48;  // not a power of two
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = Config{};
    bad.subblock = 16;
    bad.workblock = 32;  // workblock larger than subblock
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = Config{};
    bad.cal_group_size = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = Config{};
    bad.pagewidth = 256;
    bad.subblock = 128;  // wider than the one mask word a probe reads
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    EXPECT_NO_THROW(Config{}.validate());

    // A snapshot whose config section says subblock = 128 fails the same
    // screen: patch a 256/64/8 store's file and re-seal the section CRC.
    Config wide;
    wide.pagewidth = 256;
    wide.subblock = 64;
    wide.workblock = 8;
    GraphTinker g(wide);
    ASSERT_TRUE(g.insert_edge(1, 2, 3));
    std::stringstream out;
    ASSERT_TRUE(write_snapshot(g, out).ok());
    std::string bytes = out.str();
    constexpr std::size_t kSection = 16;  // v2 header
    constexpr std::size_t kSectionBytes = 56;
    const std::uint32_t subblock = 128;
    std::memcpy(&bytes[kSection + 4], &subblock, 4);  // after pagewidth
    const std::uint32_t crc =
        util::crc32c(bytes.data() + kSection, kSectionBytes);
    std::memcpy(&bytes[kSection + kSectionBytes], &crc, 4);
    std::istringstream in(bytes);
    LoadedSnapshot loaded;
    EXPECT_EQ(read_snapshot(in, loaded).code, StatusCode::SnapshotBadConfig);
    EXPECT_EQ(loaded.graph, nullptr);
}

}  // namespace
}  // namespace gt::core

// Property tests at the raw EdgeblockArray level: randomized op sequences
// against a model across geometries, probe-cost asymptotics, and the
// probe_insert/place_at contract.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "core/edgeblock_array.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

struct GeomParam {
    std::uint32_t pagewidth;
    std::uint32_t subblock;
    std::uint32_t workblock;
    DeletionMode mode;
};

Config make_config(const GeomParam& p) {
    Config cfg;
    cfg.pagewidth = p.pagewidth;
    cfg.subblock = p.subblock;
    cfg.workblock = p.workblock;
    cfg.deletion_mode = p.mode;
    cfg.enable_cal = false;
    return cfg;
}

class EbaGeometryTest : public ::testing::TestWithParam<GeomParam> {};

TEST_P(EbaGeometryTest, RandomOpsMatchModel) {
    const Config cfg = make_config(GetParam());
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    std::unordered_map<VertexId, Weight> model;
    Rng rng(cfg.pagewidth * 131 + cfg.subblock);
    for (int op = 0; op < 30000; ++op) {
        const auto dst = static_cast<VertexId>(rng.next_below(700));
        const auto roll = rng.next_below(10);
        if (roll < 6) {
            const auto w = static_cast<Weight>(1 + rng.next_below(500));
            const bool inserted = eba.insert(top, dst, w).inserted;
            EXPECT_EQ(inserted, !model.contains(dst)) << "op " << op;
            model[dst] = w;
        } else if (roll < 8) {
            const bool erased = eba.erase(top, dst).found;
            EXPECT_EQ(erased, model.erase(dst) > 0) << "op " << op;
        } else {
            const auto got = eba.find(top, dst);
            const auto it = model.find(dst);
            if (it == model.end()) {
                EXPECT_FALSE(got.has_value()) << "op " << op;
            } else {
                ASSERT_TRUE(got.has_value()) << "op " << op;
                EXPECT_EQ(*got, it->second) << "op " << op;
            }
        }
    }
    // Final audit through iteration.
    std::unordered_map<VertexId, Weight> seen;
    eba.visit_edges_of(top, [&](VertexId d, Weight w) {
        EXPECT_TRUE(seen.emplace(d, w).second) << "duplicate " << d;
    });
    EXPECT_EQ(seen.size(), model.size());
    for (const auto& [d, w] : model) {
        ASSERT_TRUE(seen.contains(d)) << d;
        EXPECT_EQ(seen.at(d), w) << d;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EbaGeometryTest,
    ::testing::Values(GeomParam{64, 8, 4, DeletionMode::DeleteOnly},
                      GeomParam{64, 8, 4, DeletionMode::DeleteAndCompact},
                      GeomParam{8, 4, 2, DeletionMode::DeleteOnly},
                      GeomParam{8, 4, 2, DeletionMode::DeleteAndCompact},
                      GeomParam{16, 16, 4, DeletionMode::DeleteOnly},
                      GeomParam{256, 32, 8, DeletionMode::DeleteAndCompact},
                      GeomParam{4, 4, 4, DeletionMode::DeleteOnly},
                      GeomParam{128, 8, 8, DeletionMode::DeleteAndCompact},
                      // The widest legal window: one whole mask word.
                      GeomParam{256, 64, 8, DeletionMode::DeleteOnly},
                      GeomParam{256, 64, 8, DeletionMode::DeleteAndCompact}),
    [](const auto& info) {
        const GeomParam& p = info.param;
        return "pw" + std::to_string(p.pagewidth) + "_sb" +
               std::to_string(p.subblock) + "_wb" +
               std::to_string(p.workblock) +
               (p.mode == DeletionMode::DeleteOnly ? "_only" : "_compact");
    });

TEST(EbaProbeCost, SuccessfulFindIsLogarithmicInDegree) {
    // Measure probes per successful FIND at two degrees a factor 64 apart;
    // the paper's O(log n) claim implies the cost ratio stays near
    // log(64n)/log(n), far below the 64x an O(n) structure would pay.
    Config cfg;
    cfg.enable_cal = false;
    double small = 0.0;
    double large = 0.0;
    {
        EdgeblockArray eba(cfg, nullptr);
        std::uint32_t top = EdgeblockArray::kNoBlock;
        for (VertexId d = 0; d < 1024; ++d) {
            eba.insert(top, d, 1);
        }
        const obs::Counter& probed = eba.registry().counter("eba.cells_probed");
        const std::uint64_t before = probed.value();
        for (VertexId d = 0; d < 1024; ++d) {
            (void)eba.find(top, d);
        }
        small = static_cast<double>(probed.value() - before) / 1024;
    }
    {
        EdgeblockArray eba(cfg, nullptr);
        std::uint32_t top = EdgeblockArray::kNoBlock;
        for (VertexId d = 0; d < 65536; ++d) {
            eba.insert(top, d, 1);
        }
        const obs::Counter& probed = eba.registry().counter("eba.cells_probed");
        const std::uint64_t before = probed.value();
        for (VertexId d = 0; d < 65536; ++d) {
            (void)eba.find(top, d);
        }
        large = static_cast<double>(probed.value() - before) / 65536;
    }
    EXPECT_LT(large / small, 4.0)
        << "find cost grew " << large / small
        << "x for a 64x degree increase — not logarithmic (small=" << small
        << ", large=" << large << ")";
}

TEST(EbaContract, ProbeInsertDuplicateUpdatesWeight) {
    Config cfg;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    eba.insert(top, 9, 1);
    const auto probe = eba.probe_insert(top, 9, 42);
    EXPECT_EQ(probe.kind, EdgeblockArray::ProbeResult::Kind::Duplicate);
    EXPECT_EQ(eba.find(top, 9), std::optional<Weight>(42));
}

TEST(EbaContract, ProbeInsertPinsWritableCell) {
    Config cfg;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    const auto probe = eba.probe_insert(top, 5, 1);
    ASSERT_EQ(probe.kind, EdgeblockArray::ProbeResult::Kind::PlaceAt);
    EXPECT_NE(top, EdgeblockArray::kNoBlock);  // allocated the top block
    eba.place_at(probe.where, 5, 1, kNoCalPos);
    EXPECT_EQ(eba.find(top, 5), std::optional<Weight>(1));
    // The pinned cell round-trips through cell_at.
    EXPECT_EQ(eba.cell_at(probe.where).dst, 5u);
}

TEST(EbaContract, FindRefAndSetWeight) {
    Config cfg;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    eba.insert(top, 11, 3);
    const auto ref = eba.find_ref(top, 11);
    ASSERT_TRUE(ref.has_value());
    eba.set_weight(*ref, 77);
    EXPECT_EQ(eba.find(top, 11), std::optional<Weight>(77));
    EXPECT_FALSE(eba.find_ref(top, 12).has_value());
}

TEST(EbaInvariant, ProbeValuesMatchDisplacement) {
    // Every occupied cell's stored probe distance must equal its distance
    // from its Robin Hood home (mod subblock) — the invariant RHH relies on.
    Config cfg;
    cfg.pagewidth = 32;
    cfg.subblock = 8;
    cfg.workblock = 4;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
        eba.insert(top, static_cast<VertexId>(rng.next_below(3000)), 1);
        if (i % 5 == 0) {
            eba.erase(top, static_cast<VertexId>(rng.next_below(3000)));
        }
    }
    // The cells' probe fields are internal, but FIND reachability of every
    // cell (validated via for_each + find) is the observable consequence.
    std::size_t live = 0;
    bool all_found = true;
    eba.visit_edges_of(top, [&](VertexId d, Weight) {
        ++live;
        all_found = all_found && eba.find(top, d).has_value();
    });
    EXPECT_TRUE(all_found);
    EXPECT_GT(live, 0u);
}

TEST(EbaMemory, BytesTrackBlocksInUse) {
    Config cfg;
    cfg.enable_cal = false;
    EdgeblockArray eba(cfg, nullptr);
    EXPECT_EQ(eba.memory_bytes(), 0u);
    std::uint32_t top = EdgeblockArray::kNoBlock;
    eba.insert(top, 1, 1);
    // A new vertex starts on a narrow top.
    EXPECT_EQ(eba.memory_bytes(), eba.block_bytes(BlockClass::Narrow));
    EXPECT_EQ(eba.block_bytes(BlockClass::Narrow), 112u);
    for (VertexId d = 0; d < 2000; ++d) {
        eba.insert(top, d, 1);
    }
    // Each class counts at its full size; the hub's tree is all wide.
    EXPECT_EQ(eba.blocks_in_use(BlockClass::Narrow), 0u);
    EXPECT_GT(eba.blocks_in_use(BlockClass::Wide), 1u);
    EXPECT_EQ(eba.memory_bytes(), eba.blocks_in_use(BlockClass::Wide) *
                                      eba.block_bytes(BlockClass::Wide));
    EXPECT_EQ(eba.block_bytes(BlockClass::Wide), 816u);
}

}  // namespace
}  // namespace gt::core

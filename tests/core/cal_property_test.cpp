// Randomized property tests for the Coarse Adjacency List and the SGH unit
// under sustained churn, plus cross-feature combinations not covered by the
// unit suites.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/bidirectional.hpp"
#include "core/cal.hpp"
#include "core/graphtinker.hpp"
#include "core/sgh.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

/// Appends through the CAL's one append path, resolving the group per call.
std::uint32_t append(CoarseAdjacencyList& cal, VertexId dense_src,
                     VertexId raw_src, VertexId dst, Weight weight,
                     CellRef owner) {
    return cal.appender(dense_src).append(raw_src, dst, weight, owner);
}

class CalFuzzTest : public ::testing::TestWithParam<bool> {};

TEST_P(CalFuzzTest, RandomChurnKeepsStreamExact) {
    const bool compact = GetParam();
    CoarseAdjacencyList cal(/*group_size=*/8, /*block_edges=*/4);
    // Model: live CAL entries keyed by a synthetic id we track through the
    // Moved notifications.
    struct Entry {
        VertexId src;
        VertexId dst;
        Weight weight;
    };
    std::unordered_map<std::uint32_t, Entry> live;  // pos -> entry
    Rng rng(compact ? 1 : 2);
    for (int op = 0; op < 20000; ++op) {
        if (live.empty() || rng.next_below(10) < 6) {
            const auto dense = static_cast<VertexId>(rng.next_below(64));
            // Unique weight per insertion so the Moved re-keying below can
            // identify the relocated entry unambiguously.
            const Entry e{dense * 1000,
                          static_cast<VertexId>(rng.next_below(100)),
                          static_cast<Weight>(op + 1)};
            const auto pos =
                append(cal, dense, e.src, e.dst, e.weight, CellRef{0, 0});
            ASSERT_FALSE(live.contains(pos)) << "pos reuse while occupied";
            live.emplace(pos, e);
        } else {
            // Erase a random live position.
            auto it = live.begin();
            std::advance(it, static_cast<long>(
                                 rng.next_below(live.size())));
            const auto pos = it->first;
            live.erase(it);
            if (const auto moved = cal.erase(pos, compact)) {
                // A tail entry moved into the hole; re-key the model.
                const auto old_it = live.find(moved->new_pos);
                // new_pos == pos always here, and the moved entry came from
                // somewhere else — find it by scanning (model is small).
                ASSERT_EQ(moved->new_pos, pos);
                std::optional<std::uint32_t> source;
                const auto slot = cal.slot_at(pos);
                for (const auto& [p, e] : live) {
                    if (p != pos && e.src == slot.src && e.dst == slot.dst &&
                        e.weight == slot.weight) {
                        source = p;
                        break;
                    }
                }
                ASSERT_TRUE(source.has_value()) << "moved entry untracked";
                live.emplace(pos, live.at(*source));
                live.erase(*source);
                (void)old_it;
            }
        }
        ASSERT_EQ(cal.live_edges(), live.size());
    }
    // Stream audit: multiset equality with the model.
    std::multiset<std::tuple<VertexId, VertexId, Weight>> want;
    for (const auto& [pos, e] : live) {
        want.emplace(e.src, e.dst, e.weight);
    }
    std::multiset<std::tuple<VertexId, VertexId, Weight>> got;
    cal.visit_edges([&](VertexId s, VertexId d, Weight w) {
        got.emplace(s, d, w);
    });
    EXPECT_EQ(got, want);
    if (compact) {
        EXPECT_EQ(cal.scanned_slots(), live.size())
            << "compact mode must not accumulate holes";
    }
}

TEST_P(CalFuzzTest, RandomBatchErasesKeepOwnersBound) {
    // Random batches of holes through erase_batch, with its relocations
    // applied in order to a model of the owner cells' CAL pointers: every
    // surviving owner must end bound to a slot that names it back.
    const bool compact = GetParam();
    CoarseAdjacencyList cal(/*group_size=*/4, /*block_edges=*/4);
    std::unordered_map<std::uint32_t, std::uint32_t> pos_of;  // owner -> pos
    Rng rng(compact ? 3 : 4);
    std::uint32_t next_owner = 0;
    for (int round = 0; round < 300; ++round) {
        const auto inserts = rng.next_below(40);
        for (std::uint64_t i = 0; i < inserts; ++i) {
            const auto dense = static_cast<VertexId>(rng.next_below(32));
            const std::uint32_t owner = next_owner++;
            pos_of[owner] =
                append(cal, dense, dense, owner, 1, CellRef{owner, 0});
        }
        std::vector<std::uint32_t> holes;
        for (auto it = pos_of.begin(); it != pos_of.end();) {
            if (rng.next_below(3) == 0) {
                holes.push_back(it->second);
                it = pos_of.erase(it);
            } else {
                ++it;
            }
        }
        std::vector<CoarseAdjacencyList::Moved> moved(holes.size());
        const std::size_t n = cal.erase_batch(holes, compact, moved);
        for (std::size_t i = 0; i < n; ++i) {
            pos_of[moved[i].owner.block] = moved[i].new_pos;
        }
        ASSERT_EQ(cal.live_edges(), pos_of.size());
        for (const auto& [owner, pos] : pos_of) {
            const auto slot = cal.slot_at(pos);
            ASSERT_TRUE(slot.valid) << "owner " << owner;
            ASSERT_EQ(slot.owner.block, owner);
            ASSERT_EQ(slot.dst, owner);
        }
        if (compact) {
            ASSERT_EQ(cal.scanned_slots(), pos_of.size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, CalFuzzTest, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "compact" : "delete_only";
                         });

TEST(CalEraseEdgeCases, TailSelfEraseEmitsNoMove) {
    // Erasing the group's tail edge with compact=true is a self-move: the
    // victim IS the slot the tail would relocate into. No Moved may be
    // emitted — a caller re-binding through it would point an owner cell at
    // the slot this erase just vacated.
    CoarseAdjacencyList cal(/*group_size=*/8, /*block_edges=*/4);
    std::vector<std::uint32_t> pos;
    for (VertexId i = 0; i < 3; ++i) {
        pos.push_back(append(cal, 0, 7, 100 + i, i + 1, CellRef{0, 0}));
    }
    // Tail first: nothing to relocate.
    EXPECT_FALSE(cal.erase(pos[2], /*compact=*/true).has_value());
    EXPECT_EQ(cal.live_edges(), 2u);
    EXPECT_EQ(cal.scanned_slots(), 2u);

    // Middle next: the new tail (pos[1]) slides into the hole and the Moved
    // notification points at the vacated position.
    const auto moved = cal.erase(pos[0], /*compact=*/true);
    ASSERT_TRUE(moved.has_value());
    EXPECT_EQ(moved->new_pos, pos[0]);
    EXPECT_EQ(cal.slot_at(pos[0]).dst, 101u);
    EXPECT_EQ(cal.live_edges(), 1u);

    // Down to one edge; erasing it is again a pure self-move.
    EXPECT_FALSE(cal.erase(pos[0], /*compact=*/true).has_value());
    EXPECT_EQ(cal.live_edges(), 0u);
    EXPECT_EQ(cal.scanned_slots(), 0u);
}

TEST(CalEraseEdgeCases, DrainedTailBlocksReturnToFreeList) {
    CoarseAdjacencyList cal(/*group_size=*/8, /*block_edges=*/4);
    std::vector<std::uint32_t> pos;
    for (VertexId i = 0; i < 9; ++i) {  // 3 blocks of 4
        pos.push_back(append(cal, 0, 7, i, i + 1, CellRef{0, 0}));
    }
    const std::size_t peak_blocks = cal.blocks_in_use();
    ASSERT_EQ(peak_blocks, 3u);
    const std::size_t peak_bytes = cal.memory_bytes();

    // Compact-erase from the tail end: every fourth erase drains a block.
    for (std::size_t i = pos.size(); i-- > 4;) {
        EXPECT_FALSE(cal.erase(pos[i], /*compact=*/true).has_value());
    }
    EXPECT_EQ(cal.blocks_in_use(), 1u);
    EXPECT_LT(cal.memory_bytes(), peak_bytes);
    EXPECT_EQ(cal.memory_capacity_bytes() >= peak_bytes, true);

    // Refill: the free-listed blocks are recycled, capacity does not grow.
    const std::size_t capacity = cal.memory_capacity_bytes();
    for (VertexId i = 0; i < 5; ++i) {
        append(cal, 0, 7, 50 + i, i + 1, CellRef{0, 0});
    }
    EXPECT_EQ(cal.blocks_in_use(), peak_blocks);
    EXPECT_EQ(cal.memory_capacity_bytes(), capacity);
}

TEST(CalEraseEdgeCases, GraphLevelTailDeleteKeepsOwnersCoherent) {
    // Through the full stack: in compact mode, deleting the most recently
    // inserted edge of a source hits the CAL tail self-move path; the audit
    // verifies every surviving owner <-> slot pointer pair afterwards.
    Config cfg;
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "tail_delete");
    for (VertexId dst = 0; dst < 20; ++dst) {
        (void)g.insert_edge(4, dst, dst + 1);
    }
    // Delete newest-first: every delete is the group-tail self-move case.
    for (VertexId dst = 20; dst-- > 10;) {
        ASSERT_TRUE(g.delete_edge(4, dst));
        audit.check();
    }
    // And oldest-first: every delete relocates the tail and re-binds.
    for (VertexId dst = 0; dst < 10; ++dst) {
        ASSERT_TRUE(g.delete_edge(4, dst));
        audit.check();
    }
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(SghStress, MillionsOfLookupsStayConsistent) {
    ScatterGatherHash sgh;
    Rng rng(9);
    std::unordered_map<VertexId, VertexId> model;
    for (int i = 0; i < 200000; ++i) {
        const auto raw = static_cast<VertexId>(rng.next_below(1u << 28));
        const VertexId dense = sgh.get_or_assign(raw);
        auto [it, fresh] = model.emplace(raw, dense);
        if (!fresh) {
            ASSERT_EQ(it->second, dense) << "remap of raw " << raw;
        } else {
            ASSERT_EQ(dense, model.size() - 1) << "dense ids must be serial";
        }
        ASSERT_EQ(sgh.raw_of(dense), raw);
    }
    EXPECT_EQ(sgh.size(), model.size());
    EXPECT_GT(sgh.memory_bytes(), 0u);
}

TEST(GraphTinkerCombo, LargePagewidthSmallGraph) {
    Config cfg;
    cfg.pagewidth = 4096;
    cfg.subblock = 64;
    cfg.workblock = 16;
    GraphTinker g(cfg);
    (void)g.insert_edge(1, 2, 3);
    EXPECT_EQ(g.find_edge(1, 2), std::optional<Weight>(3));
    EXPECT_TRUE(g.audit().ok()) << g.audit().to_string();
    // Iteration over a nearly-empty giant block stays correct (occupancy
    // masks skip the slack).
    int count = 0;
    g.visit_out_edges(1, [&](VertexId, Weight) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(GraphTinkerCombo, EngineOverBidirectionalStore) {
    // The bidirectional wrapper satisfies the store concept, so the hybrid
    // engine runs over it directly (forward direction).
    BidirectionalGraphTinker g;
    const auto edges = engine::symmetrize(rmat_edges(150, 1500, 31));
    g.insert_batch(edges);
    engine::DynamicAnalysis<BidirectionalGraphTinker, engine::Bfs> bfs(g);
    bfs.set_root(0);
    bfs.run_from_scratch();
    const engine::CsrSnapshot csr(edges, g.num_vertices());
    const auto want = engine::reference_bfs(csr, 0);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want[v]) << v;
    }
}

TEST(GraphTinkerCombo, MixedFeatureChurnStaysValid) {
    // Every feature combination under one churny workload, validated deeply.
    for (const bool sgh : {true, false}) {
        for (const bool cal : {true, false}) {
            for (const auto mode : {DeletionMode::DeleteOnly,
                                    DeletionMode::DeleteAndCompact}) {
                Config cfg;
                cfg.enable_sgh = sgh;
                cfg.enable_cal = cal;
                cfg.deletion_mode = mode;
                GraphTinker g(cfg);
                const auto inserts = rmat_edges(120, 2500, 7);
                (void)g.insert_batch(inserts);
                for (std::size_t i = 0; i < inserts.size(); i += 2) {
                    (void)g.delete_edge(inserts[i].src, inserts[i].dst);
                }
                (void)g.insert_batch(rmat_edges(120, 500, 8));
                ASSERT_TRUE(g.audit().ok())
                    << "sgh=" << sgh << " cal=" << cal
                    << " compact=" << (mode == DeletionMode::DeleteAndCompact)
                    << ": " << g.audit().to_string();
            }
        }
    }
}

TEST(StingerExtra, InDegreeTracksBothDirections) {
    gt::stinger::Stinger s;
    (void)s.insert_edge(1, 5);
    (void)s.insert_edge(2, 5);
    (void)s.insert_edge(5, 1);
    EXPECT_EQ(s.in_degree(5), 2u);
    EXPECT_EQ(s.in_degree(1), 1u);
    EXPECT_EQ(s.in_degree(2), 0u);
    (void)s.delete_edge(1, 5);
    EXPECT_EQ(s.in_degree(5), 1u);
    // Duplicate insert must not double-count.
    (void)s.insert_edge(2, 5, 9);
    EXPECT_EQ(s.in_degree(5), 1u);
    EXPECT_GT(s.memory_bytes(), 0u);
}

}  // namespace
}  // namespace gt::core

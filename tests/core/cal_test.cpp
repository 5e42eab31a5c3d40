// Tests for the Coarse Adjacency List: chain management, O(1) updates via
// CAL positions, compaction semantics and owner backreferences.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/cal.hpp"

namespace gt::core {
namespace {

CellRef ref(std::uint32_t b, std::uint32_t s) { return CellRef{b, s}; }

/// Appends through the CAL's one append path, resolving the group per call.
std::uint32_t append(CoarseAdjacencyList& cal, VertexId dense_src,
                     VertexId raw_src, VertexId dst, Weight weight,
                     CellRef owner) {
    return cal.appender(dense_src).append(raw_src, dst, weight, owner);
}

TEST(Cal, InsertAndStream) {
    CoarseAdjacencyList cal(/*group_size=*/4, /*block_edges=*/2);
    append(cal, /*dense_src=*/0, /*raw_src=*/100, /*dst=*/1, /*weight=*/7,
           ref(0, 0));
    append(cal, 1, 200, 2, 8, ref(0, 1));
    std::multiset<std::tuple<VertexId, VertexId, Weight>> seen;
    cal.visit_edges([&](VertexId s, VertexId d, Weight w) {
        seen.emplace(s, d, w);
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen.contains({100, 1, 7}));
    EXPECT_TRUE(seen.contains({200, 2, 8}));
    EXPECT_EQ(cal.live_edges(), 2u);
}

TEST(Cal, VerticesOfSameGroupShareBlocks) {
    CoarseAdjacencyList cal(4, 8);
    // dense 0..3 are group 0: their edges pack into one block.
    for (VertexId v = 0; v < 4; ++v) {
        append(cal, v, v + 50, 1, 1, ref(v, 0));
    }
    EXPECT_EQ(cal.blocks_in_use(), 1u);
    // dense 4 starts group 1 -> a second block.
    append(cal, 4, 99, 1, 1, ref(4, 0));
    EXPECT_EQ(cal.blocks_in_use(), 2u);
}

TEST(Cal, ChainsGrowBlockByBlock) {
    CoarseAdjacencyList cal(1024, 2);
    for (std::uint32_t i = 0; i < 7; ++i) {
        append(cal, 0, 0, i, 1, ref(0, i));
    }
    EXPECT_EQ(cal.blocks_in_use(), 4u);  // ceil(7/2)
    std::size_t count = 0;
    cal.visit_edges([&](VertexId, VertexId, Weight) { ++count; });
    EXPECT_EQ(count, 7u);
}

TEST(Cal, DeleteOnlyLeavesScannedHoles) {
    CoarseAdjacencyList cal(1024, 4);
    const auto p0 = append(cal, 0, 0, 10, 1, ref(0, 0));
    const auto p1 = append(cal, 0, 0, 11, 1, ref(0, 1));
    append(cal, 0, 0, 12, 1, ref(0, 2));
    EXPECT_FALSE(cal.erase(p1, /*compact=*/false).has_value());
    EXPECT_EQ(cal.live_edges(), 2u);
    EXPECT_EQ(cal.scanned_slots(), 3u);  // hole still scanned
    std::set<VertexId> dsts;
    cal.visit_edges([&](VertexId, VertexId d, Weight) { dsts.insert(d); });
    EXPECT_EQ(dsts, (std::set<VertexId>{10, 12}));
    // Other slots unaffected.
    EXPECT_TRUE(cal.slot_at(p0).valid);
    EXPECT_FALSE(cal.slot_at(p1).valid);
}

TEST(Cal, CompactEraseMovesTailIntoHole) {
    CoarseAdjacencyList cal(1024, 4);
    const auto p0 = append(cal, 0, 0, 10, 1, ref(7, 0));
    append(cal, 0, 0, 11, 1, ref(7, 1));
    const auto p2 = append(cal, 0, 0, 12, 1, ref(7, 2));
    const auto moved = cal.erase(p0, /*compact=*/true);
    ASSERT_TRUE(moved.has_value());
    EXPECT_EQ(moved->new_pos, p0);  // tail edge now lives in the hole
    EXPECT_EQ(moved->owner.block, 7u);
    EXPECT_EQ(moved->owner.slot, 2u);  // it was dst=12's copy
    const auto slot = cal.slot_at(p0);
    EXPECT_TRUE(slot.valid);
    EXPECT_EQ(slot.dst, 12u);
    EXPECT_FALSE(cal.slot_at(p2).valid);  // old tail slot vacated
    EXPECT_EQ(cal.live_edges(), 2u);
    EXPECT_EQ(cal.scanned_slots(), 2u);  // compaction keeps scan tight
}

TEST(Cal, CompactEraseOfTailNeedsNoMove) {
    CoarseAdjacencyList cal(1024, 4);
    append(cal, 0, 0, 10, 1, ref(0, 0));
    const auto p1 = append(cal, 0, 0, 11, 1, ref(0, 1));
    EXPECT_FALSE(cal.erase(p1, true).has_value());
    EXPECT_EQ(cal.live_edges(), 1u);
}

TEST(Cal, CompactEraseFreesEmptiedBlocks) {
    CoarseAdjacencyList cal(1024, 2);
    std::vector<std::uint32_t> pos;
    for (std::uint32_t i = 0; i < 6; ++i) {
        pos.push_back(append(cal, 0, 0, i, 1, ref(0, i)));
    }
    EXPECT_EQ(cal.blocks_in_use(), 3u);
    for (std::uint32_t i = 0; i < 6; ++i) {
        // Always erase position 0: tail edges keep moving forward.
        const auto slot = cal.slot_at(pos[0]);
        if (!slot.valid) {
            break;
        }
        cal.erase(pos[0], true);
    }
    EXPECT_EQ(cal.live_edges(), 0u);
    EXPECT_EQ(cal.blocks_in_use(), 0u);
    // Freed blocks are recycled.
    append(cal, 0, 0, 42, 1, ref(0, 0));
    EXPECT_EQ(cal.blocks_in_use(), 1u);
}

TEST(Cal, CompactionIsGroupLocal) {
    CoarseAdjacencyList cal(/*group_size=*/1, 4);
    const auto g0 = append(cal, 0, 0, 10, 1, ref(0, 0));
    append(cal, 1, 1, 20, 1, ref(1, 0));
    const auto moved = cal.erase(g0, true);
    // Group 1's edge must not migrate into group 0's hole.
    EXPECT_FALSE(moved.has_value());
    std::multiset<VertexId> srcs;
    cal.visit_edges([&](VertexId s, VertexId, Weight) { srcs.insert(s); });
    EXPECT_EQ(srcs, (std::multiset<VertexId>{1}));
}

TEST(Cal, BatchEraseDropsTailHolesInsteadOfMoving) {
    CoarseAdjacencyList cal(1024, 4);
    std::vector<std::uint32_t> pos;
    for (std::uint32_t i = 0; i < 10; ++i) {  // 3 blocks: 4 + 4 + 2
        pos.push_back(append(cal, 0, 0, i, 1, ref(0, i)));
    }
    // Filling pos[1] first drops the holes at pos[9] and pos[8], which are
    // then skipped, and moves dst 7; pos[3] takes dst 6.
    const std::vector<std::uint32_t> holes{pos[1], pos[8], pos[9], pos[3]};
    std::vector<CoarseAdjacencyList::Moved> moved(holes.size());
    ASSERT_EQ(cal.erase_batch(holes, /*compact=*/true, moved), 2u);
    EXPECT_EQ(moved[0].new_pos, pos[1]);
    EXPECT_EQ(moved[0].owner.slot, 7u);
    EXPECT_EQ(moved[1].new_pos, pos[3]);
    EXPECT_EQ(moved[1].owner.slot, 6u);
    EXPECT_EQ(cal.live_edges(), 6u);
    EXPECT_EQ(cal.scanned_slots(), 6u);
    EXPECT_EQ(cal.blocks_in_use(), 2u);  // the emptied tail block is freed
    std::set<VertexId> dsts;
    cal.visit_edges([&](VertexId, VertexId d, Weight) { dsts.insert(d); });
    EXPECT_EQ(dsts, (std::set<VertexId>{0, 2, 4, 5, 6, 7}));
}

TEST(Cal, BatchEraseReportsEveryRelocationInOrder) {
    // The tail edge fills the later hole first and then, having become the
    // tail again, the earlier one: both moves are reported, the last final.
    CoarseAdjacencyList cal(1024, 4);
    std::vector<std::uint32_t> pos;
    for (std::uint32_t i = 0; i < 4; ++i) {
        pos.push_back(append(cal, 0, 0, i, 1, ref(0, i)));
    }
    const std::vector<std::uint32_t> holes{pos[2], pos[1]};
    std::vector<CoarseAdjacencyList::Moved> moved(holes.size());
    ASSERT_EQ(cal.erase_batch(holes, /*compact=*/true, moved), 2u);
    EXPECT_EQ(moved[0].owner.slot, 3u);
    EXPECT_EQ(moved[0].new_pos, pos[2]);
    EXPECT_EQ(moved[1].owner.slot, 3u);
    EXPECT_EQ(moved[1].new_pos, pos[1]);
    EXPECT_EQ(cal.slot_at(pos[1]).dst, 3u);
    EXPECT_EQ(cal.scanned_slots(), 2u);
}

TEST(Cal, UpdateWeightInPlace) {
    CoarseAdjacencyList cal(1024, 4);
    const auto p = append(cal, 0, 5, 6, 1, ref(0, 0));
    cal.update_weight(p, 77);
    EXPECT_EQ(cal.slot_at(p).weight, 77u);
}

TEST(Cal, RebindUpdatesOwner) {
    CoarseAdjacencyList cal(1024, 4);
    const auto p = append(cal, 0, 5, 6, 1, ref(0, 0));
    cal.rebind(p, ref(9, 3));
    EXPECT_EQ(cal.slot_at(p).owner.block, 9u);
    EXPECT_EQ(cal.slot_at(p).owner.slot, 3u);
}

TEST(Cal, StreamsGroupsInDenseOrder) {
    // Group-major iteration: group 0's edges stream before group 1's
    // regardless of interleaved insertion, because chains are per group.
    CoarseAdjacencyList cal(/*group_size=*/2, 4);
    append(cal, 4, 400, 1, 1, ref(0, 0));  // group 2
    append(cal, 0, 100, 2, 1, ref(0, 1));  // group 0
    append(cal, 5, 500, 3, 1, ref(0, 2));  // group 2
    std::vector<VertexId> order;
    cal.visit_edges([&](VertexId s, VertexId, Weight) {
        order.push_back(s);
    });
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 100u);
    EXPECT_EQ(order[1], 400u);
    EXPECT_EQ(order[2], 500u);
}

}  // namespace
}  // namespace gt::core

#include <gtest/gtest.h>

#include <set>

#include "core/sgh.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

TEST(Sgh, AssignsDenseIdsInStreamOrder) {
    ScatterGatherHash sgh;
    // The paper: "obtaining the next unused index location ... starting
    // from zero".
    EXPECT_EQ(sgh.get_or_assign(34), 0u);
    EXPECT_EQ(sgh.get_or_assign(22789), 1u);
    EXPECT_EQ(sgh.get_or_assign(7), 2u);
    EXPECT_EQ(sgh.size(), 3u);
}

TEST(Sgh, RepeatLookupsAreStable) {
    ScatterGatherHash sgh;
    const VertexId a = sgh.get_or_assign(1000);
    const VertexId b = sgh.get_or_assign(2000);
    EXPECT_EQ(sgh.get_or_assign(1000), a);
    EXPECT_EQ(sgh.get_or_assign(2000), b);
    EXPECT_EQ(sgh.size(), 2u);
}

TEST(Sgh, LookupWithoutAssignment) {
    ScatterGatherHash sgh;
    EXPECT_FALSE(sgh.lookup(5).has_value());
    sgh.get_or_assign(5);
    ASSERT_TRUE(sgh.lookup(5).has_value());
    EXPECT_EQ(*sgh.lookup(5), 0u);
    EXPECT_EQ(sgh.size(), 1u);  // lookup never assigns
    EXPECT_FALSE(sgh.lookup(6).has_value());
}

TEST(Sgh, ReverseMappingRoundTrips) {
    ScatterGatherHash sgh;
    Rng rng(3);
    std::set<VertexId> raws;
    while (raws.size() < 5000) {
        raws.insert(static_cast<VertexId>(rng.next_below(1u << 30)));
    }
    for (VertexId raw : raws) {
        const VertexId dense = sgh.get_or_assign(raw);
        EXPECT_EQ(sgh.raw_of(dense), raw);
    }
    EXPECT_EQ(sgh.size(), raws.size());
    // Dense space is exactly [0, size): a bijection.
    std::set<VertexId> denses;
    for (VertexId raw : raws) {
        denses.insert(*sgh.lookup(raw));
    }
    EXPECT_EQ(denses.size(), raws.size());
    EXPECT_EQ(*denses.begin(), 0u);
    EXPECT_EQ(*denses.rbegin(), static_cast<VertexId>(raws.size() - 1));
}

TEST(Sgh, ReleasedIdsAreReusedLastInFirstOut) {
    ScatterGatherHash sgh;
    for (VertexId raw : {10u, 20u, 30u, 40u}) {
        (void)sgh.get_or_assign(raw);
    }
    sgh.prepare_release();
    sgh.release(*sgh.lookup(20));  // dense 1
    sgh.prepare_release();
    sgh.release(*sgh.lookup(40));  // dense 3
    EXPECT_FALSE(sgh.lookup(20).has_value());
    EXPECT_FALSE(sgh.lookup(40).has_value());
    EXPECT_EQ(sgh.raw_of(1), kInvalidVertex);
    EXPECT_EQ(sgh.size(), 2u);
    EXPECT_EQ(sgh.span(), 4u);
    EXPECT_EQ(sgh.free_ids(), 2u);

    // New sources pop the most recently freed id before the span grows,
    // and a returning source is just another new one.
    EXPECT_EQ(sgh.get_or_assign(50), 3u);
    EXPECT_EQ(sgh.get_or_assign(20), 1u);
    EXPECT_EQ(sgh.get_or_assign(60), 4u);
    EXPECT_EQ(sgh.raw_of(3), 50u);
    EXPECT_EQ(sgh.raw_of(1), 20u);
    EXPECT_EQ(sgh.size(), 5u);
    EXPECT_EQ(sgh.span(), 5u);
    EXPECT_EQ(sgh.free_ids(), 0u);
}

TEST(Sgh, SpanTracksPeakLiveSourcesUnderChurn) {
    // A sliding set of 100 live sources over ever-new raw ids: the span
    // never exceeds the peak live count however many sources stream by.
    ScatterGatherHash sgh;
    constexpr VertexId kLive = 100;
    for (VertexId raw = 0; raw < 20 * kLive; ++raw) {
        if (raw >= kLive) {
            sgh.prepare_release();
            sgh.release(*sgh.lookup(raw - kLive));
        }
        const VertexId dense = sgh.get_or_assign(raw);
        ASSERT_LT(dense, kLive);
        ASSERT_EQ(sgh.raw_of(dense), raw);
    }
    EXPECT_EQ(sgh.span(), kLive);
    EXPECT_EQ(sgh.size(), kLive);
}

TEST(Sgh, InvalidVertexIsNeverMapped) {
    ScatterGatherHash sgh;
    (void)sgh.get_or_assign(1);
    EXPECT_FALSE(sgh.lookup(kInvalidVertex).has_value());
}

}  // namespace
}  // namespace gt::core

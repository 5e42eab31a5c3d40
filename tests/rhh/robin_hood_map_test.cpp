// Unit + property tests for the Robin Hood hash map substrate.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "rhh/robin_hood_map.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

TEST(RobinHoodMap, InsertAndFind) {
    RobinHoodMap<std::uint32_t, int> map;
    EXPECT_TRUE(map.insert(1, 10));
    EXPECT_TRUE(map.insert(2, 20));
    ASSERT_NE(map.find(1), nullptr);
    EXPECT_EQ(*map.find(1), 10);
    ASSERT_NE(map.find(2), nullptr);
    EXPECT_EQ(*map.find(2), 20);
    EXPECT_EQ(map.find(3), nullptr);
    EXPECT_EQ(map.size(), 2u);
}

TEST(RobinHoodMap, InsertOverwrites) {
    RobinHoodMap<std::uint32_t, int> map;
    EXPECT_TRUE(map.insert(7, 1));
    EXPECT_FALSE(map.insert(7, 2));  // overwrite, not a new key
    EXPECT_EQ(*map.find(7), 2);
    EXPECT_EQ(map.size(), 1u);
}

TEST(RobinHoodMap, EraseReturnsValue) {
    RobinHoodMap<std::uint32_t, int> map;
    (void)map.insert(5, 50);
    const auto removed = map.erase(5);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(*removed, 50);
    EXPECT_EQ(map.find(5), nullptr);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.erase(5).has_value());
}

TEST(RobinHoodMap, GrowsPastInitialCapacity) {
    RobinHoodMap<std::uint32_t, std::uint32_t> map(16);
    for (std::uint32_t k = 0; k < 10000; ++k) {
        (void)map.insert(k, k * 2);
    }
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint32_t k = 0; k < 10000; ++k) {
        ASSERT_NE(map.find(k), nullptr) << k;
        EXPECT_EQ(*map.find(k), k * 2);
    }
}

TEST(RobinHoodMap, ProbeDistanceStaysSmallAtLoad) {
    // The Robin Hood property: bounded displacement even near max load.
    RobinHoodMap<std::uint32_t, int> map;
    for (std::uint32_t k = 0; k < 50000; ++k) {
        (void)map.insert(k * 2654435761u, 0);  // adversarially regular keys
    }
    EXPECT_LT(map.mean_probe_distance(), 3.0);
    EXPECT_LT(map.max_probe_distance(), 48u);
}

TEST(RobinHoodMap, ForEachVisitsEverything) {
    RobinHoodMap<std::uint32_t, std::uint32_t> map;
    for (std::uint32_t k = 100; k < 200; ++k) {
        (void)map.insert(k, k + 1);
    }
    std::unordered_map<std::uint32_t, std::uint32_t> seen;
    map.for_each([&](std::uint32_t k, std::uint32_t v) { seen[k] = v; });
    EXPECT_EQ(seen.size(), 100u);
    for (std::uint32_t k = 100; k < 200; ++k) {
        EXPECT_EQ(seen.at(k), k + 1);
    }
}

TEST(RobinHoodMap, ClearEmptiesAndRemainsUsable) {
    RobinHoodMap<std::uint32_t, int> map;
    for (std::uint32_t k = 0; k < 100; ++k) {
        (void)map.insert(k, 1);
    }
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(5), nullptr);
    EXPECT_TRUE(map.insert(5, 9));
    EXPECT_EQ(*map.find(5), 9);
}

TEST(RobinHoodMap, BackwardShiftKeepsClusterFindable) {
    // Insert colliding keys, erase from the middle of the cluster, and
    // verify every survivor remains reachable (the classic tombstone bug).
    RobinHoodMap<std::uint64_t, int> map(16);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 12; ++k) {
        keys.push_back(k);
        (void)map.insert(k, static_cast<int>(k));
    }
    map.erase(5);
    map.erase(6);
    for (std::uint64_t k : keys) {
        if (k == 5 || k == 6) {
            EXPECT_EQ(map.find(k), nullptr);
        } else {
            ASSERT_NE(map.find(k), nullptr) << k;
            EXPECT_EQ(*map.find(k), static_cast<int>(k));
        }
    }
}

// ---- randomized model check over several scales ------------------------

class RobinHoodModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RobinHoodModelTest, MatchesUnorderedMapUnderRandomOps) {
    using Map = RobinHoodMap<std::uint32_t, std::uint32_t>;
    const std::size_t universe = GetParam();
    Map map;
    std::unordered_map<std::uint32_t, std::uint32_t> model;
    Rng rng(universe);
    // 20k ops of a 50/30/20 insert/find/erase mix, then 20k erase-heavy
    // ones: phases that fill toward the growth point alternate with phases
    // that drain, so backward shifts run through long clusters, and half
    // their keys are the largest storable ones, right below the reserved
    // key that marks an empty slot.
    for (int op = 0; op < 40000; ++op) {
        const bool churn = op >= 20000;
        const std::uint64_t r = rng.next_below(universe);
        const auto key =
            churn && (r & 1) != 0
                ? static_cast<std::uint32_t>(Map::kEmptyKey - 1 - (r >> 1) % 64)
                : static_cast<std::uint32_t>(churn ? r >> 1 : r);
        const auto roll = rng.next_below(10);
        const std::uint64_t inserts = !churn ? 5 : (op / 2000) % 2 ? 2 : 6;
        const std::uint64_t finds = churn ? 0 : 3;
        if (roll < inserts) {
            const auto value = static_cast<std::uint32_t>(rng.next());
            (void)map.insert(key, value);
            model[key] = value;
        } else if (roll < inserts + finds) {
            const auto got = map.find(key);
            const auto it = model.find(key);
            if (it == model.end()) {
                EXPECT_EQ(got, nullptr);
            } else {
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(*got, it->second);
            }
        } else {
            const auto removed = map.erase(key);
            const auto it = model.find(key);
            EXPECT_EQ(removed.has_value(), it != model.end());
            if (it != model.end()) {
                EXPECT_EQ(*removed, it->second);
                model.erase(it);
            }
        }
        ASSERT_EQ(map.size(), model.size());
        ASSERT_EQ(map.find(Map::kEmptyKey), nullptr);
        if (op % 997 == 0 || op == 19999) {
            for (const auto& [k, v] : model) {
                ASSERT_NE(map.find(k), nullptr) << k;
                ASSERT_EQ(*map.find(k), v);
            }
        }
    }
    // Final full audit, both directions.
    for (const auto& [k, v] : model) {
        ASSERT_NE(map.find(k), nullptr);
        EXPECT_EQ(*map.find(k), v);
    }
    std::size_t visited = 0;
    map.for_each([&](std::uint32_t k, std::uint32_t v) {
        EXPECT_EQ(model.at(k), v);
        ++visited;
    });
    EXPECT_EQ(visited, model.size());
    EXPECT_LT(map.max_probe_distance(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Universes, RobinHoodModelTest,
                         ::testing::Values(16, 256, 4096, 100000));

TEST(RobinHoodMap, SlotIsJustKeyAndValue) {
    // The empty marker is a reserved key and the displacement is derived
    // from the hash, so a u32 -> u32 map pays 8 bytes per slot.
    RobinHoodMap<std::uint32_t, std::uint32_t> map(1024);
    EXPECT_EQ(map.memory_bytes(), map.capacity() * 8);
}

TEST(RobinHoodMap, ReservedKeyIsNeverStoredOrFound) {
    using Map = RobinHoodMap<std::uint32_t, std::uint32_t>;
    Map map;
    EXPECT_THROW((void)map.insert(Map::kEmptyKey, 1), std::invalid_argument);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
    EXPECT_FALSE(map.erase(Map::kEmptyKey).has_value());
    (void)map.insert(Map::kEmptyKey - 1, 7);  // the largest storable key
    EXPECT_EQ(*map.find(Map::kEmptyKey - 1), 7u);
    EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
}

}  // namespace
}  // namespace gt

// LineAllocator: line-aligned operator new below 2 MiB, 2 MiB-aligned
// huge-page mappings from 2 MiB up (operator new for every size under
// ASan), and the store containers built on it across the threshold.
#include "util/line_alloc.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "rhh/robin_hood_map.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

bool aligned_to(const void* p, std::size_t alignment) {
    return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

/// True when every page of [p, p + bytes) is mapped.
bool is_mapped(const void* p, std::size_t bytes) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> residency((bytes + page - 1) / page);
    return ::mincore(const_cast<void*>(p), bytes, residency.data()) == 0;
}

TEST(LineAlloc, LargeRequestsAreHugePageAlignedAndFreeCleanly) {
    LineAllocator<std::uint64_t> alloc;
    for (const std::size_t bytes :
         {kHugePage, kHugePage + 8, 3 * kHugePage + 4096}) {
        const std::size_t n = bytes / sizeof(std::uint64_t);
        std::uint64_t* p = alloc.allocate(n);
        ASSERT_NE(p, nullptr);
        for (std::size_t i = 0; i < n; i += 512) {
            p[i] = i;
        }
        p[n - 1] = n;
        EXPECT_EQ(p[512], 512u);
        EXPECT_EQ(p[n - 1], n);
        if (!detail::kMapHugeArrays) {
            // ASan build: every size stays on operator new.
            EXPECT_TRUE(aligned_to(p, kCacheLine)) << bytes;
            alloc.deallocate(p, n);
            continue;
        }
        EXPECT_TRUE(aligned_to(p, kHugePage)) << bytes;
        const std::size_t mapped = detail::huge_round(bytes);
        EXPECT_TRUE(is_mapped(p, mapped)) << bytes;
        alloc.deallocate(p, n);
        // The whole rounded mapping is gone: mincore reports it unmapped.
        errno = 0;
        EXPECT_FALSE(is_mapped(p, mapped)) << bytes;
        EXPECT_EQ(errno, ENOMEM) << bytes;
    }
}

TEST(LineAlloc, SmallRequestsAreLineAligned) {
    LineAllocator<std::uint8_t> alloc;
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{4096}, kHugePage - 1}) {
        std::uint8_t* p = alloc.allocate(n);
        EXPECT_TRUE(aligned_to(p, kCacheLine)) << n;
        p[0] = 1;
        p[n - 1] = 2;
        alloc.deallocate(p, n);
    }
}

TEST(LineAlloc, VectorKeepsAlignmentAcrossTheThresholdBothWays) {
    // 1 KiB up past 8 MiB one push at a time, then back below 2 MiB: every
    // buffer the vector moves into starts on a line, and the contents
    // survive each move.
    LineVector<std::uint32_t> v(256);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
        v[i] = i;
    }
    const std::uint32_t* seen = v.data();
    std::size_t moves = 0;
    std::size_t huge_moves = 0;
    while (v.size() * sizeof(std::uint32_t) <= (std::size_t{8} << 20)) {
        v.push_back(static_cast<std::uint32_t>(v.size()));
        if (v.data() == seen) {
            continue;
        }
        seen = v.data();
        ++moves;
        ASSERT_TRUE(aligned_to(seen, kCacheLine)) << v.capacity();
        if (detail::maps_huge(v.capacity() * sizeof(std::uint32_t))) {
            ++huge_moves;
            ASSERT_TRUE(aligned_to(seen, kHugePage)) << v.capacity();
        }
    }
    EXPECT_GT(moves, 10u);
    if (detail::kMapHugeArrays) {
        EXPECT_GE(huge_moves, 2u);
    }
    for (std::uint32_t i = 0; i < v.size(); i += 4099) {
        ASSERT_EQ(v[i], i);
    }
    v.resize(100'000);  // 400 KB, below the threshold
    v.shrink_to_fit();
    EXPECT_LT(v.capacity() * sizeof(std::uint32_t), kHugePage);
    EXPECT_TRUE(aligned_to(v.data(), kCacheLine));
    for (std::uint32_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(v[i], i);
    }
}

TEST(LineAlloc, RobinHoodMapMatchesModelAcrossTheThreshold) {
    // 2^18 slots of 8 B are 2 MiB: growing past them moves the slot table
    // onto a huge-page mapping, and erasing back leaves it there.
    RobinHoodMap<std::uint32_t, std::uint32_t> map;
    std::unordered_map<std::uint32_t, std::uint32_t> model;
    Rng rng(25);
    const auto check = [&] {
        ASSERT_EQ(map.size(), model.size());
        for (const auto& [k, v] : model) {
            const std::uint32_t* found = map.find(k);
            ASSERT_NE(found, nullptr) << k;
            ASSERT_EQ(*found, v) << k;
        }
    };
    std::vector<std::uint32_t> keys;
    while (map.capacity() <= (std::size_t{1} << 18)) {
        const auto k = static_cast<std::uint32_t>(rng.next_below(1U << 30));
        const auto v = static_cast<std::uint32_t>(rng.next());
        const bool fresh = !model.contains(k);
        ASSERT_EQ(map.insert(k, v), fresh);
        model[k] = v;
        if (fresh) {
            keys.push_back(k);
        }
    }
    EXPECT_GE(map.memory_bytes(), 2 * kHugePage);
    check();
    // Erase in random order down to a few hundred keys, re-checking as the
    // table thins out.
    for (std::size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_below(i)]);
    }
    while (keys.size() > 300) {
        const std::uint32_t k = keys.back();
        keys.pop_back();
        const auto erased = map.erase(k);
        ASSERT_TRUE(erased.has_value()) << k;
        ASSERT_EQ(*erased, model.at(k));
        model.erase(k);
        ASSERT_FALSE(map.contains(k));
        if (keys.size() % 50'000 == 0) {
            check();
        }
    }
    check();
}

/// The THPeligible field of the /proc/self/smaps entry covering `p`, or
/// the empty string when no entry covers it.
std::string thp_eligible(const void* p) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool inside = false;
    while (std::getline(smaps, line)) {
        std::uintptr_t lo = 0;
        std::uintptr_t hi = 0;
        char dash = 0;
        std::istringstream head(line);
        if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
            inside = lo <= addr && addr < hi;
            continue;
        }
        if (inside && line.rfind("THPeligible:", 0) == 0) {
            std::istringstream field(line.substr(12));
            std::string value;
            field >> value;
            return value;
        }
    }
    return "";
}

TEST(LineAlloc, LargeVectorMappingIsHugePageEligible) {
    if (!detail::kMapHugeArrays) {
        GTEST_SKIP() << "ASan build: large arrays stay on operator new";
    }
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string setting;
    std::getline(thp, setting);
    if (!thp || setting.find("[never]") != std::string::npos) {
        GTEST_SKIP() << "transparent huge pages are off: '" << setting << "'";
    }
    LineVector<std::uint64_t> v((std::size_t{4} << 20) / sizeof(std::uint64_t),
                                1);
    EXPECT_EQ(thp_eligible(v.data()), "1");
}

}  // namespace
}  // namespace gt

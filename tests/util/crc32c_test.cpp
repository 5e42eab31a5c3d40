// CRC32C kernels agree: the SSE4.2 hardware kernel against the slice-by-8
// reference, over every short length at every alignment, a large buffer,
// chained extends at random split points, and the standard known answers.
// The hardware half skips on CPUs (or targets) without SSE4.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace gt::util {
namespace {

using Kernel = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<unsigned char> out(n);
    for (unsigned char& b : out) {
        b = static_cast<unsigned char>(rng.next());
    }
    return out;
}

std::uint32_t one_shot(Kernel k, const void* data, std::size_t len) {
    return k(0xFFFFFFFFU, data, len) ^ 0xFFFFFFFFU;
}

/// The hardware kernel, or nullptr when this CPU or target lacks it.
Kernel hardware_kernel() {
#if GT_CRC32C_HW
    if (crc32c_hardware()) {
        return &crc32c_extend_sse42;
    }
#endif
    return nullptr;
}

void expect_known_answers(Kernel k) {
    // The canonical CRC-32C check value: crc("123456789").
    const char digits[] = "123456789";
    EXPECT_EQ(one_shot(k, digits, 9), 0xE3069283U);
    // The iSCSI all-zero 32-byte vector (RFC 3720 B.4).
    const unsigned char zeros[32] = {};
    EXPECT_EQ(one_shot(k, zeros, sizeof(zeros)), 0x8A9136AAU);
}

TEST(Crc32c, SliceBy8KnownAnswers) {
    expect_known_answers(&crc32c_extend_slice8);
}

TEST(Crc32c, HardwareKnownAnswers) {
    const Kernel hw = hardware_kernel();
    if (hw == nullptr) {
        GTEST_SKIP() << "no SSE4.2 crc32 instruction";
    }
    expect_known_answers(hw);
}

TEST(Crc32c, HardwareMatchesSliceBy8AtEveryLengthAndOffset) {
    const Kernel hw = hardware_kernel();
    if (hw == nullptr) {
        GTEST_SKIP() << "no SSE4.2 crc32 instruction";
    }
    const auto buf = random_bytes(256 + 8, 1);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 256; ++len) {
            const unsigned char* p = buf.data() + off;
            ASSERT_EQ(hw(0xFFFFFFFFU, p, len),
                      crc32c_extend_slice8(0xFFFFFFFFU, p, len))
                << "offset " << off << " length " << len;
        }
    }
    const auto big = random_bytes(std::size_t{1} << 20, 2);
    EXPECT_EQ(one_shot(hw, big.data(), big.size()),
              one_shot(&crc32c_extend_slice8, big.data(), big.size()));
}

TEST(Crc32c, ChainedExtendsEqualOneShot) {
    const auto buf = random_bytes(std::size_t{1} << 16, 3);
    std::vector<Kernel> kernels{&crc32c_extend_slice8, &crc32c_extend};
    if (const Kernel hw = hardware_kernel()) {
        kernels.push_back(hw);
    }
    Rng rng(4);
    for (const Kernel k : kernels) {
        const std::uint32_t whole = one_shot(k, buf.data(), buf.size());
        for (int trial = 0; trial < 50; ++trial) {
            std::uint32_t crc = 0xFFFFFFFFU;
            std::size_t at = 0;
            while (at < buf.size()) {
                const std::size_t step = std::min<std::size_t>(
                    rng.next_below(600), buf.size() - at);
                crc = k(crc, buf.data() + at, step);
                at += step;
            }
            ASSERT_EQ(crc ^ 0xFFFFFFFFU, whole) << "trial " << trial;
        }
    }
    EXPECT_EQ(crc32c(buf.data(), buf.size()),
              one_shot(&crc32c_extend_slice8, buf.data(), buf.size()));
}

}  // namespace
}  // namespace gt::util

// Portable SIMD primitives for the probe kernels.
//
// The only vector operation the EdgeblockArray needs is "which of these N
// strided 32-bit keys equal the needle?" — an edge-cell is {dst, weight}, so
// the destination ids of a subblock sit 8 bytes apart (sizeof(EdgeCell)) and
// a default 8-cell window is exactly one 64-byte cache line. The probe
// kernel wants them compared 4 at a time into a bitmask it can combine with
// the occupancy masks. SSE2 (x86-64 baseline) and NEON (aarch64 baseline)
// variants are provided behind the GT_SIMD compile toggle; every build also
// compiles the scalar reference so tests can diff the two and non-SIMD
// targets keep working unchanged.
#pragma once

#include <cstdint>
#include <cstring>

#if defined(GT_SIMD) && GT_SIMD
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define GT_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define GT_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace gt::simd {

/// True when this build selects a vector implementation for the probe
/// kernels (GT_SIMD enabled *and* the target has SSE2/NEON).
#if defined(GT_SIMD_SSE2) || defined(GT_SIMD_NEON)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// The prefetch wrappers are always inlined: a call GCC has not inlined yet
// looks side-effect free to it, and it may delete such a call as dead.

/// Issues a best-effort read prefetch for the cache line holding `addr`.
[[gnu::always_inline]] inline void prefetch(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr, 0 /*read*/, 3 /*high locality*/);
#else
    (void)addr;
#endif
}

/// Write-intent variant: fetches the line in an exclusive coherence state,
/// for targets about to be modified (e.g. an edge-cell an insert will fill).
[[gnu::always_inline]] inline void prefetch_write(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr, 1 /*write*/, 3 /*high locality*/);
#else
    (void)addr;
#endif
}

/// Scalar reference: bit i of the result is set when the 32-bit key at byte
/// offset i*8 from `first_key` equals `needle`. `count` <= 64. Reads exactly
/// `count` keys.
[[nodiscard]] inline std::uint64_t match_u32_stride8_scalar(
    const void* first_key, std::uint32_t count, std::uint32_t needle) noexcept {
    const auto* p = static_cast<const unsigned char*>(first_key);
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t key;
        std::memcpy(&key, p + static_cast<std::size_t>(i) * 8, sizeof(key));
        mask |= static_cast<std::uint64_t>(key == needle) << i;
    }
    return mask;
}

/// Vector variant of match_u32_stride8_scalar: compares 4 keys (32 bytes)
/// per step — SSE2 gathers the even lanes of two loads, NEON de-interleaves
/// with vld2q. There is no scalar tail: a `count` that is not a multiple of
/// 4 still reads the whole last group, so the buffer must stay readable
/// through key round_up(count, 4) - 1 (the EdgeblockArray pads each arena by
/// a cache line for exactly this). Bits at or above `count` are cleared, so
/// the result agrees bit-for-bit with the scalar reference. Falls back to
/// the scalar reference when no vector ISA is selected.
[[nodiscard]] inline std::uint64_t match_u32_stride8_simd(
    const void* first_key, std::uint32_t count, std::uint32_t needle) noexcept {
#if defined(GT_SIMD_SSE2)
    const auto* p = static_cast<const unsigned char*>(first_key);
    const __m128i vneedle = _mm_set1_epi32(static_cast<int>(needle));
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < count; i += 4) {
        const unsigned char* q = p + static_cast<std::size_t>(i) * 8;
        // Two cells per load: lanes 0 and 2 are the keys.
        const __m128 a = _mm_castsi128_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
        const __m128 b = _mm_castsi128_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 16)));
        const __m128 keys = _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
        const __m128i eq = _mm_cmpeq_epi32(_mm_castps_si128(keys), vneedle);
        mask |= static_cast<std::uint64_t>(
                    _mm_movemask_ps(_mm_castsi128_ps(eq)))
                << i;
    }
    return count >= 64 ? mask : mask & ((1ULL << count) - 1);
#elif defined(GT_SIMD_NEON)
    const auto* p = static_cast<const unsigned char*>(first_key);
    const uint32x4_t vneedle = vdupq_n_u32(needle);
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < count; i += 4) {
        // vld2q de-interleaves 32 bytes with a 2-word stride: val[0] holds
        // the words at byte offsets 0/8/16/24 — exactly the four keys.
        const uint32x4x2_t cells =
            vld2q_u32(reinterpret_cast<const std::uint32_t*>(
                p + static_cast<std::size_t>(i) * 8));
        const uint32x4_t eq = vceqq_u32(cells.val[0], vneedle);
        const uint16x4_t narrowed = vmovn_u32(eq);
        const std::uint64_t lanes =
            vget_lane_u64(vreinterpret_u64_u16(narrowed), 0);
        const std::uint64_t bits = (lanes & 0x1ULL) | ((lanes >> 15) & 0x2ULL) |
                                   ((lanes >> 30) & 0x4ULL) |
                                   ((lanes >> 45) & 0x8ULL);
        mask |= bits << i;
    }
    return count >= 64 ? mask : mask & ((1ULL << count) - 1);
#else
    return match_u32_stride8_scalar(first_key, count, needle);
#endif
}

}  // namespace gt::simd

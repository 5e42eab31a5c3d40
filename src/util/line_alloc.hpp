// Cache-line-aligned vector storage, on huge pages once it is large.
//
// glibc hands back large buffers 16 bytes past a 64-byte boundary, so an
// array of 64-byte records laid out from data() straddles two lines per
// record. LineVector<T> is a std::vector whose buffer always starts on a
// cache-line boundary — on every reallocation too, so growth keeps the
// alignment. Every array that grows with a store lives in one: the
// EdgeblockArray arenas, the CAL pool and block table, the SGH slots and
// reverse table, and the per-source records.
//
// A buffer of at least kHugePage bytes is mapped on its own instead:
// 2 MiB-aligned, rounded up to whole 2 MiB, and advised MADV_HUGEPAGE, so
// with transparent huge pages enabled one TLB entry covers 2 MiB of a store
// array instead of 4 KiB and a random line rarely costs a page walk. The
// advice is only advice: under THP `never` the mapping keeps 4 KiB pages.
// The route depends on the byte count alone, so deallocate(p, n) always
// undoes what allocate(n) did. Under AddressSanitizer every size stays on
// operator new, so ASan's redzones keep guarding reads past an array's end
// (the EdgeblockArray's SIMD over-read pad, for one).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace gt {

/// Cache-line size the arena layout is shaped for.
inline constexpr std::size_t kCacheLine = 64;
/// Requests of at least this many bytes are mapped on 2 MiB huge pages.
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

namespace detail {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kMapHugeArrays = false;
#else
inline constexpr bool kMapHugeArrays = true;
#endif

/// True when a request of `bytes` takes the huge-page mapping.
[[nodiscard]] constexpr bool maps_huge(std::size_t bytes) noexcept {
    return kMapHugeArrays && bytes >= kHugePage;
}

/// `bytes` rounded up to whole huge pages.
[[nodiscard]] constexpr std::size_t huge_round(std::size_t bytes) noexcept {
    return (bytes + kHugePage - 1) & ~(kHugePage - 1);
}

/// Maps `bytes` rounded up to whole huge pages, at kHugePage alignment,
/// and advises huge pages. Throws std::bad_alloc when the kernel refuses.
[[nodiscard]] inline void* map_huge(std::size_t bytes) {
    if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePage) {
        throw std::bad_alloc();
    }
    bytes = huge_round(bytes);
    // Over-map by one huge page, then trim the unaligned head and the tail.
    const std::size_t span = bytes + kHugePage;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
        throw std::bad_alloc();
    }
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start = huge_round(base);
    if (start != base) {
        ::munmap(raw, start - base);
    }
    const std::size_t tail = base + span - (start + bytes);
    if (tail != 0) {
        ::munmap(reinterpret_cast<void*>(start + bytes), tail);
    }
    void* p = reinterpret_cast<void*>(start);
    (void)::madvise(p, bytes, MADV_HUGEPAGE);  // advice only: may be refused
    return p;
}

/// Unmaps what map_huge(bytes) mapped.
inline void unmap_huge(void* p, std::size_t bytes) noexcept {
    ::munmap(p, huge_round(bytes));
}

}  // namespace detail

/// Stateless allocator returning kCacheLine-aligned storage, huge-page
/// mapped from kHugePage bytes up (see the file comment).
template <typename T>
struct LineAllocator {
    using value_type = T;

    LineAllocator() noexcept = default;
    template <typename U>
    explicit LineAllocator(const LineAllocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
        if (detail::maps_huge(bytes)) {
            return static_cast<T*>(detail::map_huge(bytes));
        }
        return static_cast<T*>(
            ::operator new(bytes, std::align_val_t{kCacheLine}));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        const std::size_t bytes = n * sizeof(T);
        if (detail::maps_huge(bytes)) {
            detail::unmap_huge(p, bytes);
            return;
        }
        ::operator delete(p, bytes, std::align_val_t{kCacheLine});
    }

    friend bool operator==(const LineAllocator&,
                           const LineAllocator&) noexcept {
        return true;
    }
};

template <typename T>
using LineVector = std::vector<T, LineAllocator<T>>;

}  // namespace gt

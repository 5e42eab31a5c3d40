// Cache-line-aligned vector storage.
//
// glibc hands back large buffers 16 bytes past a 64-byte boundary, so an
// array of 64-byte records laid out from data() straddles two lines per
// record. LineVector<T> is a std::vector whose buffer always starts on a
// cache-line boundary — on every reallocation too, so growth keeps the
// alignment. The EdgeblockArray keeps all of its per-block arrays in these.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace gt {

/// Cache-line size the arena layout is shaped for.
inline constexpr std::size_t kCacheLine = 64;

/// Stateless allocator returning kCacheLine-aligned storage.
template <typename T>
struct LineAllocator {
    using value_type = T;

    LineAllocator() noexcept = default;
    template <typename U>
    explicit LineAllocator(const LineAllocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        ::operator delete(p, n * sizeof(T), std::align_val_t{kCacheLine});
    }

    friend bool operator==(const LineAllocator&,
                           const LineAllocator&) noexcept {
        return true;
    }
};

template <typename T>
using LineVector = std::vector<T, LineAllocator<T>>;

}  // namespace gt

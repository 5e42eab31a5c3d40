// A standalone Robin Hood open-addressing hash map.
//
// This is the hashing substrate of the paper (§III.A): on collision, the
// incoming element competes with the resident by probe distance — the
// "richer" element (smaller displacement from its home bucket) yields the
// slot and the displaced element continues probing. The result is a tight
// upper bound on probe distance and very stable lookup cost at high load.
//
// A slot is just {key, value}: an empty slot holds the reserved key
// (the key type's maximum), and a resident's displacement is recomputed
// from its hash instead of being stored, so a u32 -> u32 map costs 8 bytes
// per slot.
//
// GraphTinker uses this map for the Scatter-Gather Hashing table (raw source
// id -> dense hashed id), and the benchmark suite measures it in isolation
// (bench/micro_rhh).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hpp"
#include "util/line_alloc.hpp"
#include "util/simd.hpp"

namespace gt {

/// Robin Hood map from a 32/64-bit integral key to an arbitrary value.
/// Deletion uses backward-shift, so no tombstones ever accumulate and the
/// probe-distance invariant is preserved across any operation mix.
template <typename Key, typename Value>
class RobinHoodMap {
    static_assert(std::is_integral_v<Key>, "RobinHoodMap keys are integers");

public:
    /// Marks an empty slot, so it can never be stored: insert() rejects it
    /// and find()/erase() report it absent.
    static constexpr Key kEmptyKey = std::numeric_limits<Key>::max();

    explicit RobinHoodMap(std::size_t initial_capacity = 16) {
        rehash(round_up(initial_capacity));
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
    /// Bytes held by the slot table.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slots_.size() * sizeof(Slot);
    }

    /// Inserts key->value or overwrites the existing mapping.
    /// Returns true when the key was newly inserted. Throws
    /// std::invalid_argument for kEmptyKey; a failed table growth leaves
    /// the map unchanged.
    [[nodiscard]] bool insert(Key key, Value value) {
        if (key == kEmptyKey) {
            throw std::invalid_argument(
                "RobinHoodMap: the reserved empty key cannot be stored");
        }
        if ((size_ + 1) * 10 >= capacity() * 7) {  // load factor 0.7
            rehash(capacity() * 2);
        }
        return insert_no_grow(key, std::move(value));
    }

    /// Looks up a key; nullptr when absent.
    [[nodiscard]] const Value* find(Key key) const noexcept {
        const std::size_t pos = locate(key);
        return pos == kAbsent ? nullptr : &slots_[pos].value;
    }

    [[nodiscard]] Value* find(Key key) noexcept {
        return const_cast<Value*>(std::as_const(*this).find(key));
    }

    [[nodiscard]] bool contains(Key key) const noexcept {
        return find(key) != nullptr;
    }

    /// Warms the home bucket of `key` ahead of a find/insert — callers that
    /// know their next lookups (e.g. the batched ingest resolving a sorted
    /// source list) overlap the bucket miss with useful work.
    void prefetch(Key key) const noexcept {
        gt::simd::prefetch(&slots_[home(key)]);
    }

    /// Removes a key via backward-shift; returns the removed value if any.
    std::optional<Value> erase(Key key) {
        const std::size_t pos = locate(key);
        if (pos == kAbsent) {
            return std::nullopt;
        }
        std::optional<Value> out = std::move(slots_[pos].value);
        backward_shift(pos);
        --size_;
        return out;
    }

    /// Maximum displacement of any resident element (diagnostics).
    [[nodiscard]] std::uint32_t max_probe_distance() const noexcept {
        std::uint32_t max = 0;
        for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
            if (slots_[pos].key != kEmptyKey) {
                max = std::max(max, displacement(pos, slots_[pos].key));
            }
        }
        return max;
    }

    /// Mean displacement of resident elements (diagnostics).
    [[nodiscard]] double mean_probe_distance() const noexcept {
        if (size_ == 0) {
            return 0.0;
        }
        std::uint64_t total = 0;
        for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
            if (slots_[pos].key != kEmptyKey) {
                total += displacement(pos, slots_[pos].key);
            }
        }
        return static_cast<double>(total) / static_cast<double>(size_);
    }

    /// Visits every (key, value) pair in unspecified order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& slot : slots_) {
            if (slot.key != kEmptyKey) {
                fn(slot.key, slot.value);
            }
        }
    }

    void clear() {
        for (Slot& slot : slots_) {
            slot = Slot{};
        }
        size_ = 0;
    }

private:
    struct Slot {
        Key key = kEmptyKey;
        Value value{};
    };

    static constexpr std::size_t kAbsent =
        std::numeric_limits<std::size_t>::max();

    static std::size_t round_up(std::size_t n) {
        std::size_t p = 16;
        while (p < n) {
            p <<= 1;
        }
        return p;
    }

    [[nodiscard]] std::size_t home(Key key) const noexcept {
        return static_cast<std::size_t>(
                   mix64(static_cast<std::uint64_t>(key))) &
               (capacity() - 1);
    }

    /// How far the resident `key` at `pos` sits from its home bucket.
    [[nodiscard]] std::uint32_t displacement(std::size_t pos,
                                             Key key) const noexcept {
        return static_cast<std::uint32_t>((pos - home(key)) &
                                          (capacity() - 1));
    }

    /// Slot index holding `key`, or kAbsent.
    [[nodiscard]] std::size_t locate(Key key) const noexcept {
        if (key == kEmptyKey) {
            return kAbsent;
        }
        const std::size_t mask = capacity() - 1;
        std::size_t pos = home(key);
        for (std::uint32_t dist = 0;; ++dist, pos = (pos + 1) & mask) {
            const Key resident = slots_[pos].key;
            if (resident == key) {
                return pos;
            }
            if (resident == kEmptyKey || displacement(pos, resident) < dist) {
                // Robin Hood invariant: if this element were present it would
                // have displaced a richer resident by now.
                return kAbsent;
            }
        }
    }

    bool insert_no_grow(Key key, Value value) {
        const std::size_t mask = capacity() - 1;
        std::size_t pos = home(key);
        for (std::uint32_t dist = 0;; pos = (pos + 1) & mask, ++dist) {
            Slot& slot = slots_[pos];
            if (slot.key == kEmptyKey) {
                slot.key = key;
                slot.value = std::move(value);
                ++size_;
                return true;
            }
            if (slot.key == key) {
                // Only reachable before the first swap below: after it the
                // floater is a resident, and resident keys are unique.
                slot.value = std::move(value);  // overwrite semantics
                return false;
            }
            const std::uint32_t resident = displacement(pos, slot.key);
            if (resident < dist) {
                // Rob the rich: swap the floater with the resident.
                std::swap(slot.key, key);
                std::swap(slot.value, value);
                dist = resident;
            }
        }
    }

    void backward_shift(std::size_t hole) {
        const std::size_t mask = capacity() - 1;
        for (;;) {
            const std::size_t next = (hole + 1) & mask;
            Slot& successor = slots_[next];
            if (successor.key == kEmptyKey ||
                displacement(next, successor.key) == 0) {
                slots_[hole] = Slot{};
                return;
            }
            slots_[hole] = std::move(successor);
            hole = next;
        }
    }

    void rehash(std::size_t new_capacity) {
        // Allocate first: a failed allocation leaves the current table.
        LineVector<Slot> old(new_capacity);
        old.swap(slots_);
        size_ = 0;
        for (Slot& slot : old) {
            if (slot.key != kEmptyKey) {
                insert_no_grow(slot.key, std::move(slot.value));
            }
        }
    }

    LineVector<Slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace gt

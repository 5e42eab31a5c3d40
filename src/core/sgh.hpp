// Scatter-Gather Hashing unit (paper §III.B).
//
// Maps raw source-vertex ids onto a dense id space. The dense id is the
// index of the vertex's top-parent edgeblock, so full scans of the structure
// touch only vertices that actually own edges — the first of GraphTinker's
// two compaction levels. A source whose tree empties is unmapped and its
// dense id goes on a LIFO free list that the next new source pops before
// the span grows, so under churn the span tracks the sources live at once,
// not every source ever streamed.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "rhh/robin_hood_map.hpp"
#include "util/line_alloc.hpp"
#include "util/types.hpp"

namespace gt::core {

class ScatterGatherHash {
public:
    explicit ScatterGatherHash(std::size_t expected_vertices = 16)
        : map_(expected_vertices * 2) {
        dense_to_raw_.reserve(expected_vertices);
        // Room for one release before any pre-flight ran: a source mapped
        // by a call that then fails is released by that call's unwind, and
        // get_or_assign either popped its id (leaving room) or found the
        // list empty.
        free_.reserve(kMinFreeCapacity);
    }

    /// Returns the dense id for `raw`, assigning one when the id is not
    /// mapped: the most recently freed id, else the next unused index.
    /// Precondition: raw != kInvalidVertex (the map's reserved key). A
    /// failed growth leaves the mapping unchanged.
    VertexId get_or_assign(VertexId raw) {
        if (const VertexId* dense = map_.find(raw)) {
            return *dense;
        }
        const bool reuse = !free_.empty();
        const VertexId dense =
            reuse ? free_.back() : static_cast<VertexId>(dense_to_raw_.size());
        if (!reuse && dense_to_raw_.size() == dense_to_raw_.capacity()) {
            dense_to_raw_.reserve(
                std::max<std::size_t>(16, 2 * dense_to_raw_.capacity()));
        }
        // find() above just proved the key absent, so this always creates.
        (void)map_.insert(raw, dense);
        if (reuse) {
            free_.pop_back();
            dense_to_raw_[dense] = raw;
        } else {
            dense_to_raw_.push_back(raw);  // capacity reserved above
        }
        return dense;
    }

    /// Warms the map bucket `raw` hashes to, ahead of get_or_assign/lookup.
    void prefetch(VertexId raw) const noexcept { map_.prefetch(raw); }

    /// Lookup without assignment; empty when the vertex is not mapped.
    [[nodiscard]] std::optional<VertexId> lookup(VertexId raw) const {
        if (const VertexId* dense = map_.find(raw)) {
            return *dense;
        }
        return std::nullopt;
    }

    /// Reverse mapping (dense -> raw); kInvalidVertex for a free id.
    /// Precondition: dense < span().
    [[nodiscard]] VertexId raw_of(VertexId dense) const {
        return dense_to_raw_[dense];
    }

    /// Free-list pre-flight: makes sure the next release() has room, so the
    /// release itself never allocates. Call it before the first mutation of
    /// any operation that may empty a tree.
    void prepare_release() {
        if (free_.size() == free_.capacity()) {
            free_.reserve(std::max(kMinFreeCapacity, 2 * free_.capacity()));
        }
    }

    /// Unmaps the source holding `dense` and pushes the id on the free list.
    /// Precondition: `dense` is mapped, and prepare_release() ran since the
    /// last release (or the id was assigned since then).
    void release(VertexId dense) noexcept {
        (void)map_.erase(dense_to_raw_[dense]);
        dense_to_raw_[dense] = kInvalidVertex;
        free_.push_back(dense);  // capacity reserved by prepare_release()
    }

    /// Sources currently mapped.
    [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
    /// Dense ids handed out: the mapped ones plus the free-listed ones.
    [[nodiscard]] std::size_t span() const noexcept {
        return dense_to_raw_.size();
    }
    /// Dense ids waiting on the free list.
    [[nodiscard]] std::size_t free_ids() const noexcept { return free_.size(); }

    /// Bytes held by the forward map, the reverse table and the free list.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return map_.memory_bytes() + (dense_to_raw_.capacity() +
                                      free_.capacity()) * sizeof(VertexId);
    }

private:
    static constexpr std::size_t kMinFreeCapacity = 16;

    RobinHoodMap<VertexId, VertexId> map_;
    LineVector<VertexId> dense_to_raw_;
    std::vector<VertexId> free_;  // LIFO: the next assignment pops back()

    // Structural auditor + test-only corruption hook (core/audit.hpp).
    friend class Auditor;
    friend class CorruptionInjector;
};

}  // namespace gt::core

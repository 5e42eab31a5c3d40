// VertexPropertyArray (paper §III.B): the main region, one record per dense
// (hashed) source id — the handle of the source's top-parent edgeblock and
// its live out-degree, side by side, so an update reads both from one line.
// SGH's reverse table holds each dense id's raw id.
#pragma once

#include <cstdint>

#include "core/edgeblock_array.hpp"
#include "util/line_alloc.hpp"
#include "util/types.hpp"

namespace gt::core {

struct VertexProperty {
    std::uint32_t top = EdgeblockArray::kNoBlock;  // top-parent block handle
    std::uint32_t degree = 0;                      // live out-edges
};
static_assert(sizeof(VertexProperty) == 8, "a main-region record is 8 B");

class VertexPropertyArray {
public:
    /// Grows to cover `dense` and returns the entry.
    VertexProperty& ensure(VertexId dense) {
        if (dense >= props_.size()) {
            props_.resize(static_cast<std::size_t>(dense) + 1);
        }
        return props_[dense];
    }

    [[nodiscard]] const VertexProperty& operator[](VertexId dense) const {
        return props_[dense];
    }
    [[nodiscard]] VertexProperty& operator[](VertexId dense) {
        return props_[dense];
    }

    /// Capacity for `n` entries, so ensure() below `n` never allocates.
    void reserve(std::size_t n) { props_.reserve(n); }

    [[nodiscard]] std::size_t size() const noexcept { return props_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return props_.capacity();
    }

private:
    LineVector<VertexProperty> props_;
};

}  // namespace gt::core

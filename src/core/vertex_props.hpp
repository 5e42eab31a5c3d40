// VertexPropertyArray (paper §III.B): per-vertex metadata indexed by the
// dense (hashed) source id — the live out-degree. SGH's reverse table holds
// each dense id's raw id.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace gt::core {

struct VertexProperty {
    std::uint32_t degree = 0;  // live out-edges
};

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

    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return props_.size() * sizeof(VertexProperty);
    }

private:
    std::vector<VertexProperty> props_;
};

}  // namespace gt::core

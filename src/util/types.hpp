// Fundamental value types shared by every GraphTinker module.
#pragma once

#include <cstdint>
#include <limits>

namespace gt {

/// Vertex identifier. 32 bits covers every dataset in the paper (max 2^21
/// vertices) with plenty of headroom while keeping edge records compact.
using VertexId = std::uint32_t;

/// Edge weight. The paper's SSSP experiments use weighted edges; BFS/CC
/// ignore the weight.
using Weight = std::uint32_t;

/// Count of edges; graphs in the evaluation reach 182M edges, so 64 bits.
using EdgeCount = std::uint64_t;

/// Sentinel for "no vertex" / "unassigned slot".
inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// Sentinel for infinite distance in SSSP/BFS properties.
inline constexpr std::uint32_t kInfDistance = std::numeric_limits<std::uint32_t>::max();

/// A directed edge as it appears in an update stream.
struct Edge {
    VertexId src = kInvalidVertex;
    VertexId dst = kInvalidVertex;
    Weight weight = 1;

    friend bool operator==(const Edge&, const Edge&) = default;
};

}  // namespace gt

// Bidirectional GraphTinker: a forward store plus a reverse-edge mirror.
//
// The paper's engine is edge-centric and push-only (out-edges). Its stated
// future work is the vertex-centric model, whose pull-style Gather phase
// needs *in*-edges. This wrapper maintains two GraphTinker instances — one
// per direction — under a single update API, giving O(log degree) access to
// both adjacency directions at twice the update cost.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"

namespace gt::core {

class BidirectionalGraphTinker {
public:
    explicit BidirectionalGraphTinker(Config config = {})
        : forward_(config), reverse_(config) {}

    BidirectionalGraphTinker(const BidirectionalGraphTinker&) = delete;
    BidirectionalGraphTinker& operator=(const BidirectionalGraphTinker&) =
        delete;

    /// Inserts (src, dst, weight) and its reverse mirror.
    [[nodiscard]] bool insert_edge(VertexId src, VertexId dst,
                                   Weight weight = 1) {
        const bool fresh = forward_.insert_edge(src, dst, weight);
        // The mirror repeats the forward outcome; nothing new to learn.
        (void)reverse_.insert_edge(dst, src, weight);
        return fresh;
    }

    [[nodiscard]] bool delete_edge(VertexId src, VertexId dst) {
        const bool existed = forward_.delete_edge(src, dst);
        (void)reverse_.delete_edge(dst, src);
        return existed;
    }

    void insert_batch(std::span<const Edge> batch) {
        for (const Edge& e : batch) {
            (void)insert_edge(e.src, e.dst, e.weight);
        }
    }

    void delete_batch(std::span<const Edge> batch) {
        for (const Edge& e : batch) {
            (void)delete_edge(e.src, e.dst);
        }
    }

    // ---- store concept (forward direction) -----------------------------

    [[nodiscard]] std::optional<Weight> find_edge(VertexId src,
                                                  VertexId dst) const {
        return forward_.find_edge(src, dst);
    }
    [[nodiscard]] EdgeCount num_edges() const noexcept {
        return forward_.num_edges();
    }
    [[nodiscard]] VertexId num_vertices() const noexcept {
        return forward_.num_vertices();
    }
    [[nodiscard]] std::uint32_t degree(VertexId v) const {
        return forward_.degree(v);
    }
    /// In-degree comes from the mirror for free.
    [[nodiscard]] std::uint32_t in_degree(VertexId v) const {
        return reverse_.degree(v);
    }

    template <typename Fn>
    bool visit_out_edges(VertexId src, Fn&& fn) const {
        return forward_.visit_out_edges(src, fn);
    }
    /// Visits every in-edge of `dst`: fn(src, weight); void- or
    /// bool-returning as everywhere in the visit_* API.
    template <typename Fn>
    bool visit_in_edges(VertexId dst, Fn&& fn) const {
        return reverse_.visit_out_edges(dst, fn);
    }
    template <typename Fn>
    bool visit_edges(Fn&& fn) const {
        return forward_.visit_edges(fn);
    }

    [[nodiscard]] const GraphTinker& forward() const noexcept {
        return forward_;
    }
    [[nodiscard]] const GraphTinker& reverse() const noexcept {
        return reverse_;
    }

    /// Cross-validates both directions: every forward edge must have its
    /// mirror and vice versa. Empty string when consistent.
    [[nodiscard]] std::string validate() const {
        if (const AuditReport report = forward_.audit(); !report.ok()) {
            return "forward: " + report.to_string();
        }
        if (const AuditReport report = reverse_.audit(); !report.ok()) {
            return "reverse: " + report.to_string();
        }
        if (forward_.num_edges() != reverse_.num_edges()) {
            return "direction edge counts diverge";
        }
        std::string error;
        forward_.visit_edges([&](VertexId s, VertexId d, Weight w) {
            if (!error.empty()) {
                return;
            }
            const auto mirrored = reverse_.find_edge(d, s);
            if (!mirrored || *mirrored != w) {
                error = "missing mirror for (" + std::to_string(s) + "," +
                        std::to_string(d) + ")";
            }
        });
        return error;
    }

private:
    GraphTinker forward_;
    GraphTinker reverse_;
};

}  // namespace gt::core

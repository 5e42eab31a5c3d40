// TSan race-stress for the supported read-concurrency contract: once a
// GraphTinker instance is quiescent, any number of threads may run FIND,
// out-edge traversal, full-edge streaming and even the deep auditor against
// it simultaneously. This directly exercises the two const-path mutations
// that must be race-free by construction — the relaxed-atomic Stats counters
// bumped by every FIND and the thread-local traversal scratch used by
// visit_edges_of.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

Config stress_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 8;
    cfg.workblock = 4;
    return cfg;
}

std::vector<Edge> stress_edges(std::uint32_t vertices, std::uint32_t count,
                               std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Edge> edges;
    edges.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        edges.push_back({static_cast<VertexId>(rng.next_below(vertices)),
                         static_cast<VertexId>(rng.next_below(vertices * 4)),
                         static_cast<Weight>(1 + i % 200)});
    }
    return edges;
}

TEST(ConcurrentRead, ParallelFindersAgreeOnEveryEdge) {
    GraphTinker g(stress_config());
    const auto edges = stress_edges(64, 1500, 3);
    for (const Edge& e : edges) {
        (void)g.insert_edge(e.src, e.dst, e.weight);
    }

    constexpr int kThreads = 4;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread sweeps the whole edge list from a different offset
            // so FIND walks (and their stats counters) overlap constantly.
            const std::size_t start = edges.size() / kThreads * t;
            for (std::size_t i = 0; i < edges.size(); ++i) {
                const Edge& e = edges[(start + i) % edges.size()];
                if (!g.find_edge(e.src, e.dst).has_value()) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
                hits.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(hits.load(), static_cast<std::uint64_t>(kThreads) * edges.size());
    // The shared stats counters absorbed every probe without losing updates
    // being a correctness property; merely assert they moved.
    EXPECT_GT(g.obs().counter("eba.cells_probed").value(), 0u);
}

TEST(ConcurrentRead, MixedTraversalFindAndAudit) {
    GraphTinker g(stress_config());
    const auto edges = stress_edges(48, 1200, 11);
    for (const Edge& e : edges) {
        (void)g.insert_edge(e.src, e.dst, e.weight);
    }
    const EdgeCount expect_edges = g.num_edges();

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;

    // Two traversal threads: per-vertex out-edge walks using the (formerly
    // shared, now thread-local) visit stack.
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            for (int round = 0; round < 30; ++round) {
                EdgeCount seen = 0;
                for (VertexId src = 0; src < 48; ++src) {
                    g.visit_out_edges(src,
                                        [&](VertexId, Weight) { ++seen; });
                }
                if (seen != expect_edges) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }
    // One full-stream thread: CAL-backed visit_edges.
    threads.emplace_back([&] {
        for (int round = 0; round < 30; ++round) {
            EdgeCount seen = 0;
            g.visit_edges([&](VertexId, VertexId, Weight) { ++seen; });
            if (seen != expect_edges) {
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    });
    // One FIND thread hammering point lookups.
    threads.emplace_back([&] {
        for (int round = 0; round < 10; ++round) {
            for (const Edge& e : edges) {
                if (!g.find_edge(e.src, e.dst).has_value()) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    });
    // One auditor thread: the deep audit is documented read-only and safe
    // alongside other readers.
    threads.emplace_back([&] {
        for (int round = 0; round < 5; ++round) {
            if (!Auditor::run(g).ok()) {
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    });

    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(failed.load());
}

TEST(ConcurrentRead, EbaFallbackStreamIsThreadSafe) {
    // With CAL disabled, visit_edges falls back to the EdgeblockArray
    // sweep, which leans on the thread-local visit stack from every thread.
    Config cfg = stress_config();
    cfg.enable_cal = false;
    GraphTinker g(cfg);
    const auto edges = stress_edges(40, 900, 17);
    for (const Edge& e : edges) {
        (void)g.insert_edge(e.src, e.dst, e.weight);
    }
    const EdgeCount expect_edges = g.num_edges();

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int round = 0; round < 20; ++round) {
                EdgeCount seen = 0;
                g.visit_edges([&](VertexId, VertexId, Weight) { ++seen; });
                if (seen != expect_edges) {
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace gt::core

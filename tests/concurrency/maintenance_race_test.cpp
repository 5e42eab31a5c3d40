// TSan race-stress for the *locked* mutation concurrency contract.
//
// GraphTinker itself is single-writer: maintenance, inserts and deletes may
// never run concurrently with anything. What makes them safe to interleave
// across threads is the lock discipline documented in DESIGN.md §12 — an
// annotated gt::SharedMutex where every mutator (writer batches AND
// maintain() sweeps) holds the exclusive side and readers hold the shared
// side. This suite drives that exact pattern hard: a churn writer, a
// maintenance thread sweeping between its batches and a pack of traversal
// readers hammer one store through the gt:: wrappers. Under the tsan preset, any hole in the
// wrappers (a forgotten unlock, maintenance sneaking in beside a reader)
// surfaces as a data-race report; under plain builds it still verifies
// reader-visible consistency and a clean final audit.
//
// This is the dynamic counterpart of the static -Wthread-safety build: the
// annotations prove lock/unlock pairing at compile time, this proves the
// discipline actually excludes the races at run time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

Config race_config() {
    Config cfg;
    cfg.pagewidth = 16;
    cfg.subblock = 8;
    cfg.workblock = 4;
    // Delete-only mode accumulates tombstones, which is what gives the
    // maintenance thread real purge work to race against the readers.
    cfg.deletion_mode = DeletionMode::DeleteOnly;
    cfg.purge_tombstone_threshold = 0.2;
    return cfg;
}

std::vector<Edge> batch_for(std::uint64_t seed, std::uint32_t vertices,
                            std::uint32_t count) {
    Rng rng(seed);
    std::vector<Edge> edges;
    edges.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        edges.push_back({static_cast<VertexId>(rng.next_below(vertices)),
                         static_cast<VertexId>(rng.next_below(vertices * 2)),
                         static_cast<Weight>(1 + i % 100)});
    }
    return edges;
}

TEST(MaintenanceRace, BudgetedSweepsRaceReadersAndWriterUnderLock) {
    GraphTinker g(race_config());
    SharedMutex store_mu;

    // Sizes tuned for TSan's ~10x slowdown: enough rounds that maintenance
    // genuinely purges mid-run (the assertions below check it did), small
    // enough to finish in seconds.
    constexpr std::uint32_t kVertices = 48;
    constexpr std::uint32_t kBatch = 256;
    constexpr int kRounds = 40;
    constexpr int kReaders = 3;

    {
        const LockGuard<SharedMutex> lock(store_mu);
        ASSERT_TRUE(g.insert_batch(batch_for(1, kVertices, 4 * kBatch)).ok());
    }

    std::atomic<bool> stop{false};
    std::atomic<bool> reader_failed{false};
    std::atomic<std::uint64_t> reader_sweeps{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            while (!stop.load(std::memory_order_acquire)) {
                {
                    // One shared hold per sweep: within it the store must
                    // be frozen, so degree(v) and the traversal count must
                    // agree even while the writer and the maintainer queue
                    // behind us.
                    const SharedLockGuard lock(store_mu);
                    for (VertexId v = static_cast<VertexId>(t);
                         v < g.num_vertices();
                         v += static_cast<VertexId>(kReaders)) {
                        std::uint32_t seen = 0;
                        (void)g.visit_out_edges(
                            v,
                            [&](VertexId, Weight) { ++seen; return true; });
                        if (seen != g.degree(v)) {
                            reader_failed.store(true,
                                                std::memory_order_release);
                            return;
                        }
                    }
                }
                reader_sweeps.fetch_add(1, std::memory_order_relaxed);
                // glibc's rwlock is reader-preferring: back-to-back shared
                // re-acquisition would starve the exclusive side forever.
                // An unlocked gap per sweep guarantees zero-reader windows.
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
        });
    }

    MaintenanceReport total;
    std::thread maintainer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            {
                const LockGuard<SharedMutex> lock(store_mu);
                total += g.maintain();
            }
            // Release between sweeps so the churn writer gets its turn.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    // Churn writer (this thread): alternating insert and delete waves over
    // the same key space keeps the tombstone fraction crossing the purge
    // threshold so the maintainer has real structural work.
    for (int round = 0; round < kRounds; ++round) {
        const auto edges =
            batch_for(static_cast<std::uint64_t>(round) + 100, kVertices,
                      kBatch);
        {
            const LockGuard<SharedMutex> lock(store_mu);
            if (round % 2 == 0) {
                ASSERT_TRUE(g.insert_batch(edges).ok());
            } else {
                ASSERT_TRUE(g.delete_batch(edges).ok());
            }
        }
        // Stretch the race window: without this the 40 rounds finish in a
        // couple of milliseconds and the readers barely overlap.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    stop.store(true, std::memory_order_release);
    maintainer.join();
    for (std::thread& r : readers) {
        r.join();
    }

    EXPECT_FALSE(reader_failed.load()) << "a shared-lock reader saw a "
                                          "half-maintained adjacency";
    EXPECT_GT(reader_sweeps.load(), 0u);
    // The race only means anything if maintenance actually ran structural
    // work while the readers/writer were live.
    EXPECT_GT(total.trees_examined, 0u);

    const AuditReport report = g.audit();
    EXPECT_TRUE(report.violations.empty())
        << "store failed its structural audit after racing maintenance";
}

}  // namespace
}  // namespace gt::core

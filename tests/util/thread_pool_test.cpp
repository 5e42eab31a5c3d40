#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <numeric>
#include <vector>

#include "util/thread_pool.hpp"

namespace gt {
namespace {

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
    ThreadPool pool;
    EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
    ThreadPool pool(1);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(17, [&](std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPool, ActuallyRunsConcurrently) {
    ThreadPool pool(4);
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    pool.parallel_for(64, [&](std::size_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int expected = peak.load();
        while (now > expected &&
               !peak.compare_exchange_weak(expected, now)) {
        }
        // Sleep briefly so workers overlap.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        concurrent.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, LargeWorkItemsDontStarveOthers) {
    ThreadPool pool(2);
    std::vector<std::atomic<int>> done(8);
    pool.parallel_for(8, [&](std::size_t i) {
        if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        done[i].fetch_add(1);
    });
    for (auto& d : done) {
        EXPECT_EQ(d.load(), 1);
    }
}

TEST(HandoffQueue, WaitReturnsAtItsEpochWhileLaterTasksStayInFlight) {
    // A drain waits for the epoch it saw, not for an idle queue: a wait on
    // an earlier epoch returns once that epoch is applied even though later
    // tasks are still popped-but-unapplied or queued. The test thread plays
    // producer and consumer, so every step is ordered without sleeps.
    HandoffQueue<int> q(8);
    q.push(1);
    const std::uint64_t epoch = q.enqueued();
    q.push(2);
    q.push(3);
    std::vector<int> popped;
    ASSERT_TRUE(q.pop_some(popped, 2));  // tasks 1 and 2 in flight
    std::atomic<bool> returned{false};
    std::thread waiter([&] {
        q.wait_until(epoch);
        returned.store(true);
    });
    EXPECT_FALSE(returned.load()) << "task 1 is not applied yet";
    q.note_completed(1);  // task 1 applied; 2 in flight, 3 queued
    waiter.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(q.completed(), 1U);
    EXPECT_EQ(q.depth(), 2U);

    q.note_completed(1);  // task 2
    popped.clear();
    ASSERT_TRUE(q.pop_some(popped, 8));
    EXPECT_EQ(popped, std::vector<int>{3});
    q.note_completed(1);
    q.wait_idle();  // the epoch it sees is fully applied: no wait
    EXPECT_EQ(q.depth(), 0U);
}

}  // namespace
}  // namespace gt

// Threading substrate: a blocking parallel_for pool plus the hand-off
// primitives the pipelined sharded store builds on.
//
// GraphTinker's multicore story (paper §III.D) shards the structure across
// instances and applies each shard's updates on its own core. Two execution
// models live here:
//
//   ThreadPool     fork/join parallel_for for shard-parallel *analytics*
//                  (the engine scatters a batch across workers and needs the
//                  barrier). parallel_for is a template over the callable —
//                  the hot path erases it to a raw function pointer + context
//                  instead of a std::function, so submitting a lambda
//                  allocates nothing.
//   HandoffQueue   bounded FIFO hand-off channel between a coordinating
//                  producer and one persistent consumer (a shard worker).
//                  The *ingest* substrate: no fork/join per batch — workers
//                  run for the store's lifetime, the producer scatters and
//                  enqueues, and the acquire/release enqueue/complete epochs
//                  give readers a drain barrier.
//
// set_current_thread_name / pin_current_thread let the shard workers show up
// named in profilers and stick to their core (paper Fig. 6: one interval per
// core).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace gt {

/// Names the calling thread for debuggers/profilers (Linux: ≤15 chars are
/// kept; silently truncated). No-op on platforms without the facility.
void set_current_thread_name(const char* name) noexcept;

/// Pins the calling thread to `cpu` (mod the online CPU count). Returns
/// false when the platform does not support affinity or the call failed —
/// callers treat pinning as a hint, never a requirement.
bool pin_current_thread(std::size_t cpu) noexcept;

/// How many times a consumer should poll before blocking on its condvar.
/// 0 on single-core hosts, where spinning only starves the producer.
[[nodiscard]] std::size_t spin_iterations_hint() noexcept;

class ThreadPool {
public:
    /// Creates `threads` workers. 0 means std::thread::hardware_concurrency().
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Runs fn(i) for i in [0, n) across the pool and blocks until all
    /// complete. fn is invoked concurrently; it must synchronize any shared
    /// state itself. Exceptions thrown by fn terminate (tasks are noexcept
    /// by contract — benchmark/engine bodies do not throw). The callable is
    /// passed through as a raw pointer + thunk: no type erasure allocation
    /// per call, which matters for the small-n fan-outs the engine issues
    /// per iteration.
    template <typename Fn>
    void parallel_for(std::size_t n, Fn&& fn) {
        using Callable = std::remove_reference_t<Fn>;
        run_batch(n,
                  [](void* ctx, std::size_t i) {
                      (*static_cast<Callable*>(ctx))(i);
                  },
                  const_cast<void*>(
                      static_cast<const void*>(std::addressof(fn))));
    }

    /// Runs fn(t) once per worker thread t in [0, size()), in parallel.
    template <typename Fn>
    void for_each_worker(Fn&& fn) {
        parallel_for(size(), std::forward<Fn>(fn));
    }

private:
    /// The erased form every parallel_for submission reduces to.
    using RawTask = void (*)(void* ctx, std::size_t index);

    struct Batch {
        RawTask call = nullptr;
        void* ctx = nullptr;
        std::size_t n = 0;
        std::size_t next = 0;       // next index to claim
        std::size_t remaining = 0;  // indices not yet finished
        std::uint64_t epoch = 0;    // generation counter for wakeups
    };

    void run_batch(std::size_t n, RawTask call, void* ctx);
    void worker_loop();

    std::vector<std::thread> workers_;
    /// Guards the batch descriptor and the stop flag; work_cv_/done_cv_
    /// wait on it. Workers and the submitting thread drop it around each
    /// task call, so the lock only serializes index claims.
    Mutex mutex_;
    CondVar work_cv_;
    CondVar done_cv_;
    Batch batch_ GT_GUARDED_BY(mutex_);
    bool stop_ GT_GUARDED_BY(mutex_) = false;
};

/// Bounded FIFO hand-off channel: one coordinating producer side (the
/// store's mutating API — externally serialized, the single-writer half of
/// the single-writer/many-reader discipline) feeding one persistent consumer
/// (the shard worker).
///
/// Progress/visibility contract:
///   - enqueued()/completed() are acquire-published epochs. wait_idle()
///     captures enqueued() on entry and returns once completed() reaches
///     it; every write the consumer made while applying those tasks is then
///     visible to the caller — that is the read barrier ShardedStore's pins
///     and drains are built on. Tasks pushed after the capture do not hold
///     the caller up, so a reader never waits for a gap in ingest.
///   - push() blocks while the ring is full (backpressure); pop_some()
///     blocks while it is empty, spinning spin_iterations_hint() times
///     first so a streaming producer never pays a futex wake per task.
///   - Producer-side wakeups are edge-triggered: only the push that makes
///     the queue non-empty notifies, so a burst of tiny tasks costs one
///     wake, not one syscall per task.
///
/// stop() lets the consumer drain what is queued and then exit: pop_some
/// keeps returning tasks until the ring is empty and only then reports
/// shutdown — a destructor that stops and joins therefore never drops work.
template <typename Task>
class HandoffQueue {
public:
    explicit HandoffQueue(std::size_t capacity)
        : ring_(capacity == 0 ? 1 : capacity),
          spin_(spin_iterations_hint()) {}

    HandoffQueue(const HandoffQueue&) = delete;
    HandoffQueue& operator=(const HandoffQueue&) = delete;

    /// Producer: enqueues one task, blocking while the ring is full.
    /// Must not be called after stop().
    void push(Task&& task) {
        bool was_empty = false;
        {
            UniqueLock lock(mutex_);
            while (count_ == ring_.size() && !stopped_) {
                ++producer_waiters_;
                space_cv_.wait(lock);
                --producer_waiters_;
            }
            if (stopped_) {
                return;  // shutting down; the task is dropped by contract
            }
            was_empty = count_ == 0;
            ring_[(head_ + count_) % ring_.size()] = std::move(task);
            ++count_;
        }
        enqueued_.fetch_add(1, std::memory_order_release);
        if (was_empty) {
            work_cv_.notify_one();
        }
    }

    /// Consumer: moves up to `max_tasks` queued tasks into `out` (appended),
    /// blocking until at least one is available. Returns false only when the
    /// queue is stopped *and* empty — i.e. after a full drain.
    bool pop_some(std::vector<Task>& out, std::size_t max_tasks) {
        // Bounded spin before sleeping: a streaming producer refills the
        // ring within a few hundred cycles, and the futex round trip costs
        // more than the whole hand-off. inflight_ is consumer-owned (this
        // thread's own bookkeeping), so the unlocked read is race-free.
        for (std::size_t i = spin_; i > 0; --i) {
            if (enqueued_.load(std::memory_order_acquire) !=
                completed_.load(std::memory_order_relaxed) + inflight_) {
                break;
            }
            std::this_thread::yield();
        }
        UniqueLock lock(mutex_);
        while (count_ == 0 && !stopped_) {
            work_cv_.wait(lock);
        }
        if (count_ == 0) {
            return false;  // stopped and drained
        }
        const std::size_t take = count_ < max_tasks ? count_ : max_tasks;
        for (std::size_t i = 0; i < take; ++i) {
            out.push_back(std::move(ring_[head_]));
            head_ = (head_ + 1) % ring_.size();
        }
        count_ -= take;
        inflight_ += take;
        if (producer_waiters_ > 0) {
            space_cv_.notify_all();
        }
        return true;
    }

    /// Consumer: publishes that `n` previously popped tasks finished
    /// applying. Pairs a release increment with wait_idle()'s acquire so
    /// the application's side effects are visible to drained readers. The
    /// notify is taken under the mutex so a wait_idle() that just tested
    /// the epochs cannot sleep through it.
    void note_completed(std::size_t n) {
        inflight_ -= n;
        completed_.fetch_add(n, std::memory_order_release);
        const LockGuard lock(mutex_);
        idle_cv_.notify_all();
    }

    /// Blocks until completed() reaches `epoch`. Callable from any thread;
    /// const because it mutates nothing the producer or consumer own (the
    /// waiters' condvar state is mutable bookkeeping).
    void wait_until(std::uint64_t epoch) const {
        if (completed_.load(std::memory_order_acquire) >= epoch) {
            return;  // fast path: one fence, no lock
        }
        UniqueLock lock(mutex_);
        while (completed_.load(std::memory_order_acquire) < epoch) {
            idle_cv_.wait(lock);
        }
    }

    /// Blocks until every task enqueued before the call has been applied:
    /// the epoch it saw on entry. Tasks pushed while it waits are not
    /// waited for, so a steady producer cannot hold it up.
    void wait_idle() const { wait_until(enqueued()); }

    /// Wakes everyone; the consumer drains the remaining tasks and then
    /// pop_some returns false. Idempotent.
    void stop() {
        {
            const LockGuard lock(mutex_);
            stopped_ = true;
        }
        work_cv_.notify_all();
        space_cv_.notify_all();
    }

    /// Tasks enqueued over the queue's lifetime (acquire).
    [[nodiscard]] std::uint64_t enqueued() const noexcept {
        return enqueued_.load(std::memory_order_acquire);
    }
    /// Tasks fully applied over the queue's lifetime (acquire).
    [[nodiscard]] std::uint64_t completed() const noexcept {
        return completed_.load(std::memory_order_acquire);
    }
    /// Instantaneous backlog (enqueued but not yet applied) — the
    /// queue-depth gauge's source.
    [[nodiscard]] std::size_t depth() const noexcept {
        const std::uint64_t done = completed_.load(std::memory_order_acquire);
        const std::uint64_t in = enqueued_.load(std::memory_order_acquire);
        return static_cast<std::size_t>(in - done);
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return ring_.size();
    }

private:
    mutable Mutex mutex_;
    mutable CondVar work_cv_;   // consumer waits for tasks
    mutable CondVar space_cv_;  // producer waits for ring slots
    mutable CondVar idle_cv_;   // drain barriers wait for completion
    std::vector<Task> ring_ GT_GUARDED_BY(mutex_);
    std::size_t head_ GT_GUARDED_BY(mutex_) = 0;
    std::size_t count_ GT_GUARDED_BY(mutex_) = 0;
    /// Popped but not yet note_completed()-ed. Consumer-thread-private (only
    /// pop_some/note_completed touch it, both consumer-side), so it needs no
    /// guard and the spin loop may read it lock-free.
    std::size_t inflight_ = 0;
    std::size_t producer_waiters_ GT_GUARDED_BY(mutex_) = 0;
    bool stopped_ GT_GUARDED_BY(mutex_) = false;
    std::atomic<std::uint64_t> enqueued_{0};
    std::atomic<std::uint64_t> completed_{0};
    const std::size_t spin_;
};

}  // namespace gt

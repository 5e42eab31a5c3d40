// Parallel instances of a dynamic graph store (paper §III.D, Fig. 6),
// pipelined: each shard is owned by one persistent worker thread.
//
// The edge stream is partitioned by where the source id hashes, and each
// partition ("interval") loads into its own store instance on its own core.
// The wrapper is generic over the store type so GraphTinker and the STINGER
// baseline parallelize identically — multicore comparisons (Fig. 10) then
// measure the data structures, not the parallelization strategy.
//
// Execution model (DESIGN.md §13). The original ShardedStore forked a
// parallel_for per batch: every batch paid a wakeup/barrier rendezvous plus
// a barrier-synchronized partition, which erased the multicore win at
// batch=100k and collapsed ~20x at batch=1. Now each shard has a dedicated
// worker thread that runs for the store's lifetime, fed by a bounded
// per-shard HandoffQueue. The caller's role shrinks to radix-scattering the
// batch into a generation arena and enqueueing one slice task per shard —
// so partitioning batch N+1 overlaps shard application of batch N, and no
// thread ever waits at a barrier on the ingest path. Mini-batches of at most
// kSmallBatchThreshold edges that land wholly on one shard (always true for
// batch=1) skip the partition and hand the slice to the owning worker
// directly.
//
// Concurrency discipline: single writer per shard, many readers. Only shard
// s's worker mutates shard s's store, holding the shard's rwlock exclusively
// per task; readers either (a) call a draining accessor (num_edges, shard —
// these wait for the queue epoch to settle), or (b) take the
// read_snapshot_all() pin — drain every shard and hold every rwlock shared —
// so analytics read one settled cut while ingest waits behind the pin. The
// queue's enqueued/completed counters are the per-shard epoch: a reader that
// observed completed == enqueued (acquire) sees every store write those
// tasks made (release on completion).
//
// Failure semantics: per-shard application stays transactional (the store's
// own insert_batch/delete_batch machinery), but outcomes are asynchronous.
// Each worker latches its first non-Ok Status; flush() drains the pipeline,
// returns the first latched failure in shard-index order ("shard N: "
// prefixed, as before) and re-arms the latches. Shards fail independently:
// a non-Ok flush means the failing shards rolled their slices back while
// the others committed — cross-shard atomicity is still not provided.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace gt::core {

namespace detail {
/// Shards the calling thread currently holds read pins on, identified by
/// shard object address. Registration is what lets the drain/flush paths
/// detect a self-deadlock (waiting on a shard whose worker is blocked by
/// this very thread's pin) and refuse instead of hanging. A flat vector:
/// a pin registers one entry per shard — a handful — so linear scans beat
/// any set.
inline thread_local std::vector<const void*> tl_pinned_shards;
}  // namespace detail

/// Construction options for ShardedStore.
struct ShardedOptions {
    /// Optional metrics sink: per-shard `shard.<i>.queue_depth` gauges, the
    /// `shard.handoff_us` latency histogram and the `shard.tasks_applied`
    /// counter land here.
    obs::Registry* registry = nullptr;
};

template <typename Store>
class ShardedStore {
    struct Shard;

public:
    /// Creates `shards` instances, each with a persistent worker thread.
    /// `factory()` returns the *configuration* each store is constructed
    /// from (stores are built in place — GraphTinker is intentionally
    /// non-movable).
    template <typename Factory>
    explicit ShardedStore(std::size_t shards, Factory&& factory,
                          ShardedOptions opts = {}) {
        const std::size_t n = shards == 0 ? 1 : shards;
        for (auto& gen : gens_) {
            gen = std::make_unique<Generation>();
        }
        shards_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            shards_.push_back(std::make_unique<Shard>(
                std::make_unique<Store>(factory()), kQueueDepth));
        }
        bind_metrics(opts.registry);
        for (std::size_t i = 0; i < n; ++i) {
            shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
        }
    }

    /// Stops the queues and joins the workers. pop_some keeps returning
    /// queued tasks after stop() until the ring is empty, so destruction
    /// drains: every enqueued batch is applied before the stores die.
    ~ShardedStore() {
        for (auto& sh : shards_) {
            sh->queue.stop();
        }
        for (auto& sh : shards_) {
            if (sh->worker.joinable()) {
                sh->worker.join();
            }
        }
    }

    ShardedStore(const ShardedStore&) = delete;
    ShardedStore& operator=(const ShardedStore&) = delete;

    /// Owning shard of a source id. Division-free for any shard count: the
    /// mixed hash is mapped into [0, shards) with a multiply-shift (Lemire's
    /// fastmod), which preserves the hash's uniformity without requiring a
    /// power-of-two count. Safe for shards == 0 (returns 0).
    [[nodiscard]] static std::size_t shard_of(VertexId src,
                                              std::size_t shards) noexcept {
        if (shards <= 1) {
            return 0;
        }
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(mix32(src)) * shards) >> 32);
    }

    /// Scatters the batch and enqueues one slice per owning shard; the
    /// shard workers apply the slices transactionally, asynchronously.
    /// Always returns Ok — per-shard outcomes are latched by the workers
    /// and surfaced by flush(). Mutating calls (insert/delete/flush) must
    /// come from one thread at a time; concurrent *readers* are welcome via
    /// read_snapshot_all().
    [[nodiscard]] Status insert_batch(std::span<const Edge> batch) {
        enqueue_edges(batch, Op::InsertEdges);
        return Status::success();
    }

    /// Batched delete with the same pipelined application and per-shard
    /// failure latching as insert_batch.
    [[nodiscard]] Status delete_batch(std::span<const Edge> batch) {
        enqueue_edges(batch, Op::DeleteEdges);
        return Status::success();
    }

    // ---- barriers & failure surfacing ---------------------------------

    /// Blocks until every enqueued task has been applied on every shard.
    /// A shard the calling thread pins is *skipped* (with a debug assert):
    /// its worker cannot finish while the pin blocks it, so waiting would
    /// self-deadlock — and the pin already froze that shard at a settled
    /// epoch, so skipping keeps reads-through-the-pin consistent. Full
    /// completeness guarantees require no caller pin; flush() enforces that
    /// with a typed error.
    void drain() const {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (pinned_by_caller(s)) {
                assert(!"ShardedStore::drain() from a thread pinning "
                        "that shard — would self-deadlock");
                continue;
            }
            shards_[s]->queue.wait_idle();
        }
    }

    /// Drains, then returns the first latched per-shard failure in
    /// shard-index order (message prefixed "shard N: ", Ok when every slice
    /// committed) and re-arms the latches for the next window of batches.
    /// Refused with WouldDeadlock (detail = shard index) when the calling
    /// thread holds a read pin: the pinned workers cannot drain while the
    /// pin blocks them, and a partial flush would silently re-arm latches
    /// it never read. Release the pin first.
    [[nodiscard]] Status flush() {
        if (Status st = refuse_if_caller_pinned("flush()"); !st.ok()) {
            return st;
        }
        drain();
        Status first = Status::success();
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            Shard& sh = *shards_[s];
            if (sh.failed && first.ok()) {
                first = prefixed(s, sh.failure);
            }
            sh.failed = false;
            sh.failure = Status::success();
            // The drained depth (0): overwrites a push-time value that
            // landed after the worker's last refresh.
            set_depth_gauge(sh);
        }
        return first;
    }

    // ---- reads --------------------------------------------------------

    /// Whole-store pin: every shard drained, every rwlock held shared for
    /// the pin's lifetime — the single-writer/many-reader read side.
    /// Cross-shard aggregates (counts, traversal over all intervals) see one
    /// settled epoch per shard while writers to *no* shard can slip in
    /// between the per-shard reads; each worker blocks before its next task
    /// and ingest resumes the moment the pin drops. Must not be nested (the
    /// drain would self-deadlock).
    class ReadPinAll {
    public:
        ReadPinAll(const ReadPinAll&) = delete;
        ReadPinAll& operator=(const ReadPinAll&) = delete;

        ~ReadPinAll() GT_NO_THREAD_SAFETY_ANALYSIS {
            auto& pins = detail::tl_pinned_shards;
            for (auto it = shards_->rbegin(); it != shards_->rend(); ++it) {
                (*it)->rw.unlock_shared();
                const auto p =
                    std::find(pins.rbegin(), pins.rend(), it->get());
                if (p != pins.rend()) {
                    pins.erase(std::next(p).base());
                }
            }
        }

        /// Shard `i`'s store, frozen at the pinned epoch (the pin's
        /// constructor already drained, so no further barrier is needed).
        [[nodiscard]] const Store& store(std::size_t i) const noexcept {
            return *(*shards_)[i]->store;
        }
        [[nodiscard]] std::size_t num_shards() const noexcept {
            return shards_->size();
        }
        /// Cross-shard edge total at the pinned cut.
        [[nodiscard]] EdgeCount edge_total() const {
            EdgeCount total = 0;
            for (std::size_t i = 0; i < shards_->size(); ++i) {
                total += store(i).num_edges();
            }
            return total;
        }

    private:
        friend class ShardedStore;
        explicit ReadPinAll(
            const std::vector<std::unique_ptr<Shard>>& shards)
            GT_NO_THREAD_SAFETY_ANALYSIS : shards_(&shards) {
            for (const auto& sh : shards) {
                sh->rw.lock_shared();
                detail::tl_pinned_shards.push_back(sh.get());
            }
        }

        const std::vector<std::unique_ptr<Shard>>* shards_;
    };

    /// Drains all shards, then pins them all shared (index order; readers
    /// never block each other, so pin order only matters versus writers and
    /// those are per-shard). Returns by RVO — ReadPinAll is not movable.
    [[nodiscard]] ReadPinAll read_snapshot_all() const {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (pinned_by_caller(s)) {
                assert(!"read_snapshot_all() while this thread already "
                        "pins the store");
                continue;
            }
            shards_[s]->queue.wait_idle();
        }
        return ReadPinAll(shards_);
    }

    [[nodiscard]] EdgeCount num_edges() const {
        drain();
        EdgeCount total = 0;
        for (const auto& sh : shards_) {
            total += sh->store->num_edges();
        }
        return total;
    }

    [[nodiscard]] std::size_t num_shards() const noexcept {
        return shards_.size();
    }

    /// Drains shard `i` and returns it. The reference is safe to use until
    /// the next mutating call routes work to this shard; for a cut that
    /// stays settled while the producer keeps enqueueing, use
    /// read_snapshot_all() instead. Under the caller's own pin the shard is
    /// returned without waiting (the pin froze it at a settled epoch;
    /// waiting would self-deadlock).
    [[nodiscard]] Store& shard(std::size_t i) {
        if (!pinned_by_caller(i)) {
            shards_[i]->queue.wait_idle();
        }
        return *shards_[i]->store;
    }
    [[nodiscard]] const Store& shard(std::size_t i) const {
        if (!pinned_by_caller(i)) {
            shards_[i]->queue.wait_idle();
        }
        return *shards_[i]->store;
    }

private:
    enum class Op : std::uint8_t { InsertEdges, DeleteEdges };

    /// One hand-off: a contiguous slice of a generation arena plus the
    /// operation to apply it with. Carries a raw pointer (stable — the
    /// arena never reallocates while referenced) so the worker never
    /// touches the producer-side vectors.
    struct Task {
        Op op = Op::InsertEdges;
        std::uint32_t gen = 0;
        std::size_t count = 0;
        const Edge* edges = nullptr;
        std::uint64_t enqueue_ns = 0;
    };

    /// Arena one or more partitioned batches live in while their slice
    /// tasks are in flight. `pending` counts referencing tasks; the
    /// producer appends only while it holds the generation open and only
    /// within reserved capacity, so worker-side slice reads never race a
    /// reallocation. A sealed generation with pending == 0 is recyclable.
    struct Generation {
        std::vector<Edge> edges;
        std::atomic<std::uint64_t> pending{0};
        std::atomic<bool> sealed{true};
    };

    struct Shard {
        Shard(std::unique_ptr<Store> st, std::size_t depth)
            : store(std::move(st)), queue(depth) {}

        std::unique_ptr<Store> store;
        HandoffQueue<Task> queue;
        /// Writer: the shard worker, exclusively per task. Readers: pins.
        /// Mutable so const read paths can pin.
        mutable SharedMutex rw;
        /// First non-Ok outcome since the last flush(). Written only by the
        /// shard worker (before it publishes completion), read/cleared only
        /// after a drain — the queue's completion epoch orders the two, so
        /// no lock is needed.
        Status failure;
        bool failed = false;
        obs::Gauge* depth_gauge = nullptr;
        std::thread worker;
    };

    /// Generations in rotation. Three is the minimum that pipelines: one
    /// being applied, one being filled, one of slack so a slow shard does
    /// not stall the partitioner immediately.
    static constexpr std::size_t kGenerations = 3;
    /// Fresh generations reserve at least this many slots so tiny batches
    /// amortize: at batch=1 one generation absorbs thousands of hand-offs
    /// before it seals.
    static constexpr std::size_t kGenMinSlots = 4096;
    /// Sentinel: no generation currently open for appends.
    static constexpr std::uint32_t kNoGen = ~std::uint32_t{0};
    /// single_shard_of result when the mini-batch spans shards.
    static constexpr std::size_t kMixedShards = static_cast<std::size_t>(-1);
    /// Worker-side bulk dequeue width: amortizes the queue lock over up to
    /// this many tiny tasks per wakeup.
    static constexpr std::size_t kMaxPopBatch = 64;
    /// Mini-batches of at most this many edges skip the radix partition
    /// when every edge lands on one shard (always true for batch=1): the
    /// batch is handed to the owning worker's queue directly.
    static constexpr std::size_t kSmallBatchThreshold = 64;
    /// Bounded depth (in hand-off tasks) of each shard's ingest queue. The
    /// producer blocks when a shard's queue fills — backpressure instead of
    /// unbounded buffering.
    static constexpr std::size_t kQueueDepth = 1024;

    void bind_metrics(obs::Registry* registry) {
        if (registry == nullptr) {
            return;
        }
        handoff_us_ = &registry->histogram("shard.handoff_us");
        tasks_applied_ = &registry->counter("shard.tasks_applied");
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s]->depth_gauge = &registry->gauge(
                "shard." + std::to_string(s) + ".queue_depth");
        }
    }

    [[nodiscard]] static std::uint64_t now_ns() noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    [[nodiscard]] static Status prefixed(std::size_t s, const Status& st) {
        Status out = st;
        out.message = "shard " + std::to_string(s) + ": " + out.message;
        return out;
    }

    /// True when the calling thread's read pin holds shard `s` of this
    /// store (thread-local registration by ReadPinAll).
    [[nodiscard]] bool pinned_by_caller(std::size_t s) const noexcept {
        const auto& pins = detail::tl_pinned_shards;
        return std::find(pins.begin(), pins.end(),
                         static_cast<const void*>(shards_[s].get())) !=
               pins.end();
    }

    /// WouldDeadlock (detail = first pinned shard index) when the calling
    /// thread holds a read pin on this store; Ok otherwise. The full-drain
    /// entry points call this before blocking.
    [[nodiscard]] Status refuse_if_caller_pinned(const char* what) const {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (pinned_by_caller(s)) {
                return Status{
                    StatusCode::WouldDeadlock,
                    std::string(what) +
                        " called from a thread holding a read pin on shard " +
                        std::to_string(s) +
                        " — the pinned worker cannot drain while the pin "
                        "blocks it; release the pin first",
                    s};
            }
        }
        return Status::success();
    }

    // ---- producer side (mutating API, externally serialized) -----------

    void enqueue_edges(std::span<const Edge> batch, Op op) {
        if (batch.empty()) {
            return;
        }
        Generation& gen = acquire_generation(batch.size());
        const std::size_t base = gen.edges.size();
        const std::size_t single = single_shard_of(batch);
        if (single != kMixedShards) {
            // Small-batch bypass (and the trivial one-shard layout): the
            // whole mini-batch is one slice for one worker — no counting
            // sort, no scatter.
            gen.edges.insert(gen.edges.end(), batch.begin(), batch.end());
            submit(single,
                   make_task(op, gen.edges.data() + base, batch.size()));
            return;
        }
        partition_into(batch, gen.edges);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const std::size_t len = slice_offsets_[s + 1] - slice_offsets_[s];
            if (len != 0) {
                submit(s, make_task(op,
                                    gen.edges.data() + base +
                                        slice_offsets_[s],
                                    len));
            }
        }
    }

    /// The owning shard when the whole mini-batch maps to one shard and is
    /// small enough for the bypass (or there is only one shard);
    /// kMixedShards otherwise.
    [[nodiscard]] std::size_t single_shard_of(
        std::span<const Edge> batch) const {
        const std::size_t n = shards_.size();
        if (n == 1) {
            return 0;
        }
        if (batch.size() > kSmallBatchThreshold) {
            return kMixedShards;
        }
        const std::size_t first = shard_of(batch[0].src, n);
        for (std::size_t i = 1; i < batch.size(); ++i) {
            if (shard_of(batch[i].src, n) != first) {
                return kMixedShards;
            }
        }
        return first;
    }

    /// A task for `count` edges at `edges` in the open generation.
    [[nodiscard]] Task make_task(Op op, const Edge* edges,
                                 std::size_t count) {
        Task t;
        t.op = op;
        t.gen = open_;
        t.count = count;
        t.edges = edges;
        // Hand-off latency sampling: the clock read costs more than the
        // queue push at batch=1, so stamp only every 64th submission.
        if (handoff_us_ != nullptr && ((++push_seq_ & 63U) == 0) &&
            obs::recording()) {
            t.enqueue_ns = now_ns();
        }
        return t;
    }

    /// Registers the task against its generation and hands it to shard
    /// `s`'s worker. The pending increment precedes the push so the worker
    /// can never drop the generation's refcount to zero early.
    void submit(std::size_t s, Task&& t) {
        gens_[t.gen]->pending.fetch_add(1, std::memory_order_relaxed);
        Shard& sh = *shards_[s];
        sh.queue.push(std::move(t));
        set_depth_gauge(sh);
    }

    /// Publishes shard `sh`'s backlog to its queue-depth gauge, if bound.
    /// Called on push, after each popped run completes, and by flush().
    static void set_depth_gauge(Shard& sh) noexcept {
        if (sh.depth_gauge != nullptr) {
            sh.depth_gauge->set(static_cast<double>(sh.queue.depth()));
        }
    }

    /// Returns a generation with room for the requested append, keeping
    /// the current one open while it fits (double buffering: the open
    /// generation fills while sealed ones are still being applied). Blocks
    /// — backpressure — when all generations still have tasks in flight.
    Generation& acquire_generation(std::size_t need) {
        if (open_ != kNoGen) {
            Generation& gen = *gens_[open_];
            if (gen.edges.size() + need <= gen.edges.capacity()) {
                return gen;
            }
            gen.sealed.store(true, std::memory_order_release);
            open_ = kNoGen;
        }
        UniqueLock lock(gen_mutex_);
        for (;;) {
            for (std::size_t i = 0; i < gens_.size(); ++i) {
                Generation& gen = *gens_[i];
                if (gen.sealed.load(std::memory_order_relaxed) &&
                    gen.pending.load(std::memory_order_acquire) == 0) {
                    gen.sealed.store(false, std::memory_order_relaxed);
                    open_ = static_cast<std::uint32_t>(i);
                    lock.unlock();
                    // Safe to touch the vectors: no task references them.
                    gen.edges.clear();
                    gen.edges.reserve(std::max(need, kGenMinSlots));
                    return gen;
                }
            }
            gen_cv_.wait(lock);
        }
    }

    /// Serial two-pass counting partition of `batch` by source shard,
    /// appended to `arena` grouped by shard. slice_offsets_[s]..[s+1] are
    /// the resulting per-shard bounds *relative to the append base*.
    /// Serial on purpose: the old parallel partition needed a fork/join
    /// barrier, and the pipeline hides the partition behind the previous
    /// batch's application anyway.
    void partition_into(std::span<const Edge> batch,
                        std::vector<Edge>& arena) {
        const std::size_t n = shards_.size();
        const std::size_t base = arena.size();
        arena.resize(base + batch.size());  // within reserved capacity
        slice_offsets_.assign(n + 1, 0);
        for (const Edge& e : batch) {
            ++slice_offsets_[shard_of(e.src, n) + 1];
        }
        for (std::size_t s = 0; s < n; ++s) {
            slice_offsets_[s + 1] += slice_offsets_[s];
        }
        cursors_.assign(slice_offsets_.begin(), slice_offsets_.end() - 1);
        Edge* out = arena.data() + base;
        for (const Edge& e : batch) {
            out[cursors_[shard_of(e.src, n)]++] = e;
        }
    }

    // ---- worker side ---------------------------------------------------

    void worker_loop(std::size_t s) {
        const std::string name = "gt-shard-" + std::to_string(s);
        set_current_thread_name(name.c_str());
        (void)pin_current_thread(s);
        std::vector<Task> tasks;
        tasks.reserve(kMaxPopBatch);
        while (shards_[s]->queue.pop_some(tasks, kMaxPopBatch)) {
            for (const Task& t : tasks) {
                apply_task(s, t);
            }
            if (tasks_applied_ != nullptr) {
                tasks_applied_->add(tasks.size());
            }
            shards_[s]->queue.note_completed(tasks.size());
            set_depth_gauge(*shards_[s]);
            tasks.clear();
        }
    }

    void apply_task(std::size_t s, const Task& t) {
        Shard& sh = *shards_[s];
        if (handoff_us_ != nullptr && t.enqueue_ns != 0) {
            handoff_us_->record((now_ns() - t.enqueue_ns) / 1000);
        }
        Status st;
        {
            const LockGuard<SharedMutex> lock(sh.rw);
            st = apply_slice(*sh.store, t.op,
                             std::span<const Edge>(t.edges, t.count));
        }
        if (!st.ok() && !sh.failed) {
            sh.failed = true;
            sh.failure = std::move(st);
        }
        release_generation(*gens_[t.gen]);
    }

    void release_generation(Generation& gen) {
        if (gen.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last reference: the producer may be waiting to recycle.
            {
                const LockGuard lock(gen_mutex_);
            }
            gen_cv_.notify_all();
        }
    }

    /// Stores with a Status-returning batch API (GraphTinker) apply a
    /// slice in one call and map their own faults to a Status.
    static constexpr bool kBatchApi =
        requires(Store& st, std::span<const Edge> part) {
            { st.insert_batch(part) } -> std::same_as<Status>;
            { st.delete_batch(part) } -> std::same_as<Status>;
        };

    /// Store dispatch: the batch API when present, else a per-edge loop
    /// (STINGER) that converts a thrown fault into the Status code the
    /// latch expects.
    [[nodiscard]] static Status apply_slice(Store& st, Op op,
                                            std::span<const Edge> part) {
        if constexpr (kBatchApi) {
            return op == Op::InsertEdges ? st.insert_batch(part)
                                         : st.delete_batch(part);
        } else {
            const char* what =
                op == Op::InsertEdges ? "shard insert" : "shard delete";
            try {
                for (const Edge& e : part) {
                    if (op == Op::InsertEdges) {
                        (void)st.insert_edge(e.src, e.dst, e.weight);
                    } else {
                        (void)st.delete_edge(e.src, e.dst);
                    }
                }
            } catch (const fail::InjectedFault&) {
                return Status{StatusCode::FaultInjected,
                              std::string("fault injected during ") + what};
            } catch (const std::bad_alloc&) {
                return Status{StatusCode::ResourceExhausted,
                              std::string("allocation failed during ") +
                                  what};
            }
            return Status::success();
        }
    }

    // ---- members -------------------------------------------------------

    std::array<std::unique_ptr<Generation>, kGenerations> gens_;
    /// Guards generation recycling only (the producer's wait for a free
    /// generation); appends to the open generation are producer-private.
    Mutex gen_mutex_;
    CondVar gen_cv_;
    /// Index of the generation open for appends (producer-private).
    std::uint32_t open_ = kNoGen;

    std::vector<std::unique_ptr<Shard>> shards_;

    // Producer-side partition scratch; capacity reused across batches.
    std::vector<std::size_t> slice_offsets_;  // shard s: [s, s+1) rel. base
    std::vector<std::size_t> cursors_;        // scatter cursors

    std::uint64_t push_seq_ = 0;

    // Bound once at construction (obs hot-path discipline); null without a
    // registry.
    obs::Histogram* handoff_us_ = nullptr;
    obs::Counter* tasks_applied_ = nullptr;
};

}  // namespace gt::core

// sharded_churn: core::ShardedStore<GraphTinker> with 3 shards, no WAL.
//
// The same window shape as local_churn (1M edges over 2^20 vertices) with
// 50k-edge batches, timed as one sustained phase that ends with a single
// flush() (the drain). Three shards is nproc - 1 on a 4-core host, so the
// producer keeps a core to itself. After the drain, BFS from the top
// out-degree roots runs through engine::ParallelDynamicAnalysis, whose pool
// never overlaps ingest. The only workload that runs the partition/hand-off
// pipeline and the parallel engine; it bypasses WAL and net.
#include <memory>
#include <optional>
#include <string>

#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/parallel_engine.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"

namespace ledger {
namespace {

using gt::core::GraphTinker;
using Sharded = gt::core::ShardedStore<GraphTinker>;
using Parallel = gt::engine::ParallelDynamicAnalysis<GraphTinker, gt::engine::Bfs>;

constexpr VertexId kVertices = VertexId{1} << 20;
constexpr std::size_t kWindow = 1'000'000;
constexpr std::size_t kStep = 50'000;
constexpr std::size_t kTurnover = kWindow / kStep;
constexpr std::size_t kShards = 3;
/// Shard workers pin themselves to CPUs 0..kShards-1; the producer takes
/// the next one, so it keeps a core to itself during ingest.
constexpr int kProducerCpu = static_cast<int>(kShards);
/// Timed steps per second of --seconds (fixed op count).
constexpr std::size_t kStepsPerSecond = 30;
/// The 1-shard comparison runs this fraction of the timed steps.
constexpr std::size_t kScalingDivisor = 4;
/// BFS rounds over all roots: one unmeasured warm-up (each engine's first
/// run allocates its per-vertex state), then the measured ones.
constexpr std::size_t kQueryRounds = 5;
constexpr std::size_t kBlocks = 10;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kRoots = 4;
constexpr std::size_t kTargets = 64;

struct Phase {
    /// One window step as the producer sees it: insert_batch plus
    /// delete_batch (partition, hand-off, backpressure).
    std::vector<double> step_ms;
    /// Edges per second of each of kBlocks equal slices of the phase (the
    /// last one ends with the drain).
    std::vector<double> block_eps;
    double wall_s = 0;              // including the final drain
    double drain_ms = 0;
    double edges = 0;
};

struct Analytics {
    std::vector<double> ms;
    gt::engine::RunStats stats;
    double pool_cpu_s = 0;
    double wall_s = 0;
};

std::unique_ptr<Sharded> make_store(std::size_t shards,
                                    gt::obs::Registry* registry) {
    gt::core::ShardedOptions opts;
    opts.registry = registry;
    return std::make_unique<Sharded>(
        shards, [] { return gt::core::Config{}; }, opts);
}

double setup(Sharded& store, const WindowStream& ws, Report& rep) {
    const std::int64_t t0 = now_ns();
    const std::span<const Edge> fill = ws.live(0);
    for (std::size_t off = 0; off < fill.size(); off += kStep) {
        rep.op(store.insert_batch(fill.subspan(off, kStep)).ok());
    }
    for (std::size_t k = 0; k < kTurnover; ++k) {
        rep.op(store.insert_batch(ws.inserts(k)).ok());
        rep.op(store.delete_batch(ws.deletes(k)).ok());
    }
    const gt::Status st = store.flush();
    rep.op(st.ok());
    if (!st.ok()) {
        fatal("sharded_churn: setup flush: " + st.to_string());
    }
    return s_since(t0);
}

Phase timed_phase(Sharded& store, const WindowStream& ws, std::size_t steps,
                  Report& rep) {
    Phase p;
    const std::size_t block = std::max<std::size_t>(1, steps / kBlocks);
    const std::int64_t t0 = now_ns();
    std::int64_t block_t0 = t0;
    for (std::size_t j = 0; j < steps; ++j) {
        if (j > 0 && j % block == 0 && steps - j >= block) {
            p.block_eps.push_back(static_cast<double>(2 * kStep * block) /
                                  s_since(block_t0));
            block_t0 = now_ns();
        }
        const std::size_t k = kTurnover + j;
        const std::int64_t t = now_ns();
        {
            const ScopedSpan span(SpanKind::Update, 2 * j + 1);
            rep.op(store.insert_batch(ws.inserts(k)).ok());
        }
        {
            const ScopedSpan span(SpanKind::Update, 2 * j + 2);
            rep.op(store.delete_batch(ws.deletes(k)).ok());
        }
        p.step_ms.push_back(ms_since(t));
    }
    {
        const ScopedSpan span(SpanKind::Drain);
        const std::int64_t t = now_ns();
        const gt::Status st = store.flush();
        p.drain_ms = ms_since(t);
        rep.op(st.ok());
        rep.check(st.ok(), "sharded_churn: flush: " + st.to_string());
    }
    p.wall_s = s_since(t0);
    p.edges = static_cast<double>(2 * kStep * steps);
    const std::size_t tail = steps - block * p.block_eps.size();
    p.block_eps.push_back(static_cast<double>(2 * kStep * tail) /
                          s_since(block_t0));
    return p;
}

/// BFS from every root, kQueryRounds measured times after a warm-up round,
/// through the parallel engine. With `model` set, the last round's
/// distances are checked against it.
Analytics run_analytics(const Sharded& store, const WindowStream& ws,
                        const gt::engine::CsrSnapshot* model, Report& rep) {
    Analytics out;
    std::vector<std::unique_ptr<Parallel>> per_root;
    std::set<pid_t> pool;
    for (const VertexId root : ws.roots) {
        const auto pre = read_task_cpu();
        per_root.push_back(std::make_unique<Parallel>(store));
        per_root.back()->set_root(root);
        // Each engine's pool threads take the shard CPUs, in creation
        // order; the calling thread (which runs one slice and the merge)
        // takes the producer's CPU.
        int cpu = 0;
        for (const pid_t t : new_tids(pre, read_task_cpu())) {
            (void)pin_thread(t, cpu++);
            pool.insert(t);
        }
    }
    const ScopedPin caller(kProducerCpu);
    for (auto& a : per_root) {
        (void)a->run_from_scratch();
    }
    const auto start = read_task_cpu();
    const std::int64_t t0 = now_ns();
    for (std::size_t round = 0; round < kQueryRounds; ++round) {
        for (auto& a : per_root) {
            const ScopedSpan span(SpanKind::Analytics);
            const std::int64_t t = now_ns();
            out.stats.accumulate(a->run_from_scratch());
            out.ms.push_back(ms_since(t));
            rep.op(true);
        }
    }
    out.wall_s = s_since(t0);
    out.pool_cpu_s = cpu_seconds_between(start, read_task_cpu(), pool);
    if (model != nullptr) {
        for (std::size_t r = 0; r < per_root.size(); ++r) {
            std::vector<std::uint32_t> got;
            for (const VertexId t : ws.targets) {
                got.push_back(per_root[r]->property(t));
            }
            const std::string diff =
                compare_bfs(*model, ws.roots[r], ws.targets, got);
            rep.check(diff.empty(), "sharded_churn: " + diff);
        }
    }
    return out;
}

double bytes_per_edge(Sharded& store) {
    double bytes = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bytes += static_cast<double>(store.shard(s).memory_footprint().total());
    }
    return bytes / static_cast<double>(store.num_edges());
}

void check_edges(const Sharded& store, Report& rep) {
    const gt::EdgeCount edges = store.num_edges();
    rep.check(edges == kWindow, "sharded_churn: num_edges " +
                                    std::to_string(edges) + " != model " +
                                    std::to_string(kWindow));
}

std::vector<std::uint64_t> hist_buckets(gt::obs::Registry& r,
                                        const char* name) {
    const gt::obs::Histogram& h = r.histogram(name);
    std::vector<std::uint64_t> b(gt::obs::Histogram::kBuckets);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = h.bucket(i);
    }
    return b;
}

/// Upper bound of the median bucket of the histogram delta `after - before`.
double delta_p50_bound(const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
    gt::obs::Snapshot::HistogramRow row;
    for (std::size_t i = 0; i < row.buckets.size(); ++i) {
        row.buckets[i] = after[i] - before[i];
        row.count += row.buckets[i];
    }
    return static_cast<double>(row.quantile_bound(0.5));
}

std::vector<double> shard_updates(Sharded& store) {
    std::vector<double> out;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        out.push_back(static_cast<double>(
            store.shard(s).obs().counter("gt.updates").value()));
    }
    return out;
}

}  // namespace

Report run_sharded_churn(const Args& args) {
    require_thread_budget("sharded_churn", "ingest", kShards + 1);
    require_thread_budget("sharded_churn", "bfs", kShards);
    const std::size_t steps =
        kStepsPerSecond * static_cast<std::size_t>(args.seconds);
    const WindowStream ws = make_window_stream(
        kVertices, kWindow, kStep, kTurnover + steps, args.seed, kRoots,
        kTargets);
    const gt::engine::CsrSnapshot model(ws.live(kTurnover + steps), kVertices);
    Report rep;

    std::vector<double> setup_s;
    std::unique_ptr<Sharded> store;
    Phase p;
    {
        const ScopedPin producer(kProducerCpu);
        for (std::size_t i = 0; i < kSetups; ++i) {
            store.reset();
            store = make_store(kShards, nullptr);
            setup_s.push_back(setup(*store, ws, rep));
        }
        p = timed_phase(*store, ws, steps, rep);
    }
    rep.set("setup_s", median(setup_s), "s");
    rep.set("setup_first_s", setup_s.front(), "s");
    rep.set("update_eps", median(p.block_eps), "1/s");
    rep.set("update_p50_ms", median(p.step_ms), "ms");
    rep.set("update_p90_ms", quantile(p.step_ms, 0.9), "ms");
    rep.set("bytes_per_edge", bytes_per_edge(*store), "B");
    if (!args.trace) {
        const Analytics a = run_analytics(*store, ws, &model, rep);
        check_edges(*store, rep);
        rep.set("analytics_p50_ms", median(a.ms), "ms");
        rep.set("ok_share",
                static_cast<double>(rep.attempted - rep.failed) /
                    static_cast<double>(rep.attempted),
                "share");
        return rep;
    }

    // Traced run: the untraced phase above is the baseline; then one more
    // store traced, then the 1-shard comparison for both scaling ratios.
    const double eps3 = median(p.block_eps);
    double bfs3_ms = 0;
    store.reset();
    {
        gt::obs::Registry registry;
        store = make_store(kShards, &registry);
        std::optional<ScopedPin> producer(std::in_place, kProducerCpu);
        (void)setup(*store, ws, rep);
        CoreCounters before;
        for (std::size_t s = 0; s < kShards; ++s) {
            before += core_counters(store->shard(s));
        }
        const std::vector<double> updates0 = shard_updates(*store);
        const auto handoff0 = hist_buckets(registry, "shard.handoff_us");
        const auto cpu0 = read_task_cpu();
        Tracer::enable(true);
        const Phase tp = timed_phase(*store, ws, steps, rep);
        Tracer::enable(false);
        producer.reset();  // the BFS pool must not inherit the pin
        const auto cpu1 = read_task_cpu();
        const auto handoff1 = hist_buckets(registry, "shard.handoff_us");
        const std::vector<double> updates1 = shard_updates(*store);
        CoreCounters after;
        SpaceGauges space;
        for (std::size_t s = 0; s < kShards; ++s) {
            after += core_counters(store->shard(s));
            space += space_gauges(store->shard(s));
        }
        put_core_layers(rep, before, after, tp.edges, tp.edges / 2, space);

        std::set<pid_t> workers;
        for (const auto& [tid, t] : cpu1) {
            if (t.comm.rfind("gt-shard-", 0) == 0 && cpu0.count(tid) != 0) {
                workers.insert(tid);
            }
        }
        rep.layer("sharded.worker_busy_share",
                  cpu_seconds_between(cpu0, cpu1, workers) /
                      (tp.wall_s * static_cast<double>(kShards)));
        rep.layer("sharded.enqueue_p50_ms",
                  median(step_sums(span_ms(SpanKind::Update))));
        rep.layer("sharded.drain_ms", tp.drain_ms);
        rep.layer("sharded.handoff_p50_us", delta_p50_bound(handoff0, handoff1));
        double max_updates = 0;
        double sum_updates = 0;
        for (std::size_t s = 0; s < kShards; ++s) {
            const double d = updates1[s] - updates0[s];
            max_updates = std::max(max_updates, d);
            sum_updates += d;
        }
        rep.layer("sharded.skew",
                  max_updates / (sum_updates / static_cast<double>(kShards)));
        rep.layer("trace.overhead_share", tp.wall_s / p.wall_s - 1.0);

        Tracer::enable(true);
        const Analytics a = run_analytics(*store, ws, &model, rep);
        Tracer::enable(false);
        check_edges(*store, rep);
        bfs3_ms = median(a.ms);
        rep.set("analytics_p50_ms", bfs3_ms, "ms");
        rep.layer("engine.parallel.busy_share",
                  a.pool_cpu_s / (a.wall_s * static_cast<double>(kShards)));
        rep.layer("engine.parallel.full_share",
                  static_cast<double>(a.stats.full_iterations) /
                      static_cast<double>(a.stats.iterations));
        rep.layer("engine.parallel.streamed_per_logical",
                  static_cast<double>(a.stats.edges_streamed) /
                      static_cast<double>(a.stats.logical_edges));
        store.reset();  // before `registry` goes
    }
    store = make_store(1, nullptr);
    Phase p1;
    {
        const ScopedPin producer(kProducerCpu);
        (void)setup(*store, ws, rep);
        p1 = timed_phase(*store, ws, steps / kScalingDivisor, rep);
    }
    rep.layer("sharded.scaling", eps3 / median(p1.block_eps));
    const Analytics a1 = run_analytics(*store, ws, nullptr, rep);
    rep.layer("engine.parallel.scaling", median(a1.ms) / bfs3_ms);
    return rep;
}

}  // namespace ledger

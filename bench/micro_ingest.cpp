// Micro bench for the batched ingest pipeline: edges/sec across batch sizes
// for the per-edge baseline, the source-grouped single-instance fast path,
// and the radix-partitioned 8-shard wrapper. Emits BENCH_ingest.json.
//
// The per-edge baseline applies insert_edge one update at a time — the state
// of the repo before the batch pipeline existed. The fast-path rows call
// insert_batch, which sorts by source, resolves SGH/top once per run,
// prefetches the next run's edgeblock and probes with the bit-parallel
// kernel. `speedup_batch100k` records fast path vs baseline at the largest
// batch; the CI perf-smoke job fails when `--check` sees it below 0.5x
// (a >2x regression). The ungated batch-1 and batch-16 ratios to per-edge
// are printed: batch 1 runs through the solo op, batch 16 (serve_mixed's
// write size) through the sorted path.
//
// The wal_buffered / wal_fsync rows re-run the batch path with a WAL
// attached (buffered group commit vs fsync-per-batch). The durability
// contract allows buffered logging at most 15% throughput overhead:
// `wal_overhead_batch100k` must stay >= 0.85 under `--check`. It is the
// median of per-pair ratios (buffered-WAL eps / no-WAL eps at batch 100k)
// over at least 5 interleaved pairs — one no-WAL rep, then one buffered-WAL
// rep — so a slow stretch of a shared host lands on both halves of a pair
// instead of on one row's best-of.
//
// The shard-scaling sweep runs the pipelined wrapper at 1/2/4/8 shards
// (batch 100k) and emits `scaling_8x` (sharded8 eps / single-store batch
// eps) plus `sharded_batch1_ratio` (sharded8 at batch 1 vs per-edge).
// Under `--check` these gate at >= 3.0x and >= 0.5x respectively, but only
// when std::thread::hardware_concurrency() can physically express them
// (>= 8 and >= 2 threads) — sharded timings are drained inside the window.
//
// Flags / env:
//   --out=PATH           JSON output path (default BENCH_ingest.json)
//   --registry-out=PATH  standalone gt.obs registry snapshot (optional)
//   --check              exit nonzero on a >2x regression vs baseline
//   GT_INGEST_VERTICES   vertex-id space (default 32768)
//   GT_INGEST_EDGES      stream length   (default 1000000)
//   GT_INGEST_REPS       repetitions per mode, best-of (default 3; the
//                        WAL gate takes max(GT_INGEST_REPS, 5) pairs)
//   GT_INGEST_RMAT_A     RMAT `a` quadrant probability (default 0.57;
//                        b = c = (1 - a) / 3, Graph500-style skew)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hpp"
#include "core/graphtinker.hpp"
#include "core/probe_kernel.hpp"
#include "core/sharded.hpp"
#include "gen/rmat.hpp"
#include "recover/wal.hpp"
#include "obs/export.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace {

using namespace gt;

core::Config sized_config(std::size_t vertices, std::size_t edges) {
    return bench::gt_config(static_cast<VertexId>(vertices),
                            static_cast<EdgeCount>(edges));
}

/// One measured configuration: how a fresh store ingests the whole stream
/// when it arrives in `batch` -sized slices. `edges_per_sec` is the best
/// rep (noise can only slow a run down); `reps` summarizes all of them.
struct Row {
    std::string mode;        // "per_edge" | "batch" | "sharded<N>" | "wal_*"
    std::size_t batch_size;  // slice length fed per call
    double edges_per_sec = 0.0;
    Summary reps;
};

template <typename ApplySlice, typename Finish>
double timed_ingest(std::span<const Edge> edges, std::size_t batch,
                    ApplySlice&& apply, Finish&& finish) {
    Timer timer;
    for (std::size_t i = 0; i < edges.size(); i += batch) {
        const std::size_t len = std::min(batch, edges.size() - i);
        apply(edges.subspan(i, len));
    }
    // Pipelined stores only enqueue in apply; the finish hook (drain) runs
    // inside the timed window so eps reflects applied edges, not hand-offs.
    finish();
    const double secs = timer.seconds();
    return secs > 0.0 ? static_cast<double>(edges.size()) / secs : 0.0;
}

/// One rep: throughput of ingesting the stream into a fresh store built by
/// `make_store` and fed through `apply`.
template <typename MakeStore, typename Apply, typename Finish>
double measure_once(std::span<const Edge> edges, std::size_t batch,
                    MakeStore&& make_store, Apply&& apply, Finish&& finish) {
    auto store = make_store();
    return timed_ingest(
        edges, batch, [&](std::span<const Edge> s) { apply(*store, s); },
        [&] { finish(*store); });
}

/// A row from its rep series. The headline is the best rep (a run can only
/// be slowed down by noise, never sped up); the full series goes through
/// gt::summarize so the JSON carries mean and sample stddev alongside it.
Row make_row(std::string mode, std::size_t batch,
             const std::vector<double>& eps_reps) {
    Row row;
    row.mode = std::move(mode);
    row.batch_size = batch;
    row.reps = summarize(eps_reps);
    row.edges_per_sec = row.reps.max;
    return row;
}

/// measure_once over `reps` repetitions, as one row.
template <typename MakeStore, typename Apply, typename Finish>
Row measure(std::string mode, std::size_t batch_reported, std::size_t reps,
            std::span<const Edge> edges, std::size_t batch,
            MakeStore&& make_store, Apply&& apply, Finish&& finish) {
    std::vector<double> eps_reps;
    eps_reps.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
        eps_reps.push_back(
            measure_once(edges, batch, make_store, apply, finish));
    }
    return make_row(std::move(mode), batch_reported, eps_reps);
}

double median(std::vector<double> xs) {
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

/// GraphTinker with a write-ahead log teed in: measures the durability tax
/// of the logging path itself. Each instance starts from an empty log file
/// (WalWriter::open resumes an existing one, which would skew reps).
struct WalStore {
    core::GraphTinker g;
    recover::WalWriter wal;

    WalStore(const core::Config& cfg, const std::string& path,
             recover::DurabilityMode mode)
        : g(cfg) {
        std::remove(path.c_str());
        if (!wal.open(path, mode).ok()) {
            std::cerr << "cannot open bench WAL at " << path << "\n";
            std::exit(2);
        }
        g.attach_update_log(&wal);
    }
    ~WalStore() {
        g.attach_update_log(nullptr);
        wal.close();
    }
};

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args =
        bench::parse_bench_args(argc, argv, "BENCH_ingest.json");
    if (!args.ok) {
        return 2;
    }

    const std::size_t vertices = env_u64("GT_INGEST_VERTICES", 32768);
    const std::size_t num_edges = env_u64("GT_INGEST_EDGES", 1000000);
    const std::size_t reps = env_u64("GT_INGEST_REPS", 3);
    RmatParams rmat{};
    if (const double a = env_double("GT_INGEST_RMAT_A", 0.0);
        a > 0.25 && a < 1.0) {
        rmat.a = a;
        rmat.b = rmat.c = (1.0 - a) / 3.0;
    }
    bench::banner("micro_ingest",
                  "Batched ingest pipeline: per-edge baseline vs "
                  "source-grouped fast path vs 8-shard partitioned");
    std::cout << "stream: RMAT " << vertices << " vertices, " << num_edges
              << " edges (GT_INGEST_VERTICES / GT_INGEST_EDGES)\n\n";

    const auto edges = rmat_edges(static_cast<VertexId>(vertices),
                                  static_cast<EdgeCount>(num_edges), 42, rmat);
    std::vector<Row> rows;

    const auto fresh_single = [&] {
        return std::make_unique<core::GraphTinker>(
            sized_config(vertices, num_edges));
    };
    const auto fresh_sharded = [&](std::size_t shards) {
        return [&, shards] {
            return std::make_unique<core::ShardedStore<core::GraphTinker>>(
                shards, [&, shards] {
                    return sized_config(vertices / shards + 1,
                                        num_edges / shards + 1);
                });
        };
    };
    // Non-pipelined stores have nothing to drain at the end of the window.
    const auto no_finish = [](auto&) {};
    const auto drain_sharded = [](core::ShardedStore<core::GraphTinker>& st) {
        st.drain();
    };

    // Per-edge baseline: always one update per call, measured once — slicing
    // a per-edge loop changes nothing, so it doubles as the reference for
    // every batch size.
    rows.push_back(measure(
        "per_edge", 1, reps, std::span<const Edge>(edges), 1, fresh_single,
        [](core::GraphTinker& st, std::span<const Edge> s) {
            for (const Edge& e : s) {
                (void)st.insert_edge(e.src, e.dst, e.weight);
            }
        },
        no_finish));

    const auto apply_single = [](core::GraphTinker& st,
                                 std::span<const Edge> s) {
        (void)st.insert_batch(s);
    };
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{16}, std::size_t{1000}}) {
        rows.push_back(measure("batch", batch, reps,
                               std::span<const Edge>(edges), batch,
                               fresh_single, apply_single, no_finish));
    }

    // Batch 100k without and with a buffered WAL, in interleaved pairs:
    // wal_overhead_batch100k is the median of the per-pair ratios.
    const std::string wal_path = args.out_path + ".wal.tmp";
    const auto fresh_wal = [&](recover::DurabilityMode mode) {
        return [&, mode] {
            return std::make_unique<WalStore>(
                sized_config(vertices, num_edges), wal_path, mode);
        };
    };
    const auto apply_wal = [](WalStore& st, std::span<const Edge> s) {
        (void)st.g.insert_batch(s);
    };
    const std::size_t wal_pairs = std::max<std::size_t>(reps, 5);
    std::vector<double> plain_eps;
    std::vector<double> wal_eps;
    std::vector<double> wal_ratios;
    for (std::size_t r = 0; r < wal_pairs; ++r) {
        plain_eps.push_back(measure_once(std::span<const Edge>(edges), 100000,
                                         fresh_single, apply_single,
                                         no_finish));
        wal_eps.push_back(measure_once(
            std::span<const Edge>(edges), 100000,
            fresh_wal(recover::DurabilityMode::Buffered), apply_wal,
            no_finish));
        wal_ratios.push_back(plain_eps.back() > 0.0
                                 ? wal_eps.back() / plain_eps.back()
                                 : 0.0);
    }
    rows.push_back(make_row("batch", 100000, plain_eps));

    // 8-shard wrapper across batch sizes, then the shard-scaling sweep at the
    // largest batch (shards in {1, 2, 4, 8} -> the scaling_8x figure). Drain
    // runs inside the timed window so a row measures applied edges, not the
    // hand-off rate into the per-shard queues.
    const auto apply_sharded = [](core::ShardedStore<core::GraphTinker>& st,
                                  std::span<const Edge> s) {
        (void)st.insert_batch(s);
    };
    for (const std::size_t batch : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{100000}}) {
        rows.push_back(measure("sharded8", batch, reps,
                               std::span<const Edge>(edges), batch,
                               fresh_sharded(8), apply_sharded, drain_sharded));
    }
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
        rows.push_back(measure("sharded" + std::to_string(shards), 100000,
                               reps, std::span<const Edge>(edges), 100000,
                               fresh_sharded(shards), apply_sharded,
                               drain_sharded));
    }

    // Durability rows: same batch path, WAL teed in (buffered at batch 100k
    // came from the pairs above). Per-edge WAL logging (batch 1 in fsync
    // mode) would be one fsync per edge — measured only at the batch sizes
    // the durability contract targets.
    rows.push_back(measure("wal_buffered", 1000, reps,
                           std::span<const Edge>(edges), 1000,
                           fresh_wal(recover::DurabilityMode::Buffered),
                           apply_wal, no_finish));
    rows.push_back(make_row("wal_buffered", 100000, wal_eps));
    for (const std::size_t batch : {std::size_t{1000}, std::size_t{100000}}) {
        rows.push_back(measure("wal_fsync", batch, reps,
                               std::span<const Edge>(edges), batch,
                               fresh_wal(recover::DurabilityMode::FsyncBatch),
                               apply_wal, no_finish));
    }
    std::remove(wal_path.c_str());

    double baseline = 0.0;
    double batch1 = 0.0;
    double batch16 = 0.0;
    double batch100k = 0.0;
    double sharded8_100k = 0.0;
    double sharded8_1 = 0.0;
    Table table({"mode", "batch", "edges/sec", "mean", "stddev"});
    for (const Row& row : rows) {
        if (row.mode == "per_edge") {
            baseline = row.edges_per_sec;
        }
        if (row.mode == "batch" && row.batch_size == 1) {
            batch1 = row.edges_per_sec;
        }
        if (row.mode == "batch" && row.batch_size == 16) {
            batch16 = row.edges_per_sec;
        }
        if (row.mode == "batch" && row.batch_size == 100000) {
            batch100k = row.edges_per_sec;
        }
        if (row.mode == "sharded8" && row.batch_size == 100000) {
            sharded8_100k = row.edges_per_sec;
        }
        if (row.mode == "sharded8" && row.batch_size == 1) {
            sharded8_1 = row.edges_per_sec;
        }
        table.add_row({row.mode, std::to_string(row.batch_size),
                       Table::fmt(row.edges_per_sec / 1e6, 3) + " M",
                       Table::fmt(row.reps.mean / 1e6, 3) + " M",
                       Table::fmt(row.reps.stddev / 1e6, 3) + " M"});
    }
    table.print(std::cout);
    const double speedup = baseline > 0.0 ? batch100k / baseline : 0.0;
    const double batch1_ratio = baseline > 0.0 ? batch1 / baseline : 0.0;
    const double batch16_ratio = baseline > 0.0 ? batch16 / baseline : 0.0;
    const double wal_overhead = median(wal_ratios);
    const double scaling_8x = batch100k > 0.0 ? sharded8_100k / batch100k : 0.0;
    const double sharded_batch1_ratio =
        baseline > 0.0 ? sharded8_1 / baseline : 0.0;
    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "\nspeedup (batch 100k vs per-edge): "
              << Table::fmt(speedup, 2) << "x\n";
    std::cout << "small batches vs per-edge: batch 1 "
              << Table::fmt(batch1_ratio, 2) << "x, batch 16 "
              << Table::fmt(batch16_ratio, 2) << "x\n";
    std::cout << "wal overhead (buffered WAL vs no WAL, batch 100k; median of "
              << wal_pairs << " paired ratios): " << Table::fmt(wal_overhead, 2)
              << "x\n";
    std::cout << "scaling (8 shards vs single store, batch 100k): "
              << Table::fmt(scaling_8x, 2) << "x\n";
    std::cout << "sharded batch-1 vs per-edge: "
              << Table::fmt(sharded_batch1_ratio, 2) << "x  ("
              << hw << " hardware threads)\n";
    // Stable machine-readable line; tools/check_obs_overhead.sh diffs this
    // figure between GT_OBS=ON and GT_OBS=OFF builds.
    std::cout << "headline_batch100k_eps=" << batch100k << "\n";

    // One more untimed batch-100k ingest into a fresh store: its registry
    // snapshot records what the fast path did (probe histograms, batch
    // latencies, block churn) for the JSON artifacts.
    auto instrumented = fresh_single();
    for (std::size_t i = 0; i < edges.size(); i += 100000) {
        const std::size_t len = std::min<std::size_t>(100000,
                                                      edges.size() - i);
        (void)instrumented->insert_batch(
            std::span<const Edge>(edges).subspan(i, len));
    }
    const obs::Snapshot snap = instrumented->telemetry();

    std::ofstream json(args.out_path);
    obs::JsonWriter w(json);
    w.begin_object();
    w.member("bench", "micro_ingest");
    w.member("vertices", static_cast<std::uint64_t>(vertices));
    w.member("edges", static_cast<std::uint64_t>(num_edges));
    w.member("rmat_a", rmat.a);
    w.member("reps", static_cast<std::uint64_t>(reps));
    w.member("simd", gt::core::kProbeKernelSimd);
    w.member("speedup_batch100k", speedup);
    w.member("wal_overhead_batch100k", wal_overhead);
    w.member("scaling_8x", scaling_8x);
    w.member("sharded_batch1_ratio", sharded_batch1_ratio);
    w.member("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.key("results").begin_array();
    for (const Row& row : rows) {
        w.begin_object();
        w.member("mode", row.mode);
        w.member("batch", static_cast<std::uint64_t>(row.batch_size));
        w.member("edges_per_sec", row.edges_per_sec);
        w.member("eps_mean", row.reps.mean);
        w.member("eps_stddev", row.reps.stddev);
        w.end_object();
    }
    w.end_array();
    w.key("registry");
    obs::Exporter::append_json(w, snap);
    w.end_object();
    w.finish();
    std::cout << "wrote " << args.out_path << "\n";

    bench::write_registry_snapshot(args.registry_out, snap);

    if (args.check && speedup < 0.5) {
        std::cerr << "REGRESSION: batch-100k fast path at "
                  << Table::fmt(speedup, 2)
                  << "x of the per-edge baseline (threshold 0.5x)\n";
        return 1;
    }
    if (args.check && wal_overhead < 0.85) {
        std::cerr << "REGRESSION: buffered WAL at "
                  << Table::fmt(wal_overhead, 2)
                  << "x of no-WAL batch-100k throughput (threshold 0.85x)\n";
        return 1;
    }
    // Scaling gates are physical claims about parallel hardware; on small
    // machines (CI shared runners, containers pinned to one core) the 8-shard
    // pipeline time-slices a single CPU and the thresholds are unattainable,
    // so each gate arms only when enough hardware threads exist to express it.
    if (args.check && hw >= 8 && scaling_8x < 3.0) {
        std::cerr << "REGRESSION: 8-shard ingest at "
                  << Table::fmt(scaling_8x, 2)
                  << "x of single-store batch-100k throughput "
                  << "(threshold 3.0x, hw=" << hw << ")\n";
        return 1;
    }
    if (args.check && hw < 8) {
        std::cout << "scaling_8x gate skipped: " << hw
                  << " hardware threads (< 8)\n";
    }
    if (args.check && hw >= 2 && sharded_batch1_ratio < 0.5) {
        std::cerr << "REGRESSION: sharded batch-1 ingest at "
                  << Table::fmt(sharded_batch1_ratio, 2)
                  << "x of the per-edge baseline (threshold 0.5x, hw=" << hw
                  << ")\n";
        return 1;
    }
    if (args.check && hw < 2) {
        std::cout << "sharded batch-1 gate skipped: " << hw
                  << " hardware threads (< 2)\n";
    }
    return 0;
}

// serve_mixed: one process running a net::Server (1 loop, 1 reader-pool
// thread) over a 256k-edge window on 2^16 vertices.
//
// Phase A: two closed-loop connections, each on its own thread. The writer
// sends a fixed number of 16-edge updates, alternating an insert of the
// next 16 edges with a delete of the oldest 16 — below the 33-edge batch
// fast path, so each takes the per-edge path and writes one small WAL
// frame. Until the writer finishes, the reader sends degree_of +
// neighbors(v, 64) for skewed v with a think time between requests, plus
// one BFS verb per kWritesPerBfs writer updates.
//
// Phase B starts once both clients stopped: a read-only replica Server and
// a net::Replicator subscribe from seq 0 and pump until lag 0. The backlog
// is exactly the WAL the primary holds at that point; a stream the primary
// cuts off is recorded as measured (see NOTES.md), never retried.
//
// The only workload that exercises the wire, loop dispatch, the reader pool
// and replica apply.
#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/graphtinker.hpp"
#include "ledger.hpp"
#include "net/client.hpp"
#include "net/replica.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "recover/durable.hpp"
#include "util/mutex.hpp"

namespace ledger {
namespace {

using gt::net::Client;
using gt::net::RemoteGraph;
using gt::net::Server;

constexpr VertexId kVertices = VertexId{1} << 16;
constexpr std::size_t kWindow = std::size_t{1} << 18;  // 256k edges
constexpr std::size_t kUpdateEdges = 16;
constexpr std::size_t kTurnover = kWindow / kUpdateEdges;  // 16-edge steps
/// Fill and turnover go over the wire in batches of this many edges (a
/// whole number of 16-edge steps), so setup stays short.
constexpr std::size_t kSetupBatch = 4096;
/// Phase A writer updates per second of --seconds (fixed op count).
constexpr std::size_t kWritesPerSecond = 12000;
/// The reader pauses this long between requests (a closed loop with think
/// time): reads then load the single loop at a rate the client sets, not
/// one that rises and falls with the server's own speed, which kept the
/// loop near saturation and made the writer's tail swing between runs.
constexpr std::chrono::microseconds kReadThink{200};
/// The reader sends one BFS verb each time the writer completes another
/// kWritesPerBfs updates, so every run blocks the writer equally often.
constexpr std::size_t kWritesPerBfs = 5000;
constexpr std::size_t kBfsTargets = 16;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kBlocks = 10;
static_assert(kWritesPerSecond % kBlocks == 0,
              "the writes split into kBlocks whole blocks");
constexpr std::size_t kRoots = 4;
constexpr std::size_t kTargets = 64;
constexpr std::size_t kPings = 2000;
/// Ladder steps time this many in-process 16-edge updates per block.
constexpr std::size_t kLadderBlock = 64;
constexpr std::int64_t kPumpTimeoutMs = 20'000;
/// Phase A placement (usable-CPU indices). The writer shares a CPU with the
/// server loop: a closed-loop round trip alternates between the two, so
/// they never run at once, and their hand-offs then never wait on another
/// vCPU. Across vCPUs every hand-off can stall behind a preempted vCPU, and
/// the writer's throughput tracked hypervisor steal run to run.
constexpr int kWriterCpu = 0;
constexpr int kLoopCpu = 0;
constexpr int kReaderCpu = 1;
constexpr int kPoolCpu = 2;
constexpr const char* kGraph = "g";

void must(const gt::Status& st, const std::string& what) {
    if (!st.ok()) {
        fatal("serve_mixed: " + what + ": " + st.to_string());
    }
}

/// A Server plus the thread running it. stop() (or the destructor) stops
/// and joins; LocalGraph handles die with it.
struct Hosted {
    gt::obs::Registry registry;
    Server server;
    std::thread runner;
    std::set<pid_t> tids;  // threads the server runs (runner included)
    std::atomic<pid_t> runner_tid{0};

    Hosted() = default;
    Hosted(const Hosted&) = delete;
    Hosted& operator=(const Hosted&) = delete;
    ~Hosted() { stop(); }

    void start(gt::net::ServerOptions opts) {
        opts.registry = &registry;
        const auto before = read_task_cpu();
        must(server.start(opts), "server start");
        runner = std::thread([this] {
            runner_tid.store(this_tid());
            const gt::Status st = server.run();
            if (!st.ok()) {
                fatal("serve_mixed: server run: " + st.to_string());
            }
        });
        // run() spawns its loop and reader threads before it serves; wait
        // until they exist so `tids` is complete.
        const std::size_t want = 1 + opts.loop_threads + opts.reader_threads;
        for (int i = 0; i < 2000 && tids.size() < want; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            tids = new_tids(before, read_task_cpu());
        }
    }
    /// Pins the threads run() spawned, in creation order (loops, then
    /// readers), to the given usable-CPU indices.
    void pin(std::initializer_list<int> cpus) {
        auto cpu = cpus.begin();
        for (const pid_t t : tids) {  // ascending: creation order
            if (t != runner_tid.load() && cpu != cpus.end()) {
                (void)pin_thread(t, *cpu++);
            }
        }
    }
    void stop() {
        if (runner.joinable()) {
            server.stop();
            runner.join();
        }
    }
};

gt::net::ServerOptions primary_options(const std::string& root) {
    gt::net::ServerOptions o;
    o.root = root;
    o.loop_threads = 1;
    o.reader_threads = 1;
    return o;
}

struct Session {
    Client client;
    RemoteGraph graph;
    void open(std::uint16_t port) {
        must(client.connect("127.0.0.1", port), "connect");
        must(client.open(kGraph, graph), "open graph");
    }
};

/// The setup-batch schedule shared by the server and the ladder: fill the
/// window, then turn it over once in kSetupBatch groups (delete the group
/// that left, then insert the next — exact under the stream's filter).
template <typename Insert, typename Delete>
void fill_and_turn_over(const WindowStream& ws, Insert&& ins, Delete&& del) {
    const std::span<const Edge> all(ws.edges);
    for (std::size_t off = 0; off < kWindow; off += kSetupBatch) {
        ins(all.subspan(off, kSetupBatch));
    }
    for (std::size_t off = 0; off < kWindow; off += kSetupBatch) {
        del(all.subspan(off, kSetupBatch));
        ins(all.subspan(kWindow + off, kSetupBatch));
    }
}

/// Phase A's i-th write: insert (even i) or delete (odd i) of one step.
std::span<const Edge> write_batch(const WindowStream& ws, std::size_t i) {
    const std::size_t k = kTurnover + i / 2;
    return i % 2 == 0 ? ws.inserts(k) : ws.deletes(k);
}

struct Primary {
    std::string root;
    std::unique_ptr<Hosted> host;
    double setup_s = 0;
};

Primary setup(const std::string& root, const WindowStream& ws, Report& rep) {
    remove_tree(root);
    make_dirs(root);
    Primary p;
    p.root = root;
    p.host = std::make_unique<Hosted>();
    const std::int64_t t0 = now_ns();
    p.host->start(primary_options(root));
    p.host->pin({kLoopCpu, kPoolCpu});
    Session s;
    s.open(p.host->server.port());
    fill_and_turn_over(
        ws,
        [&](std::span<const Edge> e) {
            rep.op(s.graph.insert_edges(e, nullptr).ok());
        },
        [&](std::span<const Edge> e) {
            rep.op(s.graph.delete_edges(e, nullptr).ok());
        });
    p.setup_s = s_since(t0);
    return p;
}

struct PhaseA {
    std::vector<double> update_ms;
    /// Edges per second of each of kBlocks equal slices of the writes.
    std::vector<double> block_eps;
    std::vector<double> read_ms;
    std::vector<double> analytics_ms;
    double wall_s = 0;  // the writer's
    std::uint64_t ops = 0;
};

PhaseA phase_a(std::uint16_t port, const WindowStream& ws,
               std::span<const VertexId> reads, std::size_t writes,
               Report& rep) {
    PhaseA a;
    Session ws_session;
    Session rs_session;
    ws_session.open(port);
    rs_session.open(port);
    std::atomic<bool> writer_done{false};
    std::atomic<std::size_t> writes_done{0};
    std::uint64_t write_failed = 0;
    std::uint64_t read_attempted = 0;
    std::uint64_t read_failed = 0;
    const std::vector<VertexId> bfs_targets(
        ws.targets.begin(), ws.targets.begin() + kBfsTargets);

    std::thread writer([&] {
        (void)pin_thread(0, kWriterCpu);
        const std::size_t block = writes / kBlocks;
        const std::int64_t t0 = now_ns();
        std::int64_t block_t0 = t0;
        for (std::size_t i = 0; i < writes; ++i) {
            if (i > 0 && i % block == 0) {
                a.block_eps.push_back(
                    static_cast<double>(block * kUpdateEdges) /
                    s_since(block_t0));
                block_t0 = now_ns();
            }
            const ScopedSpan span(SpanKind::Update, i + 1);
            const std::span<const Edge> batch = write_batch(ws, i);
            const std::int64_t t = now_ns();
            const gt::Status st =
                i % 2 == 0 ? ws_session.graph.insert_edges(batch, nullptr)
                           : ws_session.graph.delete_edges(batch, nullptr);
            a.update_ms.push_back(ms_since(t));
            write_failed += st.ok() ? 0 : 1;
            writes_done.store(i + 1, std::memory_order_relaxed);
        }
        a.wall_s = s_since(t0);
        a.block_eps.push_back(static_cast<double>(block * kUpdateEdges) /
                              s_since(block_t0));
        writer_done.store(true, std::memory_order_release);
    });
    std::thread reader([&] {
        (void)pin_thread(0, kReaderCpu);
        std::uint64_t deg = 0;
        std::vector<std::pair<VertexId, gt::Weight>> nbrs;
        std::vector<std::uint32_t> dist;
        std::size_t r = 0;
        std::size_t q = 0;
        while (!writer_done.load(std::memory_order_acquire)) {
            if (writes_done.load(std::memory_order_relaxed) / kWritesPerBfs > q) {
                const ScopedSpan span(SpanKind::Analytics, q + 1);
                const std::int64_t t = now_ns();
                const gt::Status st = rs_session.graph.bfs_distances(
                    ws.roots[q++ % ws.roots.size()], bfs_targets, dist);
                a.analytics_ms.push_back(ms_since(t));
                ++read_attempted;
                read_failed += st.ok() ? 0 : 1;
                continue;
            }
            const VertexId v = reads[r % reads.size()];
            {
                const ScopedSpan span(SpanKind::Read, r + 1);
                const std::int64_t t = now_ns();
                const gt::Status st =
                    r % 2 == 0 ? rs_session.graph.degree_of(v, deg)
                               : rs_session.graph.neighbors(v, nbrs, 64);
                a.read_ms.push_back(ms_since(t));
                ++read_attempted;
                read_failed += st.ok() ? 0 : 1;
            }
            ++r;
            std::this_thread::sleep_for(kReadThink);
        }
    });
    writer.join();
    reader.join();
    rep.attempted += writes + read_attempted;
    rep.failed += write_failed + read_failed;
    a.ops = writes + read_attempted;
    return a;
}

/// Edge count and BFS distances over the wire against the model.
void check_primary(std::uint16_t port, const WindowStream& ws,
                   std::size_t steps_done, Report& rep) {
    Session s;
    s.open(port);
    std::uint64_t edges = 0;
    std::uint64_t vertices = 0;
    const gt::Status st = s.graph.count(edges, vertices);
    rep.check(st.ok() && edges == kWindow,
              "serve_mixed: primary edge count " + std::to_string(edges) +
                  " != model " + std::to_string(kWindow));
    const gt::engine::CsrSnapshot model(ws.live(steps_done), kVertices);
    std::vector<std::uint32_t> dist;
    for (const VertexId root : ws.roots) {
        const bool ok = s.graph.bfs_distances(root, ws.targets, dist).ok();
        rep.check(ok, "serve_mixed: bfs_distances failed");
        if (ok) {
            const std::string diff = compare_bfs(model, root, ws.targets, dist);
            rep.check(diff.empty(), "serve_mixed: " + diff);
        }
    }
}

struct PhaseB {
    bool caught_up = false;
    double catchup_s = 0;
    double applied_share = 0;
    double backlog_edges = 0;
    std::vector<double> pump_ms;
    std::uint64_t frames_shipped = 0;
    double replicator_cpu_s = 0;
    double primary_cpu_s = 0;
    std::string error;
};

double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

PhaseB phase_b(Primary& primary, const std::string& replica_root,
               std::size_t writes, Report& rep) {
    PhaseB b;
    Server::LocalGraph pg;
    must(primary.host->server.open_local(kGraph, pg), "primary open_local");
    std::uint64_t primary_seq = 0;
    std::uint64_t primary_edges = 0;
    {
        const gt::SharedLockGuard lock(*pg.lock);
        primary_seq = pg.store->wal().durable_seq();
        primary_edges = pg.store->graph().num_edges();
    }
    // Every edge record the primary WAL holds: fill, turnover, phase A.
    b.backlog_edges = static_cast<double>(3 * kWindow + writes * kUpdateEdges);

    remove_tree(replica_root);
    make_dirs(replica_root);
    Hosted replica;
    gt::net::ServerOptions ro;
    ro.root = replica_root;
    ro.read_only = true;
    replica.start(ro);
    Server::LocalGraph rg;
    must(replica.server.open_local(kGraph, rg), "replica open_local");

    gt::obs::Counter& shipped = primary.host->registry.counter(
        "net.wal_frames_shipped");
    const std::uint64_t shipped0 = shipped.value();
    const auto cpu0 = read_task_cpu();
    const double self0 = thread_cpu_s();
    gt::net::Replicator feeder;
    gt::net::ReplicatorOptions fo;
    fo.port = primary.host->server.port();
    fo.graph = kGraph;
    fo.server = &replica.server;
    const std::int64_t t0 = now_ns();
    gt::Status st = feeder.start(fo, rg);
    while (st.ok() && feeder.applied_seq() < primary_seq) {
        const ScopedSpan span(SpanKind::Pump);
        const std::int64_t t = now_ns();
        st = feeder.pump_once(kPumpTimeoutMs);
        b.pump_ms.push_back(ms_since(t));
    }
    b.catchup_s = s_since(t0);
    b.replicator_cpu_s = thread_cpu_s() - self0;
    b.primary_cpu_s =
        cpu_seconds_between(cpu0, read_task_cpu(), primary.host->tids);
    b.frames_shipped = shipped.value() - shipped0;
    b.caught_up = st.ok();
    b.applied_share = static_cast<double>(feeder.applied_seq()) /
                      static_cast<double>(primary_seq);
    if (!b.caught_up) {
        b.error = st.to_string();
        rep.notes.push_back(
            "replica stream failed after " +
            std::to_string(feeder.applied_seq()) + " of " +
            std::to_string(primary_seq) + " seqs (" +
            std::to_string(primary_seq - feeder.applied_seq()) +
            " behind): " + b.error);
    } else {
        const gt::SharedLockGuard lock(*rg.lock);
        const gt::EdgeCount replica_edges = rg.store->graph().num_edges();
        rep.check(replica_edges == primary_edges,
                  "serve_mixed: replica edge count " +
                      std::to_string(replica_edges) + " != primary " +
                      std::to_string(primary_edges));
    }
    feeder.close();
    replica.stop();
    return b;
}

void put_e2e(Report& rep, const PhaseA& a, const PhaseB& b,
             Primary& primary) {
    rep.set("update_eps", median(a.block_eps), "1/s");
    rep.set("update_p50_ms", median(a.update_ms), "ms");
    rep.set("update_p90_ms", quantile(a.update_ms, 0.9), "ms");
    rep.set("update_p99_ms", quantile(a.update_ms, 0.99), "ms");
    rep.set("read_p50_ms", median(a.read_ms), "ms");
    rep.set("read_p99_ms", quantile(a.read_ms, 0.99), "ms");
    rep.set("analytics_p50_ms", median(a.analytics_ms), "ms");
    rep.set("replica_catchup_eps",
            b.caught_up ? b.backlog_edges / b.catchup_s : 0.0, "1/s");
    rep.set("replica_applied_share", b.applied_share, "share");
    Server::LocalGraph pg;
    must(primary.host->server.open_local(kGraph, pg), "primary open_local");
    const gt::SharedLockGuard lock(*pg.lock);
    const double live = static_cast<double>(pg.store->graph().num_edges());
    rep.set("bytes_per_edge",
            static_cast<double>(pg.store->graph().memory_footprint().total()) /
                live,
            "B");
    rep.set("disk_bytes_per_edge",
            static_cast<double>(dir_bytes(primary.root + "/" + kGraph)) / live,
            "B");
}

/// One in-process ladder step: the setup schedule untimed, then phase A's
/// write stream timed in blocks. Returns the median per-update microseconds.
template <typename Insert, typename Delete>
double ladder_step(const WindowStream& ws, std::size_t writes, Insert&& ins,
                   Delete&& del) {
    fill_and_turn_over(ws, ins, del);
    std::vector<double> per_update;
    for (std::size_t i = 0; i + kLadderBlock <= writes; i += kLadderBlock) {
        const std::int64_t t0 = now_ns();
        for (std::size_t j = i; j < i + kLadderBlock; ++j) {
            if (j % 2 == 0) {
                ins(write_batch(ws, j));
            } else {
                del(write_batch(ws, j));
            }
        }
        per_update.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                             static_cast<double>(kLadderBlock));
    }
    return median(per_update);
}

}  // namespace

Report run_serve_mixed(const Args& args) {
    require_thread_budget("serve_mixed", "A (loop, reader pool, 2 clients)", 4);
    require_thread_budget("serve_mixed", "B (primary loop, replicator, replica loop)", 3);
    const std::size_t writes =
        kWritesPerSecond * static_cast<std::size_t>(args.seconds);
    const WindowStream ws =
        make_window_stream(kVertices, kWindow, kUpdateEdges,
                           kTurnover + writes / 2, args.seed, kRoots, kTargets);
    const std::vector<VertexId> reads =
        skewed_vertices(kVertices, std::size_t{1} << 18, args.seed);
    const std::size_t steps_done = kTurnover + writes / 2;
    const std::string root = args.work_dir + "/serve";
    Report rep;

    std::vector<double> setup_s;
    double untraced_wall = 0;
    {
        Primary primary;
        for (std::size_t i = 0; i < kSetups; ++i) {
            primary = Primary{};  // stops the previous server first
            primary = setup(root + "/primary", ws, rep);
            setup_s.push_back(primary.setup_s);
        }
        rep.set("setup_s", median(setup_s), "s");
        rep.set("setup_first_s", setup_s.front(), "s");
        const std::uint16_t port = primary.host->server.port();
        const PhaseA a = phase_a(port, ws, reads, writes, rep);
        untraced_wall = a.wall_s;
        if (!args.trace) {
            check_primary(port, ws, steps_done, rep);
        }
        const PhaseB b = phase_b(primary, root + "/replica", writes, rep);
        put_e2e(rep, a, b, primary);
    }
    if (!args.trace) {
        rep.set("ok_share",
                static_cast<double>(rep.attempted - rep.failed) /
                    static_cast<double>(rep.attempted),
                "share");
        remove_tree(root);
        return rep;
    }

    // Traced run: the untraced phases above are the baseline (their
    // end-to-end values sit next to the layers and anchor the ladders and
    // the tracing overhead); then one more primary, traced.
    Primary primary = setup(root + "/primary", ws, rep);
    const std::uint16_t port = primary.host->server.port();
    {
        const ScopedPin as_writer(kWriterCpu);  // same placement as phase A
        Session s;
        s.open(port);
        std::vector<double> rtt_us;
        for (std::size_t i = 0; i < kPings; ++i) {
            const std::int64_t t = now_ns();
            rep.op(s.client.ping().ok());
            rtt_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        }
        rep.layer("net.ping_rtt_p50_us", median(rtt_us));
    }
    Server::LocalGraph pg;
    must(primary.host->server.open_local(kGraph, pg), "primary open_local");
    const gt::core::GraphTinker& graph = pg.store->graph();
    TimedLog tlog(&pg.store->wal());
    {
        const gt::LockGuard<gt::SharedMutex> lock(*pg.lock);
        pg.store->graph().attach_update_log(&tlog);
    }
    gt::obs::Registry& net = primary.host->registry;
    const auto net_counter = [&](const char* name) {
        return static_cast<double>(net.counter(name).value());
    };
    const double bytes0 = net_counter("net.bytes_rx") + net_counter("net.bytes_tx");
    const double shed0 = net_counter("net.busy_shed");
    const double deferred0 = net_counter("net.deferred_ops");
    const CoreCounters core0 = core_counters(graph);
    const auto cpu0 = read_task_cpu();
    Tracer::enable(true);
    const PhaseA a = phase_a(port, ws, reads, writes, rep);
    Tracer::enable(false);
    const auto cpu1 = read_task_cpu();
    {
        const gt::LockGuard<gt::SharedMutex> lock(*pg.lock);
        pg.store->graph().attach_update_log(&pg.store->wal());
    }
    const double ops = static_cast<double>(a.ops);
    rep.layer("net.bytes_per_op",
              (net_counter("net.bytes_rx") + net_counter("net.bytes_tx") -
               bytes0) / ops);
    rep.layer("net.busy_shed_share", (net_counter("net.busy_shed") - shed0) / ops);
    rep.layer("net.deferred_share",
              (net_counter("net.deferred_ops") - deferred0) / ops);
    rep.layer("net.server_busy_share",
              cpu_seconds_between(cpu0, cpu1, primary.host->tids) / a.wall_s);
    rep.layer("trace.overhead_share", a.wall_s / untraced_wall - 1.0);
    std::vector<double> stage;
    std::vector<double> commit;
    wal_frame_ms(stage, commit);
    rep.layer("wal.stage_p50_ms", median(stage));
    rep.layer("wal.commit_p50_ms", median(commit));
    rep.layer("wal.commit_p90_ms", quantile(commit, 0.9));
    {
        const gt::SharedLockGuard lock(*pg.lock);
        const CoreCounters core1 = core_counters(graph);
        const double edges = static_cast<double>(writes * kUpdateEdges);
        put_core_layers(rep, core0, core1, edges, edges / 2,
                        space_gauges(graph));
        rep.layer("wal.bytes_per_update",
                  (core1.wal_bytes - core0.wal_bytes) /
                      static_cast<double>(writes));
        put_engine_layers(rep, graph, ws.roots);
        rep.layer("core.point_read_us", point_read_us(graph, reads));
    }
    check_primary(port, ws, steps_done, rep);

    Tracer::enable(true);
    const PhaseB b = phase_b(primary, root + "/replica", writes, rep);
    Tracer::enable(false);
    rep.layer("replica.pump_p50_ms", median(b.pump_ms));
    rep.layer("replica.apply_busy_share", b.replicator_cpu_s / b.catchup_s);
    rep.layer("replica.primary_busy_share", b.primary_cpu_s / b.catchup_s);
    rep.layer("replica.frames_shipped", static_cast<double>(b.frames_shipped));
    rep.layer("replica.stream_failures", b.caught_up ? 0.0 : 1.0);
    primary.host.reset();

    // Serve-write ladder: bare GraphTinker, then an in-process DurableStore
    // (buffered WAL), each fed phase A's write stream; the wire step is the
    // measured round trip.
    double bare_us = 0;
    {
        gt::core::GraphTinker bare;
        bare_us = ladder_step(
            ws, writes,
            [&](std::span<const Edge> e) { rep.op(bare.insert_batch(e).ok()); },
            [&](std::span<const Edge> e) { rep.op(bare.delete_batch(e).ok()); });
    }
    double durable_us = 0;
    {
        const std::string dir = root + "/ladder";
        remove_tree(dir);
        gt::recover::DurableStore store;
        must(store.open(dir), "ladder open");
        durable_us = ladder_step(
            ws, writes,
            [&](std::span<const Edge> e) {
                rep.op(store.insert_edges(e, nullptr).ok());
            },
            [&](std::span<const Edge> e) {
                rep.op(store.delete_edges(e, nullptr).ok());
            });
    }
    const double update_us = rep.e2e["update_p50_ms"].value * 1e3;
    const double read_us = rep.e2e["read_p50_ms"].value * 1e3;
    const double rtt_us = rep.layers["net.ping_rtt_p50_us"].value;
    rep.layer("core.small_update_p50_us", bare_us);
    rep.layer("wal.small_update_p50_us", durable_us);
    rep.layer("net.update_overhead_p50_us", update_us - durable_us);
    rep.layer("net.read_overhead_p50_us",
              read_us - rep.layers["core.point_read_us"].value);
    rep.layer("net.write_ladder_unexplained_share",
              1.0 - (durable_us + rtt_us) / update_us);
    remove_tree(root);
    return rep;
}

}  // namespace ledger

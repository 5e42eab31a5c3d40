// local_churn: one thread driving an in-process recover::DurableStore.
//
// A 1M-edge sliding window over 2^20 vertices. Each step inserts the next
// 5k edges and deletes the 5k that left the window (5k-edge batches take
// the sorted batch path). Every kCheckpointEvery steps the store runs
// checkpoint() + prune_wal(); every kBfsEvery steps it answers one BFS
// from a top out-degree root. At the end the store is closed and the
// reopen is timed. No threads, no sockets: the steadiest view of src/core
// and src/recover.
#include <fstream>
#include <memory>
#include <streambuf>
#include <string>

#include "core/audit.hpp"
#include "core/serialize.hpp"
#include "ledger.hpp"
#include "recover/durable.hpp"
#include "recover/wal.hpp"

namespace ledger {
namespace {

using gt::recover::DurableStore;

constexpr VertexId kVertices = VertexId{1} << 20;
constexpr std::size_t kWindow = 1'000'000;
constexpr std::size_t kStep = 5'000;
constexpr std::size_t kTurnover = kWindow / kStep;
/// Timed steps per second of --seconds (fixed op count, sized so the timed
/// phase lasts about --seconds on a 4-core x86 host).
constexpr std::size_t kStepsPerSecond = 100;
/// Checkpoints fall mid-period so the store closes with a WAL tail of half
/// a period for recovery to replay.
constexpr std::size_t kCheckpointEvery = 100;
static_assert(kStepsPerSecond % kCheckpointEvery == 0,
              "the timed phase is a whole number of checkpoint periods");
constexpr std::size_t kBfsEvery = 50;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kRoots = 4;
constexpr std::size_t kTargets = 64;

/// Counts bytes and discards them: write_snapshot without the disk.
class DiscardBuf final : public std::streambuf {
protected:
    int_type overflow(int_type c) override {
        return traits_type::eq_int_type(c, traits_type::eof())
                   ? traits_type::not_eof(c)
                   : c;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
        return n;
    }
};

struct Phase {
    /// One window step: the insert call plus the delete call. Timed as a
    /// pair because the two calls cost differently, and a median over a
    /// 50/50 mix of two clusters would sit in the gap between them.
    std::vector<double> step_ms;
    std::vector<double> checkpoint_ms;
    std::vector<double> analytics_ms;
    /// Edges per second of each checkpoint period (one checkpoint and
    /// kCheckpointEvery steps each; the BFS queries excluded).
    std::vector<double> block_eps;
    double update_wall_s = 0;  // timed wall minus the BFS queries
    double edges = 0;          // inserted + deleted
};

void must(const gt::Status& st, const char* what) {
    if (!st.ok()) {
        fatal(std::string("local_churn: ") + what + ": " + st.to_string());
    }
}

/// Opens a fresh store, fills the window, turns it over once, then
/// checkpoints and prunes so every timed checkpoint is a steady-state one.
/// Returns the seconds it took.
double setup(DurableStore& store, const std::string& dir,
             const WindowStream& ws, Report& rep) {
    remove_tree(dir);
    const std::int64_t t0 = now_ns();
    must(store.open(dir), "open");
    const std::span<const Edge> fill = ws.live(0);
    for (std::size_t off = 0; off < fill.size(); off += kStep) {
        rep.op(store.insert_edges(fill.subspan(off, kStep), nullptr).ok());
    }
    for (std::size_t k = 0; k < kTurnover; ++k) {
        rep.op(store.insert_edges(ws.inserts(k), nullptr).ok());
        rep.op(store.delete_edges(ws.deletes(k), nullptr).ok());
    }
    must(store.checkpoint(), "setup checkpoint");
    must(store.prune_wal(), "setup prune");
    return s_since(t0);
}

/// The timed phase: steps [kTurnover, kTurnover + steps). With `tlog` set,
/// the decorator is (re)attached after every prune.
Phase timed_phase(DurableStore& store, const WindowStream& ws,
                  std::size_t steps, Report& rep, TimedLog* tlog) {
    Phase p;
    std::vector<std::uint32_t> dist;
    std::size_t query = 0;
    std::int64_t analytics_ns = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t block_t0 = t0;
    std::int64_t block_analytics_ns = 0;
    for (std::size_t j = 0; j < steps; ++j) {
        if (j > 0 && j % kCheckpointEvery == 0) {
            p.block_eps.push_back(
                static_cast<double>(2 * kStep * kCheckpointEvery) * 1e9 /
                static_cast<double>(now_ns() - block_t0 - block_analytics_ns));
            block_t0 = now_ns();
            block_analytics_ns = 0;
        }
        const std::size_t k = kTurnover + j;
        const std::int64_t t = now_ns();
        {
            const ScopedSpan span(SpanKind::Update, 2 * j + 1);
            rep.op(store.insert_edges(ws.inserts(k), nullptr).ok());
        }
        {
            const ScopedSpan span(SpanKind::Update, 2 * j + 2);
            rep.op(store.delete_edges(ws.deletes(k), nullptr).ok());
        }
        p.step_ms.push_back(ms_since(t));
        if (j % kCheckpointEvery == kCheckpointEvery / 2) {
            const std::int64_t t = now_ns();
            {
                const ScopedSpan span(SpanKind::Checkpoint);
                rep.op(store.checkpoint().ok());
            }
            {
                const ScopedSpan span(SpanKind::Prune);
                rep.op(store.prune_wal().ok());
            }
            if (tlog != nullptr) {
                store.graph().attach_update_log(tlog);
            }
            p.checkpoint_ms.push_back(ms_since(t));
        }
        if (j % kBfsEvery == kBfsEvery / 2) {
            const ScopedSpan span(SpanKind::Analytics);
            const std::int64_t t = now_ns();
            rep.op(store.bfs_distances(ws.roots[query++ % ws.roots.size()],
                                       ws.targets, dist)
                       .ok());
            analytics_ns += now_ns() - t;
            block_analytics_ns += now_ns() - t;
            p.analytics_ms.push_back(ms_since(t));
        }
    }
    p.block_eps.push_back(
        static_cast<double>(2 * kStep * kCheckpointEvery) * 1e9 /
        static_cast<double>(now_ns() - block_t0 - block_analytics_ns));
    p.update_wall_s =
        static_cast<double>(now_ns() - t0 - analytics_ns) / 1e9;
    p.edges = static_cast<double>(2 * kStep * steps);
    return p;
}

/// Live edge count and BFS distances from every root against the model.
void check_store(DurableStore& store, const WindowStream& ws,
                 std::size_t steps_done, Report& rep) {
    const gt::EdgeCount edges = store.graph().num_edges();
    rep.check(edges == kWindow, "local_churn: num_edges " +
                                    std::to_string(edges) + " != model " +
                                    std::to_string(kWindow));
    const gt::engine::CsrSnapshot model(ws.live(steps_done), kVertices);
    std::vector<std::uint32_t> dist;
    for (const VertexId root : ws.roots) {
        const bool ok = store.bfs_distances(root, ws.targets, dist).ok();
        rep.check(ok, "local_churn: bfs_distances failed");
        if (ok) {
            const std::string diff = compare_bfs(model, root, ws.targets, dist);
            rep.check(diff.empty(), "local_churn: " + diff);
        }
    }
}

void put_phase_e2e(Report& rep, const Phase& p) {
    rep.set("update_eps", median(p.block_eps), "1/s");
    rep.set("update_p50_ms", median(p.step_ms), "ms");
    rep.set("update_p90_ms", quantile(p.step_ms, 0.9), "ms");
    rep.set("analytics_p50_ms", median(p.analytics_ms), "ms");
    rep.set("checkpoint_p50_ms", median(p.checkpoint_ms), "ms");
}

/// Space metrics at the end of the timed phase (before close).
void put_space_e2e(Report& rep, const DurableStore& store,
                   const std::string& dir) {
    const double live = static_cast<double>(store.graph().num_edges());
    rep.set("bytes_per_edge",
            static_cast<double>(store.graph().memory_footprint().total()) /
                live,
            "B");
    rep.set("disk_bytes_per_edge", static_cast<double>(dir_bytes(dir)) / live,
            "B");
}

/// Closes, then times the reopen and checks the recovered store.
double reopen_and_check(std::unique_ptr<DurableStore>& store,
                        const std::string& dir, Report& rep) {
    store->close();
    store = std::make_unique<DurableStore>();
    const std::int64_t t0 = now_ns();
    const gt::Status st = store->open(dir);
    const double recover_s = s_since(t0);
    rep.op(st.ok());
    rep.check(st.ok(), "local_churn: reopen failed: " + st.to_string());
    if (st.ok()) {
        const gt::EdgeCount edges = store->graph().num_edges();
        rep.check(edges == kWindow,
                  "local_churn: reopened num_edges " + std::to_string(edges));
        const gt::core::AuditReport audit = store->graph().audit();
        rep.check(audit.ok(), "local_churn: reopened audit: " +
                                  audit.to_string());
    }
    return recover_s;
}

/// The recovery ladder: snapshot decode -> WAL replay -> audit, each timed
/// on its own over the files the reopen just read.
void recovery_ladder(const std::string& dir, double recover_s, Report& rep) {
    std::ifstream in(dir + "/snapshot.gts", std::ios::binary);
    gt::core::LoadedSnapshot loaded;
    std::int64_t t0 = now_ns();
    const gt::Status dst = gt::core::read_snapshot(in, loaded);
    const double decode_ms = ms_since(t0);
    if (!dst.ok()) {
        fatal("local_churn: ladder decode: " + dst.to_string());
    }
    gt::recover::ReplayStats stats;
    t0 = now_ns();
    const gt::Status rst = gt::recover::replay_wal(
        dir + "/wal.gtw", *loaded.graph, loaded.wal_seq, stats);
    const double replay_ms = ms_since(t0);
    if (!rst.ok()) {
        fatal("local_churn: ladder replay: " + rst.to_string());
    }
    t0 = now_ns();
    const bool clean = loaded.graph->audit().ok();
    const double audit_ms = ms_since(t0);
    rep.check(clean, "local_churn: ladder audit not clean");
    rep.layer("serialize.decode_ms", decode_ms);
    rep.layer("wal.replay_ms", replay_ms);
    rep.layer("core.audit_ms", audit_ms);
    rep.layer("durable.recover_unexplained_share",
              1.0 - (decode_ms + replay_ms + audit_ms) / (recover_s * 1e3));
}

}  // namespace

Report run_local_churn(const Args& args) {
    require_thread_budget("local_churn", "churn", 1);
    const std::size_t steps =
        kStepsPerSecond * static_cast<std::size_t>(args.seconds);
    const WindowStream ws = make_window_stream(
        kVertices, kWindow, kStep, kTurnover + steps, args.seed, kRoots,
        kTargets);
    const std::size_t steps_done = kTurnover + steps;
    const std::string dir = args.work_dir + "/local";
    Report rep;
    // One thread, kept on one CPU so migrations do not vary between runs.
    const ScopedPin pin(0);

    // kSetups setups, one store in memory at a time; the timed phase runs
    // on the last one.
    std::unique_ptr<DurableStore> store;
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetups; ++i) {
        store.reset();
        store = std::make_unique<DurableStore>();
        setup_s.push_back(setup(*store, dir, ws, rep));
    }
    rep.set("setup_s", median(setup_s), "s");
    rep.set("setup_first_s", setup_s.front(), "s");
    const Phase p = timed_phase(*store, ws, steps, rep, nullptr);
    put_phase_e2e(rep, p);
    put_space_e2e(rep, *store, dir);
    if (!args.trace) {
        check_store(*store, ws, steps_done, rep);
        rep.set("recover_s", reopen_and_check(store, dir, rep), "s");
        rep.set("ok_share",
                static_cast<double>(rep.attempted - rep.failed) /
                    static_cast<double>(rep.attempted),
                "share");
        store.reset();
        remove_tree(dir);
        return rep;
    }

    // Traced run: the untraced run's phase above is the baseline; one more
    // setup (so the traced store follows as many freed stores as the
    // baseline did, give or take one) and the same phase traced.
    store.reset();
    store = std::make_unique<DurableStore>();
    (void)setup(*store, dir, ws, rep);
    const CoreCounters before = core_counters(store->graph());
    TimedLog tlog(&store->wal());
    store->graph().attach_update_log(&tlog);
    Tracer::enable(true);
    const Phase tp = timed_phase(*store, ws, steps, rep, &tlog);
    Tracer::enable(false);
    store->graph().attach_update_log(&store->wal());
    const CoreCounters after = core_counters(store->graph());

    // Update spans come in (insert, delete) pairs; pair them per step like
    // the end-to-end latency.
    const std::vector<double> apply =
        step_sums(span_self_ms(SpanKind::Update));
    rep.layer("core.apply_p50_ms", median(apply));
    rep.layer("core.apply_p90_ms", quantile(apply, 0.9));
    put_core_layers(rep, before, after, tp.edges, tp.edges / 2,
                    space_gauges(store->graph()));
    std::vector<double> stage;
    std::vector<double> commit;
    wal_frame_ms(stage, commit);
    rep.layer("wal.stage_p50_ms", median(stage));
    rep.layer("wal.commit_p50_ms", median(commit));
    rep.layer("wal.commit_p90_ms", quantile(commit, 0.9));
    rep.layer("wal.bytes_per_update",
              (after.wal_bytes - before.wal_bytes) /
                  static_cast<double>(2 * tp.step_ms.size()));
    rep.layer("trace.overhead_share", tp.update_wall_s / p.update_wall_s - 1.0);

    std::vector<double> encode;
    for (int i = 0; i < 3; ++i) {
        DiscardBuf buf;
        std::ostream out(&buf);
        const std::int64_t t0 = now_ns();
        must(gt::core::write_snapshot(store->graph(), out, 0), "encode");
        encode.push_back(ms_since(t0));
    }
    const double encode_ms = median(encode);
    rep.layer("serialize.encode_ms", encode_ms);
    rep.layer("durable.checkpoint_io_ms",
              median(span_ms(SpanKind::Checkpoint)) - encode_ms);
    rep.layer("durable.prune_ms", median(span_ms(SpanKind::Prune)));

    put_engine_layers(rep, store->graph(), ws.roots);
    rep.layer("core.point_read_us",
              point_read_us(store->graph(),
                            skewed_vertices(kVertices, 1 << 16, args.seed)));
    check_store(*store, ws, steps_done, rep);
    const double recover_s = reopen_and_check(store, dir, rep);
    rep.set("recover_s", recover_s, "s");
    store.reset();
    recovery_ladder(dir, recover_s, rep);
    remove_tree(dir);
    return rep;
}

}  // namespace ledger

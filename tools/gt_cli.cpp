// gt — command-line front end for the GraphTinker library.
//
// Subcommands:
//   gt generate <dataset|rmat:V:E> [seed]        emit an edge list to stdout
//   gt stats <file> [--json]                     load a graph, print stats
//                                                + gt.obs telemetry tables
//   gt trace <file> <root> [--json]              BFS with the per-iteration
//                                                engine.trace series (FP/IP
//                                                decisions) printed
//   gt bfs <file> <root>                         hop counts from <root>
//   gt cc <file>                                 component sizes
//   gt pagerank <file> [top_k]                   highest-rank vertices
//   gt triangles <file>                          triangle census
//   gt audit <dataset|rmat:V:E|file> [seed]      deep structural audit
//   gt convert <file.mtx>                        Matrix Market -> edge list
//   gt recover <dir>                             open a durable store dir,
//                                                report the recovery outcome
//   gt wal-dump <file> [limit]                   list the records of a WAL
//   gt torture-writer <dir> <seed> [steps]       crash-torture workload
//                                                writer (killed externally)
//   gt torture-verify <dir> <seed>               recover + committed-prefix
//                                                verification (exit 0/1)
//   gt serve <root> [--host H] [--port N] [--fsync|--nosync] [--readers N]
//                                                run the gt.net.v1 daemon
//                                                (DESIGN.md §14/§15); prints
//                                                "listening on H:P" once
//                                                bound; SIGINT/SIGTERM
//                                                drain and exit cleanly;
//                                                --readers sizes the
//                                                shared-lock pool that runs
//                                                the query verbs (1 to 256,
//                                                default 1)
//   gt replicate <root> <primary host:port> <graph>
//            [--host H] [--port N] [--once]
//                                                warm replica: subscribe to
//                                                the primary's WAL stream,
//                                                mirror + apply it into
//                                                <root>/<graph>, and serve
//                                                read verbs (mutations are
//                                                refused with ReadOnly).
//                                                Prints "lag=0" once caught
//                                                up; --once exits there
//                                                instead of streaming on
//   gt ping <host:port> [count]                  round-trip latency check
//   gt remote-load <host:port> <graph> <file> [batch]
//                                                stream an edge list into a
//                                                named graph over the wire
//   gt remote-bfs <host:port> <graph> <root> <target...>
//                                                BFS hop counts, serverside
//   gt remote-stats <host:port> <graph>          gt.obs.v1 JSON snapshot
//   gt remote-torture-write <host:port> <graph> <seed> [steps] [first]
//                                                torture workload over the
//                                                wire — kill the *server*
//                                                mid-stream, then verify
//                                                <root>/<graph> offline
//                                                with gt torture-verify.
//                                                [first] resumes the same
//                                                stream mid-way (steps
//                                                first..steps), for failover
//                                                drills that finish a stream
//                                                against the promoted node
//
// <file> may be a plain edge list ("src dst [weight]" lines) or a Matrix
// Market .mtx file (detected by extension). "-" reads stdin as an edge list.
// --json renders the registry snapshot through the shared gt::obs exporter
// (schema "gt.obs.v1"), the same document the micro benches embed.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "engine/kcore.hpp"
#include "engine/triangles.hpp"
#include "gen/datasets.hpp"
#include "gen/io.hpp"
#include "gen/rmat.hpp"
#include "net/client.hpp"
#include "net/replica.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "recover/durable.hpp"
#include "recover/torture.hpp"
#include "recover/wal.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace gt;

/// A strict decimal in [0, max]: digits only, no sign, space or suffix.
bool parse_uint(std::string_view text, std::uint64_t max,
                std::uint64_t& out) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v > max) {
        return false;
    }
    out = v;
    return true;
}

bool parse_vertex(std::string_view text, VertexId& v) {
    std::uint64_t wide = 0;
    if (!parse_uint(text, UINT32_MAX, wide)) {
        return false;
    }
    v = static_cast<VertexId>(wide);
    return true;
}

/// "rmat:V:E" with 1 <= V < 2^32 and both counts strict decimals.
bool parse_rmat_spec(std::string_view spec, VertexId& v, EdgeCount& e) {
    spec.remove_prefix(std::string_view("rmat:").size());
    const std::size_t colon = spec.find(':');
    return colon != std::string_view::npos &&
           parse_vertex(spec.substr(0, colon), v) && v != 0 &&
           parse_uint(spec.substr(colon + 1), UINT64_MAX, e);
}

bool parse_port(std::string_view text, std::uint16_t& port) {
    std::uint64_t v = 0;
    if (!parse_uint(text, 65535, v)) {
        return false;
    }
    port = static_cast<std::uint16_t>(v);
    return true;
}

int usage() {
    std::fprintf(stderr,
                 "usage: gt <generate|stats|trace|bfs|cc|pagerank|triangles|"
                 "kcore|audit|convert> ...\n"
                 "  gt generate <dataset|rmat:V:E> [seed]\n"
                 "  gt stats <file> [--json]\n"
                 "  gt trace <file> <root> [--json]\n"
                 "  gt bfs <file> <root>\n"
                 "  gt cc <file>\n"
                 "  gt pagerank <file> [top_k]\n"
                 "  gt triangles <file>\n"
                 "  gt kcore <file>\n"
                 "  gt audit <dataset|rmat:V:E|file> [seed]\n"
                 "  gt convert <file.mtx>\n"
                 "  gt recover <dir>\n"
                 "  gt wal-dump <file> [limit]\n"
                 "  gt torture-writer <dir> <seed> [steps] [--fsync]\n"
                 "  gt torture-verify <dir> <seed>\n"
                 "  gt serve <root> [--host H] [--port N] [--fsync|--nosync]"
                 " [--readers N]  (N in 1..256, default 1)\n"
                 "  gt replicate <root> <primary host:port> <graph> "
                 "[--host H] [--port N] [--once]\n"
                 "      [--promote-on-failure] [--heartbeat-ms N]\n"
                 "  gt ping <host:port[,...]> [count] [--graph G] "
                 "[--min-term N]\n"
                 "  gt remote-load <host:port[,...]> <graph> <file> "
                 "[batch]\n"
                 "  gt remote-bfs <host:port[,...]> <graph> <root> "
                 "<target...>\n"
                 "  gt remote-stats <host:port[,...]> <graph>\n"
                 "  gt remote-torture-write <host:port[,...]> <graph> "
                 "<seed> [steps] [first]\n"
                 "datasets: ");
    for (const DatasetSpec& spec : table1_datasets()) {
        std::fprintf(stderr, "%s ", spec.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

ParsedGraph load(const std::string& path) {
    if (path == "-") {
        return read_edge_list(std::cin);
    }
    std::ifstream in(path);
    if (!in) {
        ParsedGraph failed;
        failed.error = "cannot open " + path;
        return failed;
    }
    if (path.size() > 4 && path.substr(path.size() - 4) == ".mtx") {
        return read_matrix_market(in);
    }
    return read_edge_list(in);
}

/// Loads a batch or dies: on an un-logged store insert_batch only refuses
/// malformed input (sentinel vertex ids), which a CLI must report, not
/// silently drop.
void ingest_or_die(core::GraphTinker& g, std::span<const Edge> edges) {
    if (const Status st = g.insert_batch(edges); !st.ok()) {
        std::fprintf(stderr, "error: batch refused: %s\n",
                     st.message.c_str());
        std::exit(2);
    }
}

core::GraphTinker& ingest(core::GraphTinker& g, const ParsedGraph& parsed) {
    ingest_or_die(g, parsed.edges);
    return g;
}

int cmd_generate(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    const std::string what = argv[0];
    std::uint64_t seed = 42;
    if (argc > 1 && !parse_uint(argv[1], UINT64_MAX, seed)) {
        return usage();
    }
    std::vector<Edge> edges;
    if (what.rfind("rmat:", 0) == 0) {
        VertexId v = 0;
        EdgeCount e = 0;
        if (!parse_rmat_spec(what, v, e)) {
            std::fprintf(stderr, "bad rmat spec: %s\n", what.c_str());
            return 2;
        }
        edges = rmat_edges(v, e, seed);
    } else {
        try {
            DatasetSpec spec = dataset_by_name(what);
            spec.seed = seed;
            edges = spec.generate();
        } catch (const std::out_of_range&) {
            std::fprintf(stderr, "unknown dataset: %s\n", what.c_str());
            return 2;
        }
    }
    write_edge_list(std::cout, edges);
    return 0;
}

int cmd_stats(const ParsedGraph& parsed, bool json) {
    core::GraphTinker g;
    Timer timer;
    ingest(g, parsed);
    const double load_s = timer.seconds();
    const obs::Snapshot snap = g.telemetry();
    if (json) {
        // Machine consumers get the bare registry document — identical in
        // schema to what the micro benches embed under "registry".
        obs::Exporter::write_json(std::cout, snap);
        return 0;
    }
    std::uint32_t max_degree = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        max_degree = std::max(max_degree, g.degree(v));
    }
    std::printf("vertices (id space) : %u\n", g.num_vertices());
    std::printf("non-empty sources   : %zu\n", g.num_nonempty_vertices());
    std::printf("main region (ids)   : %zu (%zu free)\n",
                g.main_region_size(), g.free_ids());
    std::printf("edges (distinct)    : %llu\n",
                static_cast<unsigned long long>(g.num_edges()));
    std::printf("stream updates      : %zu\n", parsed.edges.size());
    std::printf("max out-degree      : %u\n", max_degree);
    std::printf("edgeblocks in use   : %zu (%zu narrow tops)\n",
                g.edgeblock_array().blocks_in_use(),
                g.edgeblock_array().blocks_in_use(core::BlockClass::Narrow));
    std::printf("load time           : %.3f s (%.2f Mupdates/s)\n", load_s,
                mops(parsed.edges.size(), load_s));
    std::printf("\n-- telemetry (gt.obs) --\n");
    obs::Exporter::write_table(std::cout, snap);
    return 0;
}

/// `gt trace`: run hybrid BFS with the engine pointed at the store's
/// registry, then print the per-iteration "engine.trace" series — the FP/IP
/// decisions the inference unit actually made, with the A/E ratio each one
/// compared against the threshold.
int cmd_trace(const ParsedGraph& parsed, VertexId root, bool json) {
    core::GraphTinker g;
    ingest(g, parsed);
    // Past the vertex bound a root has no out-edges: nothing to trace, and
    // the engine would size its arrays to it.
    const bool in_bound = root < g.num_vertices();
    engine::RunStats stats;
    if (in_bound) {
        engine::DynamicAnalysis<core::GraphTinker, engine::Bfs> bfs(
            g, engine::EngineOptions{.registry = &g.obs()});
        bfs.set_root(root);
        stats = bfs.run_from_scratch();
    }
    const obs::Snapshot snap = g.telemetry();
    if (json) {
        obs::Exporter::write_json(std::cout, snap);
        return 0;
    }
    std::printf("BFS from %u: %zu iterations (%zu full / %zu incremental), "
                "%llu edges streamed\n\n",
                root, stats.iterations, stats.full_iterations,
                stats.incremental_iterations,
                static_cast<unsigned long long>(stats.edges_streamed));
    if (!in_bound) {
        return 0;
    }
    const auto* trace = snap.find_series("engine.trace");
    if (trace == nullptr) {
        std::printf("no engine.trace series recorded "
                    "(GT_OBS_RECORD=0?)\n");
        return 0;
    }
    Table table({"iter", "mode", "active", "ratio", "streamed", "logical",
                 "seconds"});
    for (const auto& row : trace->rows) {
        table.add_row({Table::fmt(row[0], 0),
                       row[1] == 1.0 ? "FP" : "IP",
                       Table::fmt(row[2], 0),
                       Table::fmt(row[3], 5),
                       Table::fmt(row[4], 0),
                       Table::fmt(row[5], 0),
                       Table::fmt(row[6], 6)});
    }
    table.print(std::cout);
    return 0;
}

int cmd_bfs(const ParsedGraph& parsed, VertexId root) {
    core::GraphTinker g;
    ingest(g, parsed);
    engine::DynamicAnalysis<core::GraphTinker, engine::Bfs> bfs(g);
    Timer timer;
    engine::RunStats stats;
    // Past the vertex bound a root has no out-edges and reaches no vertex
    // of the store; the engine would size its arrays to it.
    if (root < g.num_vertices()) {
        bfs.set_root(root);
        stats = bfs.run_from_scratch();
    }
    std::map<std::uint32_t, std::size_t> histogram;
    std::size_t unreachable = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto level = bfs.property(v);
        if (level == kInfDistance) {
            ++unreachable;
        } else {
            ++histogram[level];
        }
    }
    std::printf("BFS from %u: %zu iterations (%zu full / %zu incremental) "
                "in %.3f s\n",
                root, stats.iterations, stats.full_iterations,
                stats.incremental_iterations, timer.seconds());
    for (const auto& [level, count] : histogram) {
        std::printf("  level %-4u %zu vertices\n", level, count);
    }
    std::printf("  unreachable: %zu\n", unreachable);
    return 0;
}

int cmd_cc(const ParsedGraph& parsed) {
    core::GraphTinker g;
    // CC needs symmetric reachability.
    ingest_or_die(g, engine::symmetrize(parsed.edges));
    engine::DynamicAnalysis<core::GraphTinker, engine::Cc> cc(g);
    cc.run_from_scratch();
    std::map<std::uint32_t, std::size_t> sizes;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ++sizes[cc.property(v)];
    }
    std::vector<std::size_t> ordered;
    for (const auto& [label, size] : sizes) {
        ordered.push_back(size);
    }
    std::sort(ordered.rbegin(), ordered.rend());
    std::printf("components: %zu\n", ordered.size());
    for (std::size_t i = 0; i < ordered.size() && i < 10; ++i) {
        std::printf("  #%zu: %zu vertices\n", i + 1, ordered[i]);
    }
    return 0;
}

int cmd_pagerank(const ParsedGraph& parsed, std::size_t top_k) {
    core::GraphTinker g;
    ingest(g, parsed);
    engine::PageRank<core::GraphTinker> alg{&g, 0.85, 1e-9};
    engine::DynamicAnalysis<core::GraphTinker,
                            engine::PageRank<core::GraphTinker>>
        pr(g, engine::EngineOptions{}, alg);
    pr.run_from_scratch();
    std::vector<std::pair<double, VertexId>> ranked;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ranked.emplace_back(pr.property(v).rank, v);
    }
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           top_k, ranked.size())),
                      ranked.end(), std::greater<>());
    std::printf("top %zu vertices by PageRank:\n",
                std::min(top_k, ranked.size()));
    for (std::size_t i = 0; i < top_k && i < ranked.size(); ++i) {
        std::printf("  %u  %.4f\n", ranked[i].second, ranked[i].first);
    }
    return 0;
}

int cmd_kcore(const ParsedGraph& parsed) {
    core::GraphTinker g;
    ingest_or_die(g, engine::symmetrize(parsed.edges));
    const auto result = engine::kcore_decomposition(g);
    std::printf("degeneracy: %u\n", result.degeneracy);
    for (std::uint32_t k = 0; k < result.core_sizes.size(); ++k) {
        std::printf("  %u-core: %zu vertices\n", k, result.core_sizes[k]);
    }
    return 0;
}

int cmd_triangles(const ParsedGraph& parsed) {
    core::GraphTinker g;
    ingest_or_die(g, engine::symmetrize(parsed.edges));
    const auto stats = engine::count_triangles(g);
    std::printf("triangles          : %llu\n",
                static_cast<unsigned long long>(stats.total_triangles));
    std::printf("global clustering  : %.6f\n", stats.global_clustering);
    return 0;
}

int cmd_audit(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    const std::string what = argv[0];
    std::uint64_t seed = 42;
    if (argc > 1 && !parse_uint(argv[1], UINT64_MAX, seed)) {
        return usage();
    }
    // The operand may name a synthetic workload (dataset or rmat spec) or a
    // file on disk; synthetic specs take priority so `gt audit graph500`
    // works without an intermediate edge-list file.
    std::vector<Edge> edges;
    if (what.rfind("rmat:", 0) == 0) {
        VertexId v = 0;
        EdgeCount e = 0;
        if (!parse_rmat_spec(what, v, e)) {
            std::fprintf(stderr, "bad rmat spec: %s\n", what.c_str());
            return 2;
        }
        edges = rmat_edges(v, e, seed);
    } else {
        try {
            DatasetSpec spec = dataset_by_name(what);
            spec.seed = seed;
            edges = spec.generate();
        } catch (const std::out_of_range&) {
            const ParsedGraph parsed = load(what);
            if (!parsed.ok()) {
                std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
                return 1;
            }
            edges = parsed.edges;
        }
    }

    core::GraphTinker g;
    Timer load_timer;
    ingest_or_die(g, edges);
    const double load_s = load_timer.seconds();

    Timer audit_timer;
    const core::AuditReport report = g.audit();
    const double audit_s = audit_timer.seconds();

    std::printf("loaded %zu updates -> %llu edges in %.3f s\n", edges.size(),
                static_cast<unsigned long long>(g.num_edges()), load_s);
    std::printf("audit coverage      : %zu vertices, %zu blocks, %zu cells, "
                "%zu CAL slots (%.3f s)\n",
                report.vertices_audited, report.blocks_audited,
                report.cells_audited, report.cal_slots_audited, audit_s);
    if (report.ok()) {
        std::printf("audit result        : OK — all invariants hold\n");
        return 0;
    }
    std::printf("audit result        : %zu violation(s)%s\n",
                report.violations.size(),
                report.truncated ? " (truncated)" : "");
    std::fputs(report.to_string().c_str(), stdout);
    return 1;
}

void print_recovery_info(const recover::RecoveryInfo& info) {
    std::printf("recovery source     : %s\n",
                std::string(recover::to_string(info.source)).c_str());
    std::printf("snapshot.gts        : %s\n",
                info.snapshot_status.to_string().c_str());
    if (info.source == recover::RecoveryInfo::Source::PrevSnapshot ||
        !info.prev_snapshot_status.ok()) {
        std::printf("snapshot.prev.gts   : %s\n",
                    info.prev_snapshot_status.to_string().c_str());
    }
    std::printf("snapshot wal seq    : %llu\n",
                static_cast<unsigned long long>(info.snapshot_wal_seq));
    std::printf("wal present         : %s\n", info.wal_present ? "yes" : "no");
    std::printf("wal records scanned : %llu\n",
                static_cast<unsigned long long>(info.replay.records_scanned));
    std::printf("batches replayed    : %llu (+%llu / -%llu edges)\n",
                static_cast<unsigned long long>(info.replay.batches_applied),
                static_cast<unsigned long long>(info.replay.edges_inserted),
                static_cast<unsigned long long>(info.replay.edges_deleted));
    std::printf("torn tail / batch   : %s / %s\n",
                info.replay.torn_tail ? "yes" : "no",
                info.replay.torn_batch ? "yes" : "no");
    if (!info.replay.tail_status.ok()) {
        std::printf("tail status         : %s\n",
                    info.replay.tail_status.to_string().c_str());
    }
    std::printf("audit after recover : %s\n",
                info.audit_clean ? "clean" : "VIOLATIONS");
}

int cmd_recover(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    recover::DurableStore store;
    recover::RecoveryInfo info;
    const Status st = store.open(argv[0], recover::DurableOptions{}, &info);
    print_recovery_info(info);
    if (!st.ok()) {
        std::printf("recovery FAILED     : %s\n", st.to_string().c_str());
        return 1;
    }
    std::printf("vertices (id space) : %u\n", store.graph().num_vertices());
    std::printf("edges (distinct)    : %llu\n",
                static_cast<unsigned long long>(store.graph().num_edges()));
    std::printf("next wal seq        : %llu\n",
                static_cast<unsigned long long>(store.wal().next_seq()));
    return 0;
}

int cmd_wal_dump(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    std::uint64_t limit = 64;
    if (argc > 1 && !parse_uint(argv[1], UINT64_MAX, limit)) {
        return usage();
    }
    recover::ReplayStats stats;
    std::uint64_t printed = 0;
    const Status st = recover::scan_wal(
        argv[0], stats, [&](const recover::WalRecord& rec) {
            if (printed++ >= limit) {
                return;
            }
            const char* name = "?";
            switch (rec.type) {
                case recover::WalRecordType::BatchBegin: name = "BEGIN"; break;
                case recover::WalRecordType::InsertRun: name = "INS"; break;
                case recover::WalRecordType::DeleteRun: name = "DEL"; break;
                case recover::WalRecordType::BatchCommit: name = "COMMIT"; break;
                case recover::WalRecordType::SoloInsert: name = "SOLO+"; break;
                case recover::WalRecordType::SoloDelete: name = "SOLO-"; break;
            }
            std::printf("  seq %-8llu %-7s len %-8zu @%llu\n",
                        static_cast<unsigned long long>(rec.seq), name,
                        rec.payload.size(),
                        static_cast<unsigned long long>(rec.offset));
        });
    if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
        return 1;
    }
    if (printed > limit) {
        std::printf("  ... %llu more record(s)\n",
                    static_cast<unsigned long long>(printed - limit));
    }
    std::printf("records: %llu  last seq: %llu  last committed: %llu  "
                "valid bytes: %llu  torn tail: %s\n",
                static_cast<unsigned long long>(stats.records_scanned),
                static_cast<unsigned long long>(stats.last_seq),
                static_cast<unsigned long long>(stats.last_committed_seq),
                static_cast<unsigned long long>(stats.valid_bytes),
                stats.torn_tail ? "yes" : "no");
    if (!stats.tail_status.ok()) {
        std::printf("tail status: %s\n", stats.tail_status.to_string().c_str());
    }
    return 0;
}

// Torture workload parameters shared by writer and verifier. Small vertex
// space keeps duplicate/delete churn high; ~8 checkpoints per thousand steps
// exercises snapshot rotation under fire.
constexpr std::uint32_t kTortureEdgesPerStep = 256;
constexpr std::uint32_t kTortureVertices = 4096;
constexpr std::uint64_t kTortureCheckpointEvery = 50;

int cmd_torture_writer(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string dir = argv[0];
    std::uint64_t seed = 0;
    if (!parse_uint(argv[1], UINT64_MAX, seed)) {
        return usage();
    }
    std::uint64_t max_steps = 1000000;
    bool fsync_mode = false;
    for (int i = 2; i < argc; ++i) {
        if (std::string(argv[i]) == "--fsync") {
            fsync_mode = true;
        } else if (!parse_uint(argv[i], UINT64_MAX, max_steps)) {
            return usage();
        }
    }
    recover::DurableOptions options;
    options.mode = fsync_mode ? recover::DurabilityMode::FsyncBatch
                              : recover::DurabilityMode::Buffered;
    recover::DurableStore store;
    recover::RecoveryInfo info;
    if (const Status st = store.open(dir, options, &info); !st.ok()) {
        std::fprintf(stderr, "open failed: %s\n", st.to_string().c_str());
        return 1;
    }
    // Resume where the recovered state left off so repeated kill/restart
    // cycles keep extending one coherent history.
    const auto marker = recover::torture_max_marker(store.graph());
    std::uint64_t step = marker ? *marker + 1 : 0;
    if (step > 0 && recover::torture_step_is_delete(step)) {
        // The delete step after the marker may or may not have committed;
        // re-issuing it is idempotent either way (deletes of absent edges
        // are no-ops), so always (re)run it.
        std::fprintf(stderr, "resuming at step %llu (delete, idempotent)\n",
                     static_cast<unsigned long long>(step));
    }
    for (; step < max_steps; ++step) {
        const std::vector<Edge> batch = recover::torture_step_batch(
            seed, step, kTortureEdgesPerStep, kTortureVertices);
        const Status st = recover::torture_step_is_delete(step)
                              ? store.graph().delete_batch(batch)
                              : store.graph().insert_batch(batch);
        if (!st.ok()) {
            std::fprintf(stderr, "step %llu failed: %s\n",
                         static_cast<unsigned long long>(step),
                         st.to_string().c_str());
            return 1;
        }
        if ((step + 1) % kTortureCheckpointEvery == 0) {
            if (const Status cst = store.checkpoint(); !cst.ok()) {
                std::fprintf(stderr, "checkpoint failed: %s\n",
                             cst.to_string().c_str());
                return 1;
            }
        }
        // One line per step so the harness can kill at a known cadence.
        std::printf("step %llu\n", static_cast<unsigned long long>(step));
        std::fflush(stdout);
    }
    store.close();
    return 0;
}

int cmd_torture_verify(int argc, char** argv) {
    std::uint64_t seed = 0;
    if (argc < 2 || !parse_uint(argv[1], UINT64_MAX, seed)) {
        return usage();
    }
    recover::DurableStore store;
    recover::RecoveryInfo info;
    const Status st = store.open(argv[0], recover::DurableOptions{}, &info);
    if (!st.ok()) {
        print_recovery_info(info);
        std::fprintf(stderr, "recovery failed: %s\n", st.to_string().c_str());
        return 1;
    }
    const recover::TortureVerdict verdict = recover::verify_torture_recovery(
        store.graph(), seed, kTortureEdgesPerStep, kTortureVertices);
    std::printf("source=%s replayed=%llu torn_tail=%d torn_batch=%d\n",
                std::string(recover::to_string(info.source)).c_str(),
                static_cast<unsigned long long>(info.replay.batches_applied),
                info.replay.torn_tail ? 1 : 0, info.replay.torn_batch ? 1 : 0);
    std::printf("%s: %s\n", verdict.ok ? "PASS" : "FAIL",
                verdict.detail.c_str());
    return verdict.ok ? 0 : 1;
}

// ---- gt serve + remote clients --------------------------------------------

net::Server* g_server = nullptr;

extern "C" void serve_signal_handler(int /*sig*/) {
    if (g_server != nullptr) {
        g_server->stop();  // async-signal-safe (self-pipe write)
    }
}

int cmd_serve(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    net::ServerOptions options;
    options.root = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host" && i + 1 < argc) {
            options.host = argv[++i];
        } else if (arg == "--port" && i + 1 < argc) {
            if (!parse_port(argv[++i], options.port)) {
                return usage();
            }
        } else if (arg == "--fsync") {
            options.durability = recover::DurabilityMode::FsyncBatch;
        } else if (arg == "--nosync") {
            options.durability = recover::DurabilityMode::Off;
        } else if (arg == "--readers" && i + 1 < argc) {
            std::uint64_t readers = 0;
            if (!parse_uint(argv[++i], 256, readers) || readers == 0) {
                return usage();
            }
            options.reader_threads = static_cast<std::size_t>(readers);
        } else {
            return usage();
        }
    }
    // The server write path survives vanished peers via MSG_NOSIGNAL, but
    // belt-and-braces: a stray SIGPIPE from any other fd must not kill the
    // daemon either.
    std::signal(SIGPIPE, SIG_IGN);
    net::Server server;
    if (const Status st = server.start(options); !st.ok()) {
        std::fprintf(stderr, "serve: %s\n", st.to_string().c_str());
        return 1;
    }
    g_server = &server;
    std::signal(SIGINT, serve_signal_handler);
    std::signal(SIGTERM, serve_signal_handler);
    // Scripts (tools/server_smoke.sh) wait for this exact line.
    std::printf("listening on %s:%u\n", options.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    const Status st = server.run();
    g_server = nullptr;
    if (!st.ok()) {
        std::fprintf(stderr, "serve: %s\n", st.to_string().c_str());
        return 1;
    }
    return 0;
}

/// Splits "host:port"; false on malformed input or a port past 65535.
bool parse_hostport(const std::string& hostport, std::string& host,
                    std::uint16_t& port) {
    const std::size_t colon = hostport.rfind(':');
    if (colon == std::string::npos ||
        !parse_port(std::string_view(hostport).substr(colon + 1), port)) {
        return false;
    }
    host = hostport.substr(0, colon);
    return true;
}

/// "host:port[,host:port...]" → endpoint list; false on malformed input.
bool parse_endpoints(const std::string& spec,
                     std::vector<net::Endpoint>& out) {
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) {
            comma = spec.size();
        }
        net::Endpoint ep;
        if (!parse_hostport(spec.substr(pos, comma - pos), ep.host,
                            ep.port)) {
            return false;
        }
        out.push_back(std::move(ep));
        pos = comma + 1;
    }
    return !out.empty();
}

/// "host:port[,host:port...]" → Client::connect, usage() on malformed
/// input. With more than one endpoint the client fails over between them.
int remote_connect(const std::string& spec, net::Client& client) {
    std::vector<net::Endpoint> endpoints;
    if (!parse_endpoints(spec, endpoints)) {
        std::fprintf(stderr,
                     "error: expected host:port[,host:port...], got '%s'\n",
                     spec.c_str());
        return usage();
    }
    if (const Status st = client.connect(std::move(endpoints)); !st.ok()) {
        std::fprintf(stderr, "connect: %s\n", st.to_string().c_str());
        return 1;
    }
    return 0;
}

// gt replicate — warm replica: a read_only server answers the read verbs
// while a Replicator (owning the store's write side through open_local)
// mirrors the primary's WAL stream.
//
// Shutdown ordering is load-bearing. Server::run()'s teardown closes and
// frees every graph store, so the signal handler must NOT stop the server
// while the Replicator can still touch its open_local handle — it only
// shuts down the upstream socket (waking the blocking recv) and sets the
// stop flag. The main thread detaches the feeder (rep.close()), and only
// then publishes g_server, handing the handler authority to stop the
// serving side.
std::atomic<int> g_replica_upstream_fd{-1};
std::atomic<bool> g_replica_stop{false};

extern "C" void replicate_signal_handler(int /*sig*/) {
    g_replica_stop.store(true, std::memory_order_relaxed);
    if (g_server != nullptr) {
        g_server->stop();
    }
    const int fd = g_replica_upstream_fd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);  // async-signal-safe; recv returns 0
    }
}

int cmd_replicate(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    net::ServerOptions options;
    options.root = argv[0];
    options.read_only = true;
    const std::string primary = argv[1];
    const std::string graph = argv[2];
    bool once = false;
    bool promote = false;
    std::uint64_t heartbeat_ms = 0;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host" && i + 1 < argc) {
            options.host = argv[++i];
        } else if (arg == "--port" && i + 1 < argc) {
            if (!parse_port(argv[++i], options.port)) {
                return usage();
            }
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--promote-on-failure") {
            promote = true;
        } else if (arg == "--heartbeat-ms" && i + 1 < argc) {
            // The probe's deadline is a u32 millisecond count.
            if (!parse_uint(argv[++i], UINT32_MAX, heartbeat_ms)) {
                return usage();
            }
        } else {
            return usage();
        }
    }
    if (promote && heartbeat_ms == 0) {
        heartbeat_ms = 500;  // failover needs liveness probes to trigger
    }
    net::ReplicatorOptions ropts;
    ropts.graph = graph;
    net::Server server;
    ropts.server = &server;  // Hello replies carry replication.lag_seqs
    if (!parse_hostport(primary, ropts.host, ropts.port)) {
        std::fprintf(stderr, "error: expected host:port, got '%s'\n",
                     primary.c_str());
        return usage();
    }
    std::signal(SIGPIPE, SIG_IGN);
    if (const Status st = server.start(options); !st.ok()) {
        std::fprintf(stderr, "replicate: %s\n", st.to_string().c_str());
        return 1;
    }
    // g_server stays null for now: the handler may only break the upstream
    // recv while the feeder is attached (see the comment on the handler).
    std::signal(SIGINT, replicate_signal_handler);
    std::signal(SIGTERM, replicate_signal_handler);
    // Scripts (tools/server_smoke.sh) wait for this exact line.
    std::printf("listening on %s:%u\n", options.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    Status serve_st;
    std::thread serve_thread([&] { serve_st = server.run(); });
    const auto shutdown_server = [&] {
        server.stop();
        serve_thread.join();
        g_server = nullptr;
    };

    net::Server::LocalGraph local;
    if (const Status st = server.open_local(graph, local); !st.ok()) {
        std::fprintf(stderr, "replicate: open '%s': %s\n", graph.c_str(),
                     st.to_string().c_str());
        shutdown_server();
        return 1;
    }
    net::Replicator rep;
    if (const Status st = rep.start(ropts, local); !st.ok()) {
        std::fprintf(stderr, "replicate: %s\n", st.to_string().c_str());
        shutdown_server();
        return 1;
    }
    g_replica_upstream_fd.store(rep.client_native_handle(),
                                std::memory_order_relaxed);

    int rc = 0;
    bool stream_ended = false;
    if (const Status st = rep.pump_until_current(); !st.ok()) {
        std::fprintf(stderr, "replicate: catch-up failed: %s\n",
                     st.to_string().c_str());
        rc = 1;
    } else {
        // Scripts grep for this exact line (seq is informational).
        std::printf("lag=0 seq=%llu\n",
                    static_cast<unsigned long long>(rep.applied_seq()));
        std::fflush(stdout);
        if (!once) {
            const Status st2 =
                rep.run(static_cast<std::int64_t>(heartbeat_ms));
            std::fprintf(stderr, "replicate: stream ended: %s\n",
                         st2.to_string().c_str());
            stream_ended = true;
        }
    }
    const std::uint64_t final_seq = rep.applied_seq();
    // A promotion must exceed every term this replica has witnessed —
    // capture it before close() (which resets the stream, not the term).
    const std::uint64_t new_term = rep.term() + 1;
    // Detach the feeder while the serving side is still up — only then may
    // the handler (or we) stop the server, whose teardown closes stores.
    g_replica_upstream_fd.store(-1, std::memory_order_relaxed);
    rep.close();
    g_server = &server;
    if (stream_ended && rc == 0 &&
        !g_replica_stop.load(std::memory_order_relaxed)) {
        if (promote) {
            // rep.close() above reattached the WAL as the graph's update
            // log, so mutations accepted from here on are durable.
            if (const Status st = server.promote_local(graph, new_term);
                !st.ok()) {
                std::fprintf(stderr, "replicate: promote: %s\n",
                             st.to_string().c_str());
                rc = 1;
            } else {
                server.set_read_only(false);
                // Scripts grep for this exact line.
                std::printf(
                    "promoted to primary term=%llu seq=%llu "
                    "(SIGTERM to exit)\n",
                    static_cast<unsigned long long>(new_term),
                    static_cast<unsigned long long>(final_seq));
                std::fflush(stdout);
            }
        } else {
            // The primary went away; keep answering reads until SIGTERM.
            std::printf(
                "serving committed prefix seq=%llu (SIGTERM to exit)\n",
                static_cast<unsigned long long>(final_seq));
            std::fflush(stdout);
        }
    }
    if (once || rc != 0 ||
        g_replica_stop.load(std::memory_order_relaxed)) {
        server.stop();  // idempotent — the handler may race us harmlessly
    }
    serve_thread.join();
    g_server = nullptr;
    if (!serve_st.ok()) {
        std::fprintf(stderr, "replicate: %s\n", serve_st.to_string().c_str());
        return 1;
    }
    return rc;
}

int cmd_ping(int argc, char** argv) {
    if (argc < 1) {
        return usage();
    }
    std::uint64_t count = 1;
    std::string graph;
    std::uint64_t min_term = 0;
    int i = 1;
    if (i < argc && argv[i][0] != '-' &&
        !parse_uint(argv[i++], UINT64_MAX, count)) {
        return usage();
    }
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--graph" && i + 1 < argc) {
            graph = argv[++i];
        } else if (arg == "--min-term" && i + 1 < argc) {
            if (!parse_uint(argv[++i], UINT64_MAX, min_term)) {
                return usage();
            }
        } else {
            return usage();
        }
    }
    net::Client client;
    // Seed the fencing floor before any graph traffic: the Hello carries
    // it, so a server left behind by a promotion answers StaleTerm.
    client.observe_term(min_term);
    if (const int rc = remote_connect(argv[0], client); rc != 0) {
        return rc;
    }
    const unsigned char probe[] = {'g', 't', '?'};
    Timer timer;
    for (std::uint64_t n = 0; n < count; ++n) {
        if (const Status st = client.ping(probe); !st.ok()) {
            std::fprintf(stderr, "ping: %s\n", st.to_string().c_str());
            return 1;
        }
    }
    const double total_us = timer.seconds() * 1e6;
    std::printf("%llu pings ok, %.1f us/rtt\n",
                static_cast<unsigned long long>(count),
                total_us / static_cast<double>(count == 0 ? 1 : count));
    if (graph.empty()) {
        return 0;
    }
    net::RemoteGraph g;
    if (const Status st = client.open(graph, g); !st.ok()) {
        std::fprintf(stderr, "open: %s\n", st.to_string().c_str());
        return 1;
    }
    net::HelloInfo info;
    if (const Status st = g.hello(info); !st.ok()) {
        const bool stale =
            static_cast<net::WireCode>(st.detail) == net::WireCode::StaleTerm;
        std::fprintf(stderr, "hello: %s%s\n", stale ? "stale_term: " : "",
                     st.to_string().c_str());
        return 1;
    }
    // Scripts grep these fields; keep the key=value shape stable.
    std::printf("role=%s term=%llu durable_seq=%llu lag=%llu\n",
                info.role == net::kRoleReplica ? "replica" : "primary",
                static_cast<unsigned long long>(info.term),
                static_cast<unsigned long long>(info.durable_seq),
                static_cast<unsigned long long>(info.lag_seqs));
    return 0;
}

int cmd_remote_load(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string graph = argv[1];
    std::uint64_t batch = 100000;
    if (argc > 3 && (!parse_uint(argv[3], SIZE_MAX, batch) || batch == 0)) {
        return usage();  // a zero batch would never advance
    }
    const auto batch_size = static_cast<std::size_t>(batch);
    const ParsedGraph parsed = load(argv[2]);
    if (!parsed.error.empty()) {
        std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
        return 1;
    }
    net::Client client;
    if (const int rc = remote_connect(argv[0], client); rc != 0) {
        return rc;
    }
    net::RemoteGraph g;
    if (const Status st = client.open(graph, g); !st.ok()) {
        std::fprintf(stderr, "open: %s\n", st.to_string().c_str());
        return 1;
    }
    std::uint64_t edge_count = 0;
    Timer timer;
    for (std::size_t off = 0; off < parsed.edges.size();
         off += batch_size) {
        const std::size_t n =
            std::min(batch_size, parsed.edges.size() - off);
        const std::span<const Edge> chunk(parsed.edges.data() + off, n);
        if (const Status st = g.insert_edges(chunk, &edge_count); !st.ok()) {
            std::fprintf(stderr, "insert_edges @%zu: %s\n", off,
                         st.to_string().c_str());
            return 1;
        }
    }
    std::printf(
        "loaded %zu edges into '%s' (store now %llu), %.2f Medges/s\n",
        parsed.edges.size(), graph.c_str(),
        static_cast<unsigned long long>(edge_count),
        mops(parsed.edges.size(), timer.seconds()));
    return 0;
}

int cmd_remote_bfs(int argc, char** argv) {
    if (argc < 4) {
        return usage();
    }
    const std::string graph = argv[1];
    VertexId root = 0;
    if (!parse_vertex(argv[2], root)) {
        return usage();
    }
    std::vector<VertexId> targets;
    for (int i = 3; i < argc; ++i) {
        VertexId target = 0;
        if (!parse_vertex(argv[i], target)) {
            return usage();
        }
        targets.push_back(target);
    }
    net::Client client;
    if (const int rc = remote_connect(argv[0], client); rc != 0) {
        return rc;
    }
    // Open (or attach to) the graph so a one-shot query works against a
    // freshly restarted server where nothing has opened it yet.
    net::RemoteGraph g;
    if (const Status st = client.open(graph, g); !st.ok()) {
        std::fprintf(stderr, "open: %s\n", st.to_string().c_str());
        return 1;
    }
    std::vector<std::uint32_t> dist;
    if (const Status st = g.bfs_distances(root, targets, dist); !st.ok()) {
        std::fprintf(stderr, "bfs: %s\n", st.to_string().c_str());
        return 1;
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
        if (dist[i] == kInfDistance) {
            std::printf("%u unreachable\n", targets[i]);
        } else {
            std::printf("%u %u\n", targets[i], dist[i]);
        }
    }
    return 0;
}

int cmd_remote_stats(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    net::Client client;
    if (const int rc = remote_connect(argv[0], client); rc != 0) {
        return rc;
    }
    net::RemoteGraph g;
    if (const Status st = client.open(argv[1], g); !st.ok()) {
        std::fprintf(stderr, "open: %s\n", st.to_string().c_str());
        return 1;
    }
    std::string json;
    if (const Status st = g.stats_json(json); !st.ok()) {
        std::fprintf(stderr, "stats: %s\n", st.to_string().c_str());
        return 1;
    }
    std::printf("%s\n", json.c_str());
    return 0;
}

/// The torture-writer workload pushed through the wire instead of a local
/// DurableStore: same deterministic batches, same marker edges, so a
/// server killed mid-stream leaves a directory `gt torture-verify` can
/// check offline. Retryable Busy shedding is handled here (bounded retry)
/// because the point of the exercise is to outrun the server. Given a
/// comma-separated endpoint list the client fails over mid-stream — the
/// failover drill kills the primary under this writer and expects the
/// stream to finish against the promoted replica.
int cmd_remote_torture_write(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string graph = argv[1];
    std::uint64_t seed = 0;
    std::uint64_t max_steps = 1000000;
    std::uint64_t first_step = 0;
    if (!parse_uint(argv[2], UINT64_MAX, seed) ||
        (argc > 3 && !parse_uint(argv[3], UINT64_MAX, max_steps)) ||
        (argc > 4 && !parse_uint(argv[4], UINT64_MAX, first_step))) {
        return usage();
    }
    net::Client client;
    if (const int rc = remote_connect(argv[0], client); rc != 0) {
        return rc;
    }
    net::RemoteGraph g;
    if (const Status st = client.open(graph, g, 1); !st.ok()) {
        std::fprintf(stderr, "open: %s\n", st.to_string().c_str());
        return 1;
    }
    for (std::uint64_t step = first_step; step < max_steps; ++step) {
        const std::vector<Edge> batch = recover::torture_step_batch(
            seed, step, kTortureEdgesPerStep, kTortureVertices);
        const bool is_delete = recover::torture_step_is_delete(step);
        Status st;
        for (int attempt = 0; attempt < 100; ++attempt) {
            st = is_delete ? g.delete_edges(batch, nullptr)
                           : g.insert_edges(batch, nullptr);
            if (st.code != StatusCode::ResourceExhausted) {
                break;  // success, or a non-retryable failure
            }
        }
        if (!st.ok()) {
            std::fprintf(stderr, "step %llu failed: %s\n",
                         static_cast<unsigned long long>(step),
                         st.to_string().c_str());
            return 1;
        }
        std::printf("step %llu\n", static_cast<unsigned long long>(step));
        std::fflush(stdout);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    if (command == "generate") {
        return cmd_generate(argc - 2, argv + 2);
    }
    if (command == "audit") {
        return cmd_audit(argc - 2, argv + 2);
    }
    if (command == "recover") {
        return cmd_recover(argc - 2, argv + 2);
    }
    if (command == "wal-dump") {
        return cmd_wal_dump(argc - 2, argv + 2);
    }
    if (command == "torture-writer") {
        return cmd_torture_writer(argc - 2, argv + 2);
    }
    if (command == "torture-verify") {
        return cmd_torture_verify(argc - 2, argv + 2);
    }
    if (command == "serve") {
        return cmd_serve(argc - 2, argv + 2);
    }
    if (command == "replicate") {
        return cmd_replicate(argc - 2, argv + 2);
    }
    if (command == "ping") {
        return cmd_ping(argc - 2, argv + 2);
    }
    if (command == "remote-load") {
        return cmd_remote_load(argc - 2, argv + 2);
    }
    if (command == "remote-bfs") {
        return cmd_remote_bfs(argc - 2, argv + 2);
    }
    if (command == "remote-stats") {
        return cmd_remote_stats(argc - 2, argv + 2);
    }
    if (command == "remote-torture-write") {
        return cmd_remote_torture_write(argc - 2, argv + 2);
    }
    if (argc < 3) {
        return usage();
    }
    // The numeric operands are checked before the file is read.
    VertexId root = 0;
    if ((command == "trace" || command == "bfs") &&
        (argc < 4 || !parse_vertex(argv[3], root))) {
        return usage();
    }
    std::uint64_t top_k = 10;
    if (command == "pagerank" && argc > 3 &&
        !parse_uint(argv[3], SIZE_MAX, top_k)) {
        return usage();
    }
    const ParsedGraph parsed = load(argv[2]);
    if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
        return 1;
    }
    const bool json =
        argc > 3 && std::string(argv[argc - 1]) == "--json";
    if (command == "stats") {
        return cmd_stats(parsed, json);
    }
    if (command == "trace") {
        return cmd_trace(parsed, root, json);
    }
    if (command == "bfs") {
        return cmd_bfs(parsed, root);
    }
    if (command == "cc") {
        return cmd_cc(parsed);
    }
    if (command == "pagerank") {
        return cmd_pagerank(parsed, static_cast<std::size_t>(top_k));
    }
    if (command == "triangles") {
        return cmd_triangles(parsed);
    }
    if (command == "kcore") {
        return cmd_kcore(parsed);
    }
    if (command == "convert") {
        gt::write_edge_list(std::cout, parsed.edges);
        return 0;
    }
    return usage();
}

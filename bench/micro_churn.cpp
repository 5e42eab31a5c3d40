// Micro bench for the maintenance & space-reclamation layer: insert an RMAT
// stream, delete a random half, run maintain(), and measure what the purge /
// CAL-compaction sweep buys back. Emits BENCH_churn.json.
//
// Two scenarios; mean find_edge probe distance is measured on the churned
// store, after maintain(), and on a fresh twin built from only the
// survivors:
//   delete_only  tombstone churn, reclaimed by the explicit sweep. The
//                sweep must purge tombstones, the maintained store must
//                probe within 10% of the twin, and the in-use EBA+CAL
//                footprint must drop >= 25% from its peak.
//   compact      delete-and-compact churn (the library default), which
//                reclaims on every erase: before any maintain() the churned
//                store must already probe within 10% of the twin and have
//                given back >= 25% of its peak footprint.
//
// Every phase transition is followed by a full structural audit; --check
// exits nonzero on any audit violation or missed threshold.
//
// Flags / env:
//   --out=PATH            JSON output path (default BENCH_churn.json)
//   --registry-out=PATH   standalone gt.obs registry snapshot (optional)
//   --check               exit nonzero when acceptance thresholds fail
//   GT_CHURN_VERTICES     vertex-id space (default 32768)
//   GT_CHURN_EDGES        stream length   (default 1000000)
//   GT_CHURN_DELETE_PCT   percent of the stream deleted (default 50)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/maintenance.hpp"
#include "gen/rmat.hpp"
#include "obs/export.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace {

using namespace gt;

/// Mean edge-cells probed per find_edge over the surviving edge set.
double mean_probe(const core::GraphTinker& g,
                  const std::vector<Edge>& survivors) {
    if (survivors.empty()) {
        return 0.0;
    }
    const obs::Counter& probed = g.obs().counter("eba.cells_probed");
    const std::uint64_t before = probed.value();
    std::size_t misses = 0;
    for (const Edge& e : survivors) {
        if (!g.find_edge(e.src, e.dst)) {
            ++misses;
        }
    }
    if (misses != 0) {
        std::cerr << "BUG: " << misses << " survivors unreachable\n";
        std::exit(1);
    }
    return static_cast<double>(probed.value() - before) /
           static_cast<double>(survivors.size());
}

/// In-use bytes of the two edge-bearing components (what maintenance can
/// actually give back). SGH and the vertex properties are left out: they
/// span the peak number of sources mapped at once, so they do not shrink
/// when edges go (an emptied source's dense id is recycled, not freed).
std::size_t edge_bytes(const core::GraphTinker& g) {
    const auto mf = g.memory_footprint();
    return mf.edgeblock_bytes + mf.cal_bytes;
}

bool audit_clean(const core::GraphTinker& g, const std::string& where,
                 bool& ok) {
    const core::AuditReport report = g.audit();
    if (!report.ok()) {
        std::cerr << "AUDIT FAILED (" << where
                  << "): " << report.to_string() << "\n";
        ok = false;
        return false;
    }
    return true;
}

struct ChurnRow {
    std::string mode;
    double probe_churned = 0.0;
    double probe_maintained = 0.0;
    double probe_fresh = 0.0;
    double churned_ratio = 0.0;  // churned / fresh twin, before maintain()
    double probe_ratio = 0.0;    // maintained / fresh twin
    std::size_t peak_bytes = 0;
    std::size_t churned_bytes = 0;  // after the deletes, before maintain()
    std::size_t after_bytes = 0;
    double churned_drop = 0.0;    // fraction of peak given back by deletes
    double footprint_drop = 0.0;  // ... and by deletes plus maintain()
    double maintain_secs = 0.0;
    core::MaintenanceReport report;
    bool audits_ok = true;
    obs::Snapshot telemetry;  // registry snapshot after maintain()
};

/// Fraction of `peak` that `now` no longer holds.
double drop_from(std::size_t peak, std::size_t now) {
    return peak == 0 ? 0.0
                     : 1.0 - static_cast<double>(now) /
                                 static_cast<double>(peak);
}

ChurnRow run_churn(const core::Config& cfg, const std::string& mode,
                   const std::vector<Edge>& stream,
                   const std::vector<Edge>& deletions) {
    ChurnRow row;
    row.mode = mode;
    core::GraphTinker g(cfg);

    constexpr std::size_t kBatch = 100000;
    for (std::size_t i = 0; i < stream.size(); i += kBatch) {
        const std::size_t len = std::min(kBatch, stream.size() - i);
        (void)g.insert_batch(std::span<const Edge>(stream).subspan(i, len));
    }
    row.peak_bytes = edge_bytes(g);

    for (std::size_t i = 0; i < deletions.size(); i += kBatch) {
        const std::size_t len = std::min(kBatch, deletions.size() - i);
        (void)g.delete_batch(std::span<const Edge>(deletions).subspan(i, len));
    }
    row.churned_bytes = edge_bytes(g);
    row.peak_bytes = std::max(row.peak_bytes, row.churned_bytes);
    row.churned_drop = drop_from(row.peak_bytes, row.churned_bytes);
    audit_clean(g, mode + " after deletes", row.audits_ok);

    std::vector<Edge> survivors;
    survivors.reserve(g.num_edges());
    g.visit_edges([&](VertexId s, VertexId d, Weight w) {
        survivors.push_back(Edge{s, d, w});
    });
    row.probe_churned = mean_probe(g, survivors);

    Timer timer;
    row.report = g.maintain();
    row.maintain_secs = timer.seconds();
    audit_clean(g, mode + " after maintain", row.audits_ok);

    row.after_bytes = edge_bytes(g);
    // Satellite check: in-use footprint must fall monotonically through a
    // purge — the reclaimed blocks really left the in-use figure.
    if (row.after_bytes > row.peak_bytes) {
        std::cerr << "BUG: footprint grew across maintain() (" << mode
                  << ")\n";
        row.audits_ok = false;
    }
    row.footprint_drop = drop_from(row.peak_bytes, row.after_bytes);
    row.probe_maintained = mean_probe(g, survivors);
    row.telemetry = g.telemetry();

    // Fresh twin: only the survivors ever inserted.
    core::GraphTinker fresh(cfg);
    (void)fresh.insert_batch(survivors);
    row.probe_fresh = mean_probe(fresh, survivors);
    if (row.probe_fresh > 0.0) {
        row.churned_ratio = row.probe_churned / row.probe_fresh;
        row.probe_ratio = row.probe_maintained / row.probe_fresh;
    }
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args =
        bench::parse_bench_args(argc, argv, "BENCH_churn.json");
    if (!args.ok) {
        return 2;
    }

    const std::size_t vertices = env_u64("GT_CHURN_VERTICES", 32768);
    const std::size_t num_edges = env_u64("GT_CHURN_EDGES", 1000000);
    const std::size_t delete_pct = env_u64("GT_CHURN_DELETE_PCT", 50);

    bench::banner("micro_churn",
                  "Delete-wave maintenance: tombstone purge and CAL "
                  "compaction vs a fresh-built twin");
    std::cout << "stream: RMAT " << vertices << " vertices, " << num_edges
              << " edges, delete " << delete_pct
              << "% (GT_CHURN_VERTICES / GT_CHURN_EDGES / "
                 "GT_CHURN_DELETE_PCT)\n\n";

    const auto stream = rmat_edges(static_cast<VertexId>(vertices),
                                   static_cast<EdgeCount>(num_edges), 42);
    std::vector<Edge> deletions = stream;
    std::mt19937 rng(7);
    std::shuffle(deletions.begin(), deletions.end(), rng);
    deletions.resize(stream.size() * delete_pct / 100);

    const core::Config base =
        bench::gt_config(static_cast<VertexId>(vertices),
                         static_cast<EdgeCount>(num_edges));

    std::vector<ChurnRow> rows;
    rows.push_back(run_churn(base, "delete_only", stream, deletions));
    core::Config compact = base;
    compact.deletion_mode = core::DeletionMode::DeleteAndCompact;
    rows.push_back(run_churn(compact, "compact", stream, deletions));

    Table table({"mode", "probe churned", "probe maintained", "probe fresh",
                 "ratio", "churned drop", "footprint drop", "maintain s"});
    for (const ChurnRow& row : rows) {
        table.add_row({row.mode, Table::fmt(row.probe_churned, 2),
                       Table::fmt(row.probe_maintained, 2),
                       Table::fmt(row.probe_fresh, 2),
                       Table::fmt(row.probe_ratio, 3),
                       Table::fmt(row.churned_drop * 100.0, 1) + " %",
                       Table::fmt(row.footprint_drop * 100.0, 1) + " %",
                       Table::fmt(row.maintain_secs, 3)});
    }
    table.print(std::cout);
    for (const ChurnRow& row : rows) {
        std::cout << row.mode << ": purged " << row.report.trees_purged
                  << " trees / " << row.report.tombstones_purged
                  << " tombstones, moved " << row.report.cells_moved
                  << " cells, reclaimed " << row.report.eba_blocks_reclaimed
                  << " edgeblocks + " << row.report.cal_blocks_reclaimed
                  << " CAL blocks (" << row.report.cal_holes_reclaimed
                  << " holes)\n";
    }

    std::ofstream json(args.out_path);
    obs::JsonWriter w(json);
    w.begin_object();
    w.member("bench", "micro_churn");
    w.member("vertices", static_cast<std::uint64_t>(vertices));
    w.member("edges", static_cast<std::uint64_t>(num_edges));
    w.member("delete_pct", static_cast<std::uint64_t>(delete_pct));
    w.key("results").begin_array();
    for (const ChurnRow& r : rows) {
        w.begin_object();
        w.member("mode", r.mode);
        w.member("probe_churned", r.probe_churned);
        w.member("probe_maintained", r.probe_maintained);
        w.member("probe_fresh", r.probe_fresh);
        w.member("churned_ratio", r.churned_ratio);
        w.member("probe_ratio", r.probe_ratio);
        w.member("peak_bytes", static_cast<std::uint64_t>(r.peak_bytes));
        w.member("churned_bytes",
                 static_cast<std::uint64_t>(r.churned_bytes));
        w.member("after_bytes", static_cast<std::uint64_t>(r.after_bytes));
        w.member("churned_drop", r.churned_drop);
        w.member("footprint_drop", r.footprint_drop);
        w.member("maintain_secs", r.maintain_secs);
        w.member("trees_purged",
                 static_cast<std::uint64_t>(r.report.trees_purged));
        w.member("tombstones_purged",
                 static_cast<std::uint64_t>(r.report.tombstones_purged));
        w.member("cells_moved",
                 static_cast<std::uint64_t>(r.report.cells_moved));
        w.member("eba_blocks_reclaimed",
                 static_cast<std::uint64_t>(r.report.eba_blocks_reclaimed));
        w.member("cal_blocks_reclaimed",
                 static_cast<std::uint64_t>(r.report.cal_blocks_reclaimed));
        w.member("audits_ok", r.audits_ok);
        w.key("registry");
        obs::Exporter::append_json(w, r.telemetry);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish();
    std::cout << "wrote " << args.out_path << "\n";

    bench::write_registry_snapshot(args.registry_out, rows[0].telemetry);

    if (args.check) {
        bool failed = false;
        const auto gate = [&](bool ok, const std::string& what) {
            if (!ok) {
                std::cerr << "CHECK FAILED: " << what << "\n";
                failed = true;
            }
        };
        for (const ChurnRow& row : rows) {
            gate(row.audits_ok, "audit violations in " + row.mode);
        }
        const ChurnRow& del = rows[0];
        gate(del.report.tombstones_purged > 0,
             "delete_only maintain() purged no tombstones");
        gate(del.probe_ratio <= 1.10,
             "delete_only maintained probe at " +
                 Table::fmt(del.probe_ratio, 3) +
                 "x of the fresh twin (threshold 1.10x)");
        gate(del.footprint_drop >= 0.25,
             "delete_only footprint dropped " +
                 Table::fmt(del.footprint_drop * 100.0, 1) +
                 "% of peak (threshold 25%)");
        const ChurnRow& cmp = rows[1];
        gate(cmp.churned_ratio <= 1.10,
             "compact churned probe at " + Table::fmt(cmp.churned_ratio, 3) +
                 "x of the fresh twin before maintain() (threshold 1.10x)");
        gate(cmp.churned_drop >= 0.25,
             "compact footprint dropped " +
                 Table::fmt(cmp.churned_drop * 100.0, 1) +
                 "% of peak before maintain() (threshold 25%)");
        if (failed) {
            return 1;
        }
        std::cout << "check passed: delete_only purged "
                  << del.report.tombstones_purged << " tombstones, probe "
                  << Table::fmt(del.probe_ratio, 3) << "x, footprint drop "
                  << Table::fmt(del.footprint_drop * 100.0, 1)
                  << "%; compact before maintain() probe "
                  << Table::fmt(cmp.churned_ratio, 3) << "x, footprint drop "
                  << Table::fmt(cmp.churned_drop * 100.0, 1) << "%\n";
    }
    return 0;
}

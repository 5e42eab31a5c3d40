#include "recover/durable.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/audit.hpp"
#include "core/serialize.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "util/file_io.hpp"

namespace gt::recover {

namespace {

bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

Status load_snapshot_file(const std::string& path,
                          core::LoadedSnapshot& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return Status{StatusCode::IoError,
                      "cannot open snapshot '" + path + "'"};
    }
    return core::read_snapshot(in, out);
}

}  // namespace

DurableStore::~DurableStore() { close(); }

void DurableStore::close() noexcept {
    if (graph_ != nullptr && wal_ != nullptr) {
        graph_->attach_update_log(nullptr);
    }
    if (wal_ != nullptr) {
        wal_->close();
        wal_.reset();
    }
    graph_.reset();
}

std::string DurableStore::snapshot_path() const {
    return dir_ + "/snapshot.gts";
}
std::string DurableStore::prev_snapshot_path() const {
    return dir_ + "/snapshot.prev.gts";
}
std::string DurableStore::wal_path() const { return dir_ + "/wal.gtw"; }

Status DurableStore::open(const std::string& dir,
                          const DurableOptions& options, RecoveryInfo* info) {
    close();
    dir_ = dir;
    options_ = options;
    RecoveryInfo local;
    RecoveryInfo& ri = info != nullptr ? *info : local;
    ri = RecoveryInfo{};

    if (Status st = util::ensure_dir(dir); !st.ok()) {
        return st;
    }

    // 1. Newest-valid-snapshot fallback chain.
    core::LoadedSnapshot loaded;
    if (file_exists(snapshot_path())) {
        ri.snapshot_status = load_snapshot_file(snapshot_path(), loaded);
        if (ri.snapshot_status.ok()) {
            ri.source = RecoveryInfo::Source::Snapshot;
        }
    } else {
        ri.snapshot_status =
            Status{StatusCode::IoError, "snapshot.gts absent"};
    }
    if (loaded.graph == nullptr && file_exists(prev_snapshot_path())) {
        ri.prev_snapshot_status =
            load_snapshot_file(prev_snapshot_path(), loaded);
        if (ri.prev_snapshot_status.ok()) {
            ri.source = RecoveryInfo::Source::PrevSnapshot;
        }
    }
    if (loaded.graph != nullptr) {
        graph_ = std::move(loaded.graph);
        ri.snapshot_wal_seq = loaded.wal_seq;
    } else {
        ri.source = RecoveryInfo::Source::Fresh;
        ri.snapshot_wal_seq = 0;
        try {
            graph_ = std::make_unique<core::GraphTinker>(options.config);
        } catch (const std::invalid_argument& e) {
            return Status{StatusCode::InvalidArgument, e.what()};
        }
    }

    // 2. Replay the WAL tail on top (strictly after the snapshot's seq).
    ri.wal_present = file_exists(wal_path());
    if (ri.wal_present) {
        const Status st =
            replay_wal(wal_path(), *graph_, ri.snapshot_wal_seq, ri.replay);
        if (!st.ok()) {
            graph_.reset();
            return st;
        }
    }

    // 3. Post-replay structural audit: a recovered store must be
    // indistinguishable from one that never crashed.
    const core::AuditReport report = graph_->audit();
    ri.audit_clean = report.ok();
    if (!ri.audit_clean) {
        const Status st{StatusCode::RecoveryAuditFailed,
                        "post-replay audit: " + report.to_string(),
                        report.violations.size()};
        graph_.reset();
        return st;
    }

    // 4. Attach the appending WAL (its open() truncates the torn tail).
    wal_ = std::make_unique<WalWriter>(&graph_->obs());
    const std::uint64_t resume =
        std::max(ri.replay.last_seq, ri.snapshot_wal_seq) + 1;
    const Status wst = wal_->open(wal_path(), options.mode, resume);
    if (!wst.ok()) {
        wal_.reset();
        graph_.reset();
        return wst;
    }
    graph_->attach_update_log(wal_.get());
    return Status::success();
}

// ---------------------------------------------------------------------------
// Graph verbs

namespace {

[[nodiscard]] Status require_open(const DurableStore& store,
                                  const char* verb) {
    if (!store.is_open()) {
        return Status{StatusCode::InvalidArgument,
                      std::string{verb} + " on a closed store"};
    }
    return Status::success();
}

}  // namespace

Status DurableStore::insert_edges(std::span<const Edge> edges,
                                  std::uint64_t* edge_count) {
    if (Status st = require_open(*this, "insert_edges"); !st.ok()) {
        return st;
    }
    if (Status st = graph_->insert_batch(edges); !st.ok()) {
        return st;
    }
    if (edge_count != nullptr) {
        *edge_count = graph_->num_edges();
    }
    return Status::success();
}

Status DurableStore::delete_edges(std::span<const Edge> edges,
                                  std::uint64_t* edge_count) {
    if (Status st = require_open(*this, "delete_edges"); !st.ok()) {
        return st;
    }
    if (Status st = graph_->delete_batch(edges); !st.ok()) {
        return st;
    }
    if (edge_count != nullptr) {
        *edge_count = graph_->num_edges();
    }
    return Status::success();
}

Status DurableStore::degree_of(VertexId v, std::uint64_t& out) {
    if (Status st = require_open(*this, "degree_of"); !st.ok()) {
        return st;
    }
    out = graph_->degree(v);
    return Status::success();
}

Status DurableStore::bfs_distances(VertexId root,
                                   std::span<const VertexId> targets,
                                   std::vector<std::uint32_t>& out) {
    if (Status st = require_open(*this, "bfs_distances"); !st.ok()) {
        return st;
    }
    out.resize(targets.size());
    if (root >= graph_->num_vertices()) {
        // Past the vertex bound a root has no out-edges and reaches only
        // itself; the engine would size its arrays to it.
        for (std::size_t i = 0; i < targets.size(); ++i) {
            out[i] = targets[i] == root ? 0 : kInfDistance;
        }
        return Status::success();
    }
    engine::DynamicAnalysis<core::GraphTinker, engine::Bfs> a(*graph_);
    a.set_root(root);
    a.run_from_scratch();
    for (std::size_t i = 0; i < targets.size(); ++i) {
        out[i] = a.property(targets[i]);
    }
    return Status::success();
}

Status DurableStore::count(std::uint64_t& edges, std::uint64_t& vertices) {
    if (Status st = require_open(*this, "count"); !st.ok()) {
        return st;
    }
    edges = graph_->num_edges();
    vertices = graph_->num_vertices();
    return Status::success();
}

Status DurableStore::checkpoint() {
    if (!is_open()) {
        return Status{StatusCode::InvalidArgument,
                      "checkpoint on a closed store"};
    }
    // Hard durability boundary: everything the snapshot will claim to cover
    // must actually be on disk before the snapshot can rotate in.
    if (const Status st = wal_->sync(); !st.ok()) {
        return st;
    }
    const std::uint64_t covered_seq = wal_->durable_seq();
    const std::string tmp = dir_ + "/snapshot.tmp.gts";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return Status{StatusCode::IoError,
                          "cannot create '" + tmp + "'"};
        }
        if (const Status st = core::write_snapshot(*graph_, out, covered_seq);
            !st.ok()) {
            return st;
        }
    }
    if (const Status st = util::fsync_path(tmp, /*directory=*/false);
        !st.ok()) {
        return st;
    }
    // Rotate: current -> prev (clobbering the old prev), tmp -> current.
    // A crash between the renames leaves a valid prev to fall back to.
    if (file_exists(snapshot_path())) {
        if (std::rename(snapshot_path().c_str(),
                        prev_snapshot_path().c_str()) != 0) {
            return Status{StatusCode::IoError,
                          std::string{"snapshot rotate failed: "} +
                              std::strerror(errno)};
        }
    }
    if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
        return Status{StatusCode::IoError,
                      std::string{"snapshot rename failed: "} +
                          std::strerror(errno)};
    }
    return util::fsync_path(dir_, /*directory=*/true);
}

Status DurableStore::prune_wal() {
    if (!is_open()) {
        return Status{StatusCode::InvalidArgument,
                      "prune_wal on a closed store"};
    }
    // The snapshot chain must cover everything the WAL would be pruned of;
    // simplest sound policy: checkpoint already ran, so start a fresh log.
    const std::uint64_t resume = wal_->next_seq();
    const DurabilityMode mode = wal_->mode();
    graph_->attach_update_log(nullptr);
    wal_->close();
    // A fresh log is just the WAL file header (wal.hpp). It goes in through
    // wal.tmp.gtw, which atomic_replace truncates, so a stale tmp cannot
    // donate its records.
    const std::uint32_t fresh_log[] = {kWalMagic, kWalVersion};
    const Status replaced = util::atomic_replace(
        wal_path(), {reinterpret_cast<const unsigned char*>(fresh_log),
                     sizeof(fresh_log)});
    // The graph is un-teed until a log is re-attached, on every exit.
    // wal_path() now names the original log or the fresh one; given the
    // checkpoint, either is a valid resume point. If even reopening it
    // fails, the writer is poisoned and re-attached so writes are *refused*
    // with the error rather than silently applied undurably.
    const Status reopened = wal_->open(wal_path(), mode, resume);
    if (!reopened.ok()) {
        wal_->poison(reopened);
    }
    graph_->attach_update_log(wal_.get());
    return replaced.ok() ? reopened : replaced;
}

}  // namespace gt::recover

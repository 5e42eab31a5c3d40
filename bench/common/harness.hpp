// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "gen/datasets.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stinger/stinger.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace gt::bench {

/// Prints the standard bench banner: what figure this reproduces, the scale
/// factor in effect, and how to change it.
void banner(const std::string& figure, const std::string& description);

/// The flags every measuring bench accepts. `ok` is false after an unknown
/// flag (the bench should exit 2).
struct BenchArgs {
    std::string out_path;      // --out=PATH, seeded with the bench default
    std::string registry_out;  // --registry-out=PATH, empty = skip
    bool check = false;        // --check: enforce acceptance thresholds
    bool ok = true;
};

[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv,
                                         std::string default_out);

/// Writes a standalone registry-snapshot JSON document ("gt.obs.v1") to
/// `path` via the shared exporter; no-op when `path` is empty.
void write_registry_snapshot(const std::string& path,
                             const obs::Snapshot& snap);

/// Dataset scaled by GT_SCALE (see DESIGN.md §4).
[[nodiscard]] DatasetSpec scaled_dataset(const std::string& name);

/// All Table-1 datasets at the current scale.
[[nodiscard]] std::vector<DatasetSpec> scaled_datasets();

/// Batch size scaled so the number of batches matches the paper's x-axes.
[[nodiscard]] std::size_t batch_size();

/// GraphTinker config presized for a workload (the paper's deployments size
/// structures for the maximum attainable graph), in the paper's delete-only
/// Robin Hood mode rather than the library's compact-delete default.
[[nodiscard]] gt::core::Config gt_config(VertexId vertices, EdgeCount edges);

/// STINGER config presized likewise.
[[nodiscard]] gt::stinger::StingerConfig st_config(VertexId vertices,
                                                   EdgeCount edges);

}  // namespace gt::bench

#include "common/harness.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "gen/batcher.hpp"
#include "util/env.hpp"

namespace gt::bench {

void banner(const std::string& figure, const std::string& description) {
    std::printf("== %s ==\n%s\nGT_SCALE=%.4f of paper size (set GT_SCALE=1 "
                "for full scale)\n\n",
                figure.c_str(), description.c_str(), bench_scale());
}

BenchArgs parse_bench_args(int argc, char** argv, std::string default_out) {
    BenchArgs args;
    args.out_path = std::move(default_out);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            args.out_path = arg.substr(6);
        } else if (arg.rfind("--registry-out=", 0) == 0) {
            args.registry_out = arg.substr(15);
        } else if (arg == "--check") {
            args.check = true;
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            args.ok = false;
        }
    }
    return args;
}

void write_registry_snapshot(const std::string& path,
                             const obs::Snapshot& snap) {
    if (path.empty()) {
        return;
    }
    std::ofstream os(path);
    obs::Exporter::write_json(os, snap);
    std::cout << "wrote " << path << "\n";
}

DatasetSpec scaled_dataset(const std::string& name) {
    return dataset_by_name(name).scaled(bench_scale());
}

std::vector<DatasetSpec> scaled_datasets() {
    std::vector<DatasetSpec> out;
    for (const DatasetSpec& spec : table1_datasets()) {
        out.push_back(spec.scaled(bench_scale()));
    }
    return out;
}

std::size_t batch_size() { return scaled_batch_size(bench_scale()); }

gt::core::Config gt_config(VertexId vertices, EdgeCount edges) {
    gt::core::Config cfg;
    // The paper's figures measure the Robin Hood configuration; its
    // deletion experiments set their compact series explicitly.
    cfg.deletion_mode = gt::core::DeletionMode::DeleteOnly;
    cfg.initial_vertices = vertices;
    cfg.reserve_edges = edges;
    return cfg;
}

gt::stinger::StingerConfig st_config(VertexId vertices, EdgeCount edges) {
    gt::stinger::StingerConfig cfg;
    cfg.initial_vertices = vertices;
    cfg.reserve_edges = edges;
    return cfg;
}

}  // namespace gt::bench

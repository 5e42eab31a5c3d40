// perfledger: the repository benchmark's measuring binary.
//
//   perfledger --workload <local_churn|sharded_churn|serve_mixed>
//              --seed <n> --seconds <n> --trace <0|1>
//              --work-dir <dir> --result <file.json> [--spans <file.tsv>]
//              [--source-id <id>]
//
// Prints a human-readable report (host stamp, every metric the workload
// measured with its unit, findings) and writes the same data as JSON to
// --result; run.py turns that into the benchmark's one-line result. Exits
// 1 when a correctness check failed, 2 on bad arguments or a refused
// thread budget.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "ledger.hpp"
#include "obs/metrics.hpp"

namespace {

using ledger::Args;
using ledger::Report;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfledger: %s\nusage: perfledger --workload "
                 "<local_churn|sharded_churn|serve_mixed> --seed N --seconds "
                 "N --trace 0|1 --work-dir DIR --result FILE [--spans FILE] "
                 "[--source-id ID]\n",
                 why.c_str());
    std::exit(2);
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Stamp {
    int nproc = 0;
    unsigned hardware_threads = 0;
    std::string cpu;
    std::string source_id;
    std::string build_type = PERFLEDGER_BUILD_TYPE;
    int gt_simd = GT_SIMD;
    int gt_obs = gt::obs::kEnabled ? 1 : 0;
    int obs_recording = 0;
    unsigned obs_sample_period = 0;
    double peak_rss_mb = 0;
    /// Share of the VM's CPU time the hypervisor stole during the run.
    double steal_share = 0;
};

/// Aggregate (steal, total) jiffies from the first line of /proc/stat.
std::pair<double, double> cpu_steal_total() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0;
    double steal = 0;
    double v = 0;
    for (int field = 0; field < 8 && (in >> v); ++field) {
        total += v;
        if (field == 7) {
            steal = v;
        }
    }
    return {steal, total};
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0;
}

Stamp host_stamp(const Args& args, std::pair<double, double> stat0) {
    Stamp s;
    const auto stat1 = cpu_steal_total();
    s.steal_share = stat1.second > stat0.second
                        ? (stat1.first - stat0.first) /
                              (stat1.second - stat0.second)
                        : 0.0;
    s.nproc = ledger::usable_cpus();
    s.hardware_threads = std::thread::hardware_concurrency();
    s.cpu = cpu_model();
    s.source_id = args.source_id;
    s.obs_recording = gt::obs::recording() ? 1 : 0;
    s.obs_sample_period = gt::obs::sample_period();
    s.peak_rss_mb = peak_rss_mb();
    return s;
}

void write_metrics(std::ostream& out,
                   const std::map<std::string, ledger::Value>& m) {
    out << "{";
    bool first = true;
    for (const auto& [name, v] : m) {
        out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
            << json_number(v.value) << ", \"unit\": " << json_string(v.unit)
            << "}";
        first = false;
    }
    out << "}";
}

bool write_result(const std::string& path, const Args& args, const Stamp& st,
                  const Report& rep) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"workload\": " << json_string(args.workload)
        << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << (args.trace ? 1 : 0) << ",\n \"stamp\": {"
        << "\"nproc\": " << st.nproc
        << ", \"hardware_threads\": " << st.hardware_threads
        << ", \"cpu_model\": " << json_string(st.cpu)
        << ", \"source_id\": " << json_string(st.source_id)
        << ", \"build_type\": " << json_string(st.build_type)
        << ", \"GT_SIMD\": " << st.gt_simd << ", \"GT_OBS\": " << st.gt_obs
        << ", \"obs_recording\": " << st.obs_recording
        << ", \"obs_sample_period\": " << st.obs_sample_period
        << ", \"peak_rss_mb\": " << json_number(st.peak_rss_mb)
        << ", \"steal_share\": " << json_number(st.steal_share) << "},\n"
        << " \"correct\": " << (rep.correct ? "true" : "false")
        << ", \"attempted\": " << rep.attempted
        << ", \"failed\": " << rep.failed << ",\n \"end_to_end\": ";
    write_metrics(out, rep.e2e);
    out << ",\n \"per_layer\": ";
    write_metrics(out, rep.layers);
    out << ",\n \"notes\": [";
    for (std::size_t i = 0; i < rep.notes.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(rep.notes[i]);
    }
    out << "],\n \"failures\": [";
    for (std::size_t i = 0; i < rep.failures.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(rep.failures[i]);
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void print_report(const Args& args, const Stamp& st, const Report& rep) {
    std::printf("perfledger %s seed=%llu seconds=%d trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf(
        "host: nproc=%d hw_threads=%u cpu=\"%s\" source=%s build=%s "
        "GT_SIMD=%d GT_OBS=%d obs_recording=%d obs_sample_period=%u "
        "peak_rss=%.0fMiB steal=%.4f\n",
        st.nproc, st.hardware_threads, st.cpu.c_str(), st.source_id.c_str(),
        st.build_type.c_str(), st.gt_simd, st.gt_obs, st.obs_recording,
        st.obs_sample_period, st.peak_rss_mb, st.steal_share);
    std::printf("end-to-end%s:\n",
                args.trace ? " (the untraced phase of this traced run)" : "");
    for (const auto& [name, v] : rep.e2e) {
        std::printf("  %-24s %18.6f %s\n", name.c_str(), v.value,
                    v.unit.c_str());
    }
    if (args.trace) {
        std::printf("per-layer (0 = layer not exercised by this workload) "
                    "-> end-to-end metrics it should move:\n");
        for (const ledger::LayerMetric& m : ledger::layer_catalogue()) {
            const auto it = rep.layers.find(m.name);
            const double v = it == rep.layers.end() ? 0.0 : it->second.value;
            std::printf("  %-36s %14.6f %-5s ->", m.name, v, m.unit);
            std::istringstream moves(m.moves);
            std::string e;
            while (moves >> e) {
                const std::string key = e.substr(0, e.find('('));
                const auto hit = rep.e2e.find(key);
                if (hit != rep.e2e.end()) {
                    std::printf(" %s=%.6g %s", e.c_str(), hit->second.value,
                                hit->second.unit.c_str());
                } else {
                    std::printf(" %s", e.c_str());
                }
            }
            std::printf("   [%s]\n", m.workloads);
        }
    }
    for (const std::string& n : rep.notes) {
        std::printf("note: %s\n", n.c_str());
    }
    for (const std::string& f : rep.failures) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("correct=%s attempted=%llu failed=%llu\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    std::string result_path;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atoi(value.c_str());
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--result") {
            result_path = value;
        } else if (flag == "--spans") {
            spans_path = value;
        } else if (flag == "--source-id") {
            args.source_id = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.seconds < 1 || args.seconds > 60) {
        usage("--seconds must be in [1, 60]");
    }
    if (args.work_dir.empty() || result_path.empty()) {
        usage("--work-dir and --result are required");
    }
    ledger::make_dirs(args.work_dir);
    const auto stat0 = cpu_steal_total();

    Report rep;
    if (args.workload == "local_churn") {
        rep = ledger::run_local_churn(args);
    } else if (args.workload == "sharded_churn") {
        rep = ledger::run_sharded_churn(args);
    } else if (args.workload == "serve_mixed") {
        rep = ledger::run_serve_mixed(args);
    } else {
        usage("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
        // Every catalogued layer appears with its unit (0 where the workload
        // does not exercise it); an uncatalogued name is a bug.
        for (const auto& [name, v] : rep.layers) {
            bool known = false;
            for (const ledger::LayerMetric& m : ledger::layer_catalogue()) {
                known = known || name == m.name;
            }
            if (!known) {
                ledger::fatal("uncatalogued per-layer metric " + name);
            }
        }
        for (const ledger::LayerMetric& m : ledger::layer_catalogue()) {
            rep.layers[m.name].unit = m.unit;
        }
    }
    if (args.trace && !spans_path.empty() &&
        !ledger::Tracer::write_tsv(spans_path)) {
        rep.notes.push_back("could not write spans to " + spans_path);
    }
    const Stamp stamp = host_stamp(args, stat0);
    print_report(args, stamp, rep);
    if (!write_result(result_path, args, stamp, rep)) {
        std::fprintf(stderr, "perfledger: cannot write %s\n",
                     result_path.c_str());
        return 1;
    }
    return rep.correct ? 0 : 1;
}

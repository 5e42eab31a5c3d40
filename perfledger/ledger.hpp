// perfledger: shared pieces of the three benchmark workloads.
//
// Everything here sits outside the library: inputs are generated from the
// command-line seed, the program under test only ever sees the generated
// edges, and every measurement is taken around calls into the public APIs
// of src/core, src/recover, src/engine and src/net (spans), from the
// counters gt::obs already keeps (deltas), or from per-thread CPU time in
// /proc/self/task/*/schedstat. NOTES.md explains the workloads and the
// metric map.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/update_log.hpp"
#include "engine/reference.hpp"
#include "util/types.hpp"

namespace gt::core {
class GraphTinker;
}  // namespace gt::core

namespace ledger {

using gt::Edge;
using gt::VertexId;

// ---- clock ------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
[[nodiscard]] inline double ms_since(std::int64_t t0) noexcept {
    return static_cast<double>(now_ns() - t0) / 1e6;
}
[[nodiscard]] inline double s_since(std::int64_t t0) noexcept {
    return static_cast<double>(now_ns() - t0) / 1e9;
}

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
    return quantile(v, 0.5);
}

// ---- command line and results ----------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /// Scratch root for stores, traces and result files (inside the
    /// checkout; the runner passes <build dir>/work).
    std::string work_dir;
    /// Source identity stamped into the result (git sha or tree hash,
    /// computed by the runner).
    std::string source_id = "unknown";
};

struct Value {
    double value = 0.0;
    std::string unit;
};

/// What one workload run produced. `e2e` holds every end-to-end metric the
/// workload defines (BENCHMARK.json gates the ones all workloads share);
/// `layers` holds the per-layer metrics of a traced run.
struct Report {
    std::map<std::string, Value> e2e;
    std::map<std::string, Value> layers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;      // findings printed with the result
    std::vector<std::string> failures;   // failed correctness checks

    void set(const std::string& name, double v, const std::string& unit) {
        e2e[name] = Value{v, unit};
    }
    void layer(const std::string& name, double v) { layers[name].value = v; }
    /// Records a correctness check; a failure fails the run.
    void check(bool ok, const std::string& what);
    /// Counts one operation against `attempted` / `failed`.
    void op(bool ok) {
        ++attempted;
        if (!ok) {
            ++failed;
        }
    }
};

/// Per-layer metric catalogue: name, unit, the end-to-end metrics it should
/// move, and the workloads that exercise it (it reads 0 elsewhere).
struct LayerMetric {
    const char* name;
    const char* unit;
    const char* moves;
    const char* workloads;
};
[[nodiscard]] std::span<const LayerMetric> layer_catalogue();

// ---- host and thread budget ------------------------------------------------

/// CPUs this process may run on (sched_getaffinity).
[[nodiscard]] int usable_cpus();
/// Refuses (exit 2) a phase that would run more busy threads than CPUs.
void require_thread_budget(const char* workload, const char* phase,
                           int busy_threads);

/// Pins thread `tid` (0: the calling thread) to the index-th CPU this
/// process may use. Placement is part of each workload: on a VM, whether
/// two threads that hand work to each other share a vCPU swings a wire
/// round trip by 2x between runs. Returns false when the kernel refuses.
bool pin_thread(pid_t tid, int index);

/// Pins the calling thread to the index-th usable CPU until destruction,
/// then restores its previous affinity. Threads created meanwhile inherit
/// the pin, so release it before spawning worker pools.
class ScopedPin {
public:
    explicit ScopedPin(int index);
    ~ScopedPin();
    ScopedPin(const ScopedPin&) = delete;
    ScopedPin& operator=(const ScopedPin&) = delete;

private:
    cpu_set_t saved_{};
    bool restore_ = false;
};

// ---- per-thread CPU time ---------------------------------------------------

[[nodiscard]] pid_t this_tid() noexcept;
struct TaskCpu {
    std::string comm;
    std::uint64_t cpu_ns = 0;
};
/// CPU time of every live thread of this process, by tid.
[[nodiscard]] std::map<pid_t, TaskCpu> read_task_cpu();
/// Sum of CPU consumed between two readings by the tids in `which`;
/// threads that vanished in between count 0.
[[nodiscard]] double cpu_seconds_between(const std::map<pid_t, TaskCpu>& a,
                                         const std::map<pid_t, TaskCpu>& b,
                                         const std::set<pid_t>& which);
/// Tids alive in `after` but not in `before`.
[[nodiscard]] std::set<pid_t> new_tids(const std::map<pid_t, TaskCpu>& before,
                                       const std::map<pid_t, TaskCpu>& after);

// ---- spans -----------------------------------------------------------------

enum class SpanKind : std::uint8_t {
    Update,      // one update call (store, sharded producer, or wire)
    WalBegin,    // UpdateLog::begin_batch through the decorator
    WalStage,    // UpdateLog::stage_inserts / stage_deletes
    WalCommit,   // UpdateLog::commit_batch
    Checkpoint,  // DurableStore::checkpoint
    Prune,       // DurableStore::prune_wal
    Analytics,   // one BFS query
    Read,        // one degree / neighbors round trip
    Drain,       // ShardedStore::flush at the end of the window
    Pump,        // Replicator::pump_once
};
[[nodiscard]] const char* span_name(SpanKind k) noexcept;

struct Span {
    SpanKind kind = SpanKind::Update;
    std::int32_t parent = -1;  // index in the same thread's buffer
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// In-memory span recorder: one buffer per thread, owned by the tracer so
/// buffers outlive the threads that filled them. Recording is off unless
/// enable(true); a disabled ScopedSpan costs one relaxed load.
class Tracer {
public:
    struct Buffer {
        pid_t tid = 0;
        std::vector<Span> spans;
        std::int32_t open = -1;
    };
    static void enable(bool on) noexcept;
    [[nodiscard]] static bool enabled() noexcept;
    /// The calling thread's buffer (created on first use).
    [[nodiscard]] static Buffer& local();
    /// Every buffer. Call only while no thread records.
    [[nodiscard]] static std::vector<const Buffer*> buffers();
    /// Writes all spans as TSV (tid, index, parent, op, name, start, end).
    static bool write_tsv(const std::string& path);
};

class ScopedSpan {
public:
    explicit ScopedSpan(SpanKind kind, std::uint64_t op = 0) noexcept;
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer::Buffer* buf_ = nullptr;
    std::int32_t index_ = -1;
    std::int32_t prev_open_ = -1;
};

/// Durations (ms) of all spans of `kind`.
[[nodiscard]] std::vector<double> span_ms(SpanKind kind);
/// Self time (ms) of each span of `kind`: its duration minus the time its
/// direct children cover.
[[nodiscard]] std::vector<double> span_self_ms(SpanKind kind);
/// Sums consecutive pairs of call durations: one value per window step from
/// its (insert, delete) Update spans.
[[nodiscard]] std::vector<double> step_sums(const std::vector<double>& calls);
/// Per-frame WAL stage (begin + stage spans) and commit durations (ms),
/// grouped in recording order on each thread.
void wal_frame_ms(std::vector<double>& stage, std::vector<double>& commit);

/// UpdateLog decorator that times every call into the real log. Attach it
/// with graph().attach_update_log(); re-attach after DurableStore::prune_wal
/// (the prune re-binds the store's own log).
class TimedLog final : public gt::core::UpdateLog {
public:
    explicit TimedLog(gt::core::UpdateLog* inner) noexcept : inner_(inner) {}
    [[nodiscard]] bool begin_batch(std::uint64_t op_count) noexcept override;
    [[nodiscard]] bool stage_inserts(std::span<const Edge> edges)
        noexcept override;
    [[nodiscard]] bool stage_deletes(std::span<const Edge> edges)
        noexcept override;
    [[nodiscard]] bool commit_batch() noexcept override;
    void abort_batch() noexcept override;

private:
    gt::core::UpdateLog* inner_;
};

// ---- inputs ----------------------------------------------------------------

/// A deduplicated RMAT edge stream shaped as a sliding window.
///
/// edges[0, window) is the initial fill. Step k inserts
/// edges[window + k*step, window + (k+1)*step) and deletes
/// edges[k*step, (k+1)*step) — the batch that left the window. Generation
/// drops any candidate equal to an edge live at its step (including the
/// batch leaving in that step), so every insert creates an edge, every
/// delete removes one, and the live set after k steps is exactly
/// live(k). Either order inside a step is therefore exact.
struct WindowStream {
    std::size_t window = 0;
    std::size_t step = 0;
    std::vector<Edge> edges;
    /// Top out-degree vertices of the whole stream (BFS roots).
    std::vector<VertexId> roots;
    /// Vertices whose BFS distances the correctness checks compare.
    std::vector<VertexId> targets;

    [[nodiscard]] std::span<const Edge> inserts(std::size_t k) const {
        return std::span<const Edge>(edges).subspan(window + k * step, step);
    }
    [[nodiscard]] std::span<const Edge> deletes(std::size_t k) const {
        return std::span<const Edge>(edges).subspan(k * step, step);
    }
    [[nodiscard]] std::span<const Edge> live(std::size_t k) const {
        return std::span<const Edge>(edges).subspan(k * step, window);
    }
};

/// Graph500-default RMAT over `num_vertices`, deduplicated into a window
/// stream of `steps` steps. Candidates come from fixed-size chunks whose
/// seeds derive from `seed`, so the stream is a pure function of the
/// arguments (chunks are generated in parallel on at most usable_cpus()
/// threads, before any measured phase).
[[nodiscard]] WindowStream make_window_stream(VertexId num_vertices,
                                              std::size_t window,
                                              std::size_t step,
                                              std::size_t steps,
                                              std::uint64_t seed,
                                              std::size_t num_roots,
                                              std::size_t num_targets);

/// `count` RMAT source ids (skewed the way update sources are), for point
/// reads.
[[nodiscard]] std::vector<VertexId> skewed_vertices(VertexId num_vertices,
                                                    std::size_t count,
                                                    std::uint64_t seed);

/// Compares BFS distances for `targets` with engine::reference_bfs over a
/// CSR of the model edge set; returns an empty string when they agree.
[[nodiscard]] std::string compare_bfs(const gt::engine::CsrSnapshot& model,
                                      VertexId root,
                                      std::span<const VertexId> targets,
                                      std::span<const std::uint32_t> got);

// ---- measurements shared by the workloads ------------------------------------

/// The EdgeblockArray work counters gt::obs keeps per store.
struct CoreCounters {
    double probes = 0;
    double workblocks = 0;
    double rhh_swaps = 0;
    double branch_outs = 0;
    double wal_bytes = 0;
    CoreCounters& operator+=(const CoreCounters& o);
};
[[nodiscard]] CoreCounters core_counters(const gt::core::GraphTinker& g);

/// Structural gauges from GraphTinker::telemetry().
struct SpaceGauges {
    double live = 0;
    double tombstones = 0;
    double cal_slots = 0;
    double cal_live = 0;
    SpaceGauges& operator+=(const SpaceGauges& o);
};
[[nodiscard]] SpaceGauges space_gauges(const gt::core::GraphTinker& g);

/// Fills the core.* counter and space layers from counter deltas over a
/// phase that applied `updates` edge updates, `inserts` of them inserts.
void put_core_layers(Report& rep, const CoreCounters& before,
                     const CoreCounters& after, double updates,
                     double inserts, const SpaceGauges& space);

/// Runs the serial hybrid engine (DynamicAnalysis<GraphTinker, Bfs>) from
/// scratch for each root, twice, and fills the engine.* layers.
void put_engine_layers(Report& rep, const gt::core::GraphTinker& g,
                       std::span<const VertexId> roots);

/// In-process point reads (degree, or up to 64 out-edges, alternating) in
/// blocks of 1000: the median per-read cost in microseconds.
[[nodiscard]] double point_read_us(const gt::core::GraphTinker& g,
                                   std::span<const VertexId> vertices);

/// Prints `what` to stderr and ends the process with exit code 1 (no
/// result line is printed).
[[noreturn]] void fatal(const std::string& what);

// ---- files -----------------------------------------------------------------

/// Total size of the regular files directly inside `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);
/// mkdir -p.
void make_dirs(const std::string& dir);
/// rm -rf (refuses an empty path).
void remove_tree(const std::string& dir);

// ---- workloads ---------------------------------------------------------------

[[nodiscard]] Report run_local_churn(const Args& args);
[[nodiscard]] Report run_sharded_churn(const Args& args);
[[nodiscard]] Report run_serve_mixed(const Args& args);

}  // namespace ledger

#include "ledger.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/graphtinker.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "gen/rmat.hpp"
#include "obs/metrics.hpp"

namespace ledger {

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::check(bool ok, const std::string& what) {
    if (!ok) {
        correct = false;
        failures.push_back(what);
    }
}

// ---- catalogue -------------------------------------------------------------

namespace {
constexpr LayerMetric kLayers[] = {
    // src/core batch path
    {"core.apply_p50_ms", "ms", "update_eps update_p50_ms update_p90_ms", "local_churn"},
    {"core.apply_p90_ms", "ms", "update_eps update_p50_ms update_p90_ms", "local_churn"},
    {"core.probe_cells_per_update", "count", "update_eps update_p50_ms", "all"},
    {"core.workblocks_per_update", "count", "update_eps update_p50_ms", "all"},
    {"core.rhh_swaps_per_insert", "count", "update_eps update_p50_ms", "all"},
    {"core.branch_outs_per_kinsert", "count", "update_eps bytes_per_edge", "all"},
    // src/core space
    {"core.tombstone_share", "share", "bytes_per_edge analytics_p50_ms", "all"},
    {"core.cal_slots_per_edge", "count", "bytes_per_edge analytics_p50_ms", "all"},
    // src/core small-batch and read path
    {"core.small_update_p50_us", "us", "update_p50_ms(serve)", "serve_mixed"},
    {"core.point_read_us", "us", "read_p50_ms(serve)", "serve_mixed local_churn"},
    // src/recover/wal
    {"wal.stage_p50_ms", "ms", "update_p50_ms update_p90_ms", "local_churn serve_mixed"},
    {"wal.commit_p50_ms", "ms", "update_p50_ms update_p90_ms", "local_churn serve_mixed"},
    {"wal.commit_p90_ms", "ms", "update_p90_ms", "local_churn serve_mixed"},
    {"wal.bytes_per_update", "B", "disk_bytes_per_edge update_p50_ms", "local_churn serve_mixed"},
    {"wal.small_update_p50_us", "us", "update_p50_ms(serve)", "serve_mixed"},
    // src/recover/durable, src/core/serialize
    {"serialize.encode_ms", "ms", "checkpoint_p50_ms", "local_churn"},
    {"durable.checkpoint_io_ms", "ms", "checkpoint_p50_ms", "local_churn"},
    {"durable.prune_ms", "ms", "checkpoint_p50_ms", "local_churn"},
    {"serialize.decode_ms", "ms", "recover_s", "local_churn"},
    {"wal.replay_ms", "ms", "recover_s", "local_churn"},
    {"core.audit_ms", "ms", "recover_s", "local_churn"},
    {"durable.recover_unexplained_share", "share", "recover_s", "local_churn"},
    // src/engine/hybrid_engine
    {"engine.run_p50_ms", "ms", "analytics_p50_ms", "local_churn serve_mixed"},
    {"engine.iterations_per_query", "count", "analytics_p50_ms", "local_churn serve_mixed"},
    {"engine.full_share", "share", "analytics_p50_ms", "local_churn serve_mixed"},
    {"engine.streamed_per_logical", "count", "analytics_p50_ms", "local_churn serve_mixed"},
    // src/engine/parallel_engine
    {"engine.parallel.busy_share", "share", "analytics_p50_ms", "sharded_churn"},
    {"engine.parallel.scaling", "x", "analytics_p50_ms", "sharded_churn"},
    {"engine.parallel.full_share", "share", "analytics_p50_ms", "sharded_churn"},
    {"engine.parallel.streamed_per_logical", "count", "analytics_p50_ms", "sharded_churn"},
    // src/core/sharded
    {"sharded.enqueue_p50_ms", "ms", "update_eps update_p50_ms", "sharded_churn"},
    {"sharded.drain_ms", "ms", "update_eps", "sharded_churn"},
    {"sharded.handoff_p50_us", "us", "update_eps", "sharded_churn"},
    {"sharded.worker_busy_share", "share", "update_eps", "sharded_churn"},
    {"sharded.skew", "x", "update_eps", "sharded_churn"},
    {"sharded.scaling", "x", "update_eps", "sharded_churn"},
    // src/net
    {"net.ping_rtt_p50_us", "us", "update_p50_ms read_p50_ms", "serve_mixed"},
    {"net.update_overhead_p50_us", "us", "update_p50_ms update_p99_ms", "serve_mixed"},
    {"net.read_overhead_p50_us", "us", "read_p50_ms read_p99_ms", "serve_mixed"},
    {"net.bytes_per_op", "B", "update_p50_ms read_p50_ms", "serve_mixed"},
    {"net.busy_shed_share", "share", "ok_share", "serve_mixed"},
    {"net.deferred_share", "share", "update_p99_ms", "serve_mixed"},
    {"net.server_busy_share", "share", "update_eps read_p50_ms", "serve_mixed"},
    {"net.write_ladder_unexplained_share", "share", "update_p50_ms", "serve_mixed"},
    // src/net/replica + server shipping
    {"replica.pump_p50_ms", "ms", "replica_catchup_eps", "serve_mixed"},
    {"replica.apply_busy_share", "share", "replica_catchup_eps", "serve_mixed"},
    {"replica.primary_busy_share", "share", "replica_catchup_eps", "serve_mixed"},
    {"replica.frames_shipped", "count", "replica_applied_share", "serve_mixed"},
    {"replica.stream_failures", "count", "replica_applied_share", "serve_mixed"},
    // the tracer itself
    {"trace.overhead_share", "share", "(traced vs untraced update phase)", "all"},
};
}  // namespace

std::span<const LayerMetric> layer_catalogue() { return kLayers; }

// ---- host and thread budget ------------------------------------------------

int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        return CPU_COUNT(&set);
    }
    return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

void require_thread_budget(const char* workload, const char* phase,
                           int busy_threads) {
    const int cpus = usable_cpus();
    if (busy_threads > cpus) {
        std::fprintf(stderr,
                     "perfledger: refusing %s: phase '%s' runs %d busy "
                     "threads but only %d CPUs are usable\n",
                     workload, phase, busy_threads, cpus);
        std::exit(2);
    }
}

namespace {
/// The index-th CPU of the process's affinity mask at first use (the
/// mask before any pinning).
int usable_cpu(int index) {
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) {
                    out.push_back(c);
                }
            }
        }
        if (out.empty()) {
            out.push_back(0);
        }
        return out;
    }();
    return cpus[static_cast<std::size_t>(index) % cpus.size()];
}
}  // namespace

bool pin_thread(pid_t tid, int index) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(usable_cpu(index), &set);
    return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

ScopedPin::ScopedPin(int index) {
    CPU_ZERO(&saved_);
    restore_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
               pin_thread(0, index);
}

ScopedPin::~ScopedPin() {
    if (restore_) {
        (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
    }
}

// ---- per-thread CPU time ---------------------------------------------------

pid_t this_tid() noexcept { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::map<pid_t, TaskCpu> read_task_cpu() {
    std::map<pid_t, TaskCpu> out;
    DIR* d = ::opendir("/proc/self/task");
    if (d == nullptr) {
        return out;
    }
    while (const dirent* e = ::readdir(d)) {
        if (e->d_name[0] < '0' || e->d_name[0] > '9') {
            continue;
        }
        const std::string base = std::string("/proc/self/task/") + e->d_name;
        std::ifstream st(base + "/schedstat");
        std::uint64_t ns = 0;
        if (!(st >> ns)) {
            continue;  // thread exited between readdir and open
        }
        TaskCpu t;
        t.cpu_ns = ns;
        std::ifstream comm(base + "/comm");
        std::getline(comm, t.comm);
        out[static_cast<pid_t>(std::atoi(e->d_name))] = std::move(t);
    }
    ::closedir(d);
    return out;
}

double cpu_seconds_between(const std::map<pid_t, TaskCpu>& a,
                           const std::map<pid_t, TaskCpu>& b,
                           const std::set<pid_t>& which) {
    std::uint64_t ns = 0;
    for (const auto& [tid, after] : b) {
        if (which.count(tid) == 0) {
            continue;
        }
        const auto it = a.find(tid);
        const std::uint64_t before = it == a.end() ? 0 : it->second.cpu_ns;
        ns += after.cpu_ns >= before ? after.cpu_ns - before : 0;
    }
    return static_cast<double>(ns) / 1e9;
}

std::set<pid_t> new_tids(const std::map<pid_t, TaskCpu>& before,
                         const std::map<pid_t, TaskCpu>& after) {
    std::set<pid_t> out;
    for (const auto& [tid, t] : after) {
        if (before.count(tid) == 0) {
            out.insert(tid);
        }
    }
    return out;
}

// ---- spans -----------------------------------------------------------------

namespace {
std::atomic<bool> g_trace_on{false};
std::mutex g_buffers_mu;
std::deque<std::unique_ptr<Tracer::Buffer>>& all_buffers() {
    static std::deque<std::unique_ptr<Tracer::Buffer>> buffers;
    return buffers;
}
thread_local Tracer::Buffer* tl_buffer = nullptr;
}  // namespace

const char* span_name(SpanKind k) noexcept {
    switch (k) {
        case SpanKind::Update: return "update";
        case SpanKind::WalBegin: return "wal.begin";
        case SpanKind::WalStage: return "wal.stage";
        case SpanKind::WalCommit: return "wal.commit";
        case SpanKind::Checkpoint: return "checkpoint";
        case SpanKind::Prune: return "prune";
        case SpanKind::Analytics: return "analytics";
        case SpanKind::Read: return "read";
        case SpanKind::Drain: return "drain";
        case SpanKind::Pump: return "pump";
    }
    return "?";
}

void Tracer::enable(bool on) noexcept {
    g_trace_on.store(on, std::memory_order_relaxed);
}
bool Tracer::enabled() noexcept {
    return g_trace_on.load(std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::local() {
    if (tl_buffer == nullptr) {
        auto buf = std::make_unique<Buffer>();
        buf->tid = this_tid();
        buf->spans.reserve(std::size_t{1} << 16);
        const std::lock_guard<std::mutex> lock(g_buffers_mu);
        tl_buffer = buf.get();
        all_buffers().push_back(std::move(buf));
    }
    return *tl_buffer;
}

std::vector<const Tracer::Buffer*> Tracer::buffers() {
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    std::vector<const Buffer*> out;
    for (const auto& b : all_buffers()) {
        out.push_back(b.get());
    }
    return out;
}

bool Tracer::write_tsv(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    out << "tid\tindex\tparent\top\tname\tstart_ns\tend_ns\n";
    for (const Buffer* b : buffers()) {
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const Span& s = b->spans[i];
            out << b->tid << '\t' << i << '\t' << s.parent << '\t' << s.op
                << '\t' << span_name(s.kind) << '\t' << s.start_ns << '\t'
                << s.end_ns << '\n';
        }
    }
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t op) noexcept {
    if (!Tracer::enabled()) {
        return;
    }
    buf_ = &Tracer::local();
    prev_open_ = buf_->open;
    index_ = static_cast<std::int32_t>(buf_->spans.size());
    const std::uint64_t parent_op =
        prev_open_ >= 0 ? buf_->spans[static_cast<std::size_t>(prev_open_)].op
                        : 0;
    buf_->spans.push_back(
        Span{kind, prev_open_, op != 0 ? op : parent_op, now_ns(), 0});
    buf_->open = index_;
}

ScopedSpan::~ScopedSpan() {
    if (buf_ == nullptr) {
        return;
    }
    buf_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    buf_->open = prev_open_;
}

std::vector<double> span_ms(SpanKind kind) {
    std::vector<double> out;
    for (const Tracer::Buffer* b : Tracer::buffers()) {
        for (const Span& s : b->spans) {
            if (s.kind == kind && s.end_ns != 0) {
                out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
            }
        }
    }
    return out;
}

std::vector<double> span_self_ms(SpanKind kind) {
    std::vector<double> out;
    for (const Tracer::Buffer* b : Tracer::buffers()) {
        std::vector<std::int64_t> child_ns(b->spans.size(), 0);
        for (const Span& s : b->spans) {
            if (s.parent >= 0 && s.end_ns != 0) {
                child_ns[static_cast<std::size_t>(s.parent)] +=
                    s.end_ns - s.start_ns;
            }
        }
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const Span& s = b->spans[i];
            if (s.kind == kind && s.end_ns != 0) {
                out.push_back(
                    static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e6);
            }
        }
    }
    return out;
}

std::vector<double> step_sums(const std::vector<double>& calls) {
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < calls.size(); i += 2) {
        out.push_back(calls[i] + calls[i + 1]);
    }
    return out;
}

void wal_frame_ms(std::vector<double>& stage, std::vector<double>& commit) {
    for (const Tracer::Buffer* b : Tracer::buffers()) {
        std::int64_t staged = 0;
        for (const Span& s : b->spans) {
            const std::int64_t d = s.end_ns - s.start_ns;
            if (s.kind == SpanKind::WalBegin) {
                staged = d;
            } else if (s.kind == SpanKind::WalStage) {
                staged += d;
            } else if (s.kind == SpanKind::WalCommit) {
                stage.push_back(static_cast<double>(staged) / 1e6);
                commit.push_back(static_cast<double>(d) / 1e6);
                staged = 0;
            }
        }
    }
}

bool TimedLog::begin_batch(std::uint64_t op_count) noexcept {
    const ScopedSpan span(SpanKind::WalBegin);
    return inner_->begin_batch(op_count);
}
bool TimedLog::stage_inserts(std::span<const Edge> edges) noexcept {
    const ScopedSpan span(SpanKind::WalStage);
    return inner_->stage_inserts(edges);
}
bool TimedLog::stage_deletes(std::span<const Edge> edges) noexcept {
    const ScopedSpan span(SpanKind::WalStage);
    return inner_->stage_deletes(edges);
}
bool TimedLog::commit_batch() noexcept {
    const ScopedSpan span(SpanKind::WalCommit);
    return inner_->commit_batch();
}
void TimedLog::abort_batch() noexcept { inner_->abort_batch(); }

// ---- inputs ----------------------------------------------------------------

namespace {

[[nodiscard]] std::uint64_t splitmix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t key_of(const Edge& e) noexcept {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
}

/// Linear-probing set of edge keys with backward-shift deletion: the
/// window filter does ~3 operations per generated edge, so it must not
/// allocate per element.
class EdgeSet {
public:
    explicit EdgeSet(std::size_t expected) {
        std::size_t cap = 16;
        while (cap < expected * 3) {
            cap <<= 1;
        }
        slots_.assign(cap, kEmpty);
        mask_ = cap - 1;
    }
    /// True when `key` was absent (and is now present).
    bool insert(std::uint64_t key) {
        std::size_t i = home(key);
        while (slots_[i] != kEmpty) {
            if (slots_[i] == key) {
                return false;
            }
            i = (i + 1) & mask_;
        }
        slots_[i] = key;
        return true;
    }
    void erase(std::uint64_t key) {
        std::size_t i = home(key);
        while (slots_[i] != key) {
            if (slots_[i] == kEmpty) {
                return;
            }
            i = (i + 1) & mask_;
        }
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (slots_[j] == kEmpty) {
                break;
            }
            const std::size_t h = home(slots_[j]);
            // Move slots_[j] back into the hole unless its home lies
            // cyclically in (i, j].
            const bool stays = i <= j ? (h > i && h <= j) : (h > i || h <= j);
            if (!stays) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = kEmpty;
    }

private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
        return static_cast<std::size_t>(splitmix(key)) & mask_;
    }
    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
};

/// Candidate edges in fixed chunks, generated in parallel rounds.
class Candidates {
public:
    Candidates(VertexId n, std::uint64_t seed) : n_(n), seed_(seed) {}
    const Edge& next() {
        if (pos_ == buf_.size()) {
            refill();
        }
        return buf_[pos_++];
    }

private:
    static constexpr std::size_t kChunk = std::size_t{1} << 20;
    void refill() {
        const auto threads =
            static_cast<std::size_t>(std::max(1, usable_cpus()));
        std::vector<std::vector<Edge>> parts(threads);
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < threads; ++t) {
            const std::uint64_t chunk_seed = splitmix(seed_ ^ splitmix(chunk_ + t));
            pool.emplace_back([this, &parts, t, chunk_seed] {
                parts[t] = gt::rmat_edges(n_, kChunk, chunk_seed);
            });
        }
        for (std::thread& th : pool) {
            th.join();
        }
        chunk_ += threads;
        buf_.clear();
        for (const auto& p : parts) {
            buf_.insert(buf_.end(), p.begin(), p.end());
        }
        pos_ = 0;
    }
    VertexId n_;
    std::uint64_t seed_;
    std::uint64_t chunk_ = 0;
    std::vector<Edge> buf_;
    std::size_t pos_ = 0;
};

}  // namespace

WindowStream make_window_stream(VertexId num_vertices, std::size_t window,
                                std::size_t step, std::size_t steps,
                                std::uint64_t seed, std::size_t num_roots,
                                std::size_t num_targets) {
    WindowStream ws;
    ws.window = window;
    ws.step = step;
    const std::size_t total = window + steps * step;
    ws.edges.reserve(total);
    Candidates cand(num_vertices, seed);
    EdgeSet live(window + step);
    while (ws.edges.size() < window) {
        const Edge& e = cand.next();
        if (live.insert(key_of(e))) {
            ws.edges.push_back(e);
        }
    }
    for (std::size_t k = 0; k < steps; ++k) {
        const std::size_t target = window + (k + 1) * step;
        while (ws.edges.size() < target) {
            const Edge& e = cand.next();
            if (live.insert(key_of(e))) {
                ws.edges.push_back(e);
            }
        }
        for (std::size_t i = k * step; i < (k + 1) * step; ++i) {
            live.erase(key_of(ws.edges[i]));
        }
    }

    std::vector<std::uint32_t> outdeg(num_vertices, 0);
    for (const Edge& e : ws.edges) {
        ++outdeg[e.src];
    }
    std::vector<VertexId> order(num_vertices);
    std::iota(order.begin(), order.end(), VertexId{0});
    const std::size_t r = std::min<std::size_t>(num_roots, num_vertices);
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r),
                      order.end(), [&](VertexId a, VertexId b) {
                          return outdeg[a] != outdeg[b] ? outdeg[a] > outdeg[b]
                                                        : a < b;
                      });
    ws.roots.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r));

    // Targets: destinations spread over the final window, plus a few
    // arbitrary ids (likely unreachable — the oracle must agree on those
    // too).
    const std::span<const Edge> last = ws.live(steps);
    std::uint64_t h = splitmix(seed ^ 0x7A76E7ULL);
    for (std::size_t i = 0; i < num_targets; ++i) {
        h = splitmix(h);
        if (i % 4 == 3) {
            ws.targets.push_back(static_cast<VertexId>(h % num_vertices));
        } else {
            ws.targets.push_back(last[h % last.size()].dst);
        }
    }
    return ws;
}

std::vector<VertexId> skewed_vertices(VertexId num_vertices, std::size_t count,
                                      std::uint64_t seed) {
    const std::vector<Edge> sample =
        gt::rmat_edges(num_vertices, count, splitmix(seed ^ 0x5EEDULL));
    std::vector<VertexId> out;
    out.reserve(sample.size());
    for (const Edge& e : sample) {
        out.push_back(e.src);
    }
    return out;
}

std::string compare_bfs(const gt::engine::CsrSnapshot& model, VertexId root,
                        std::span<const VertexId> targets,
                        std::span<const std::uint32_t> got) {
    const std::vector<std::uint32_t> want =
        gt::engine::reference_bfs(model, root);
    if (got.size() != targets.size()) {
        return "BFS from " + std::to_string(root) + " returned " +
               std::to_string(got.size()) + " distances for " +
               std::to_string(targets.size()) + " targets";
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const VertexId t = targets[i];
        const std::uint32_t w = t < want.size() ? want[t] : gt::kInfDistance;
        if (got[i] != w) {
            return "BFS from " + std::to_string(root) + " to " +
                   std::to_string(t) + ": got " + std::to_string(got[i]) +
                   ", reference " + std::to_string(w);
        }
    }
    return {};
}

// ---- measurements shared by the workloads ------------------------------------

CoreCounters& CoreCounters::operator+=(const CoreCounters& o) {
    probes += o.probes;
    workblocks += o.workblocks;
    rhh_swaps += o.rhh_swaps;
    branch_outs += o.branch_outs;
    wal_bytes += o.wal_bytes;
    return *this;
}

CoreCounters core_counters(const gt::core::GraphTinker& g) {
    gt::obs::Registry& r = g.obs();
    CoreCounters c;
    c.probes = static_cast<double>(r.counter("eba.cells_probed").value());
    c.workblocks =
        static_cast<double>(r.counter("eba.workblocks_fetched").value());
    c.rhh_swaps = static_cast<double>(r.counter("eba.rhh_swaps").value());
    c.branch_outs = static_cast<double>(r.counter("eba.branch_outs").value());
    c.wal_bytes = static_cast<double>(r.counter("wal.bytes_written").value());
    return c;
}

SpaceGauges& SpaceGauges::operator+=(const SpaceGauges& o) {
    live += o.live;
    tombstones += o.tombstones;
    cal_slots += o.cal_slots;
    cal_live += o.cal_live;
    return *this;
}

SpaceGauges space_gauges(const gt::core::GraphTinker& g) {
    const gt::obs::Snapshot snap = g.telemetry();
    SpaceGauges s;
    s.live = snap.gauge_value("gt.num_edges");
    s.tombstones = snap.gauge_value("eba.tombstones");
    s.cal_slots = snap.gauge_value("cal.scanned_slots");
    s.cal_live = snap.gauge_value("cal.live_edges");
    return s;
}

namespace {
[[nodiscard]] double ratio(double num, double den) {
    return den > 0 ? num / den : 0.0;
}
}  // namespace

void put_core_layers(Report& rep, const CoreCounters& before,
                     const CoreCounters& after, double updates,
                     double inserts, const SpaceGauges& space) {
    rep.layer("core.probe_cells_per_update",
              ratio(after.probes - before.probes, updates));
    rep.layer("core.workblocks_per_update",
              ratio(after.workblocks - before.workblocks, updates));
    rep.layer("core.rhh_swaps_per_insert",
              ratio(after.rhh_swaps - before.rhh_swaps, inserts));
    rep.layer("core.branch_outs_per_kinsert",
              ratio(after.branch_outs - before.branch_outs, inserts / 1e3));
    rep.layer("core.tombstone_share",
              ratio(space.tombstones, space.live + space.tombstones));
    rep.layer("core.cal_slots_per_edge", ratio(space.cal_slots, space.cal_live));
}

void put_engine_layers(Report& rep, const gt::core::GraphTinker& g,
                       std::span<const VertexId> roots) {
    std::vector<double> ms;
    gt::engine::RunStats total;
    for (int round = 0; round < 2; ++round) {
        for (const VertexId root : roots) {
            gt::engine::DynamicAnalysis<gt::core::GraphTinker, gt::engine::Bfs>
                a(g);
            a.set_root(root);
            const std::int64_t t0 = now_ns();
            total.accumulate(a.run_from_scratch());
            ms.push_back(ms_since(t0));
        }
    }
    rep.layer("engine.run_p50_ms", median(ms));
    rep.layer("engine.iterations_per_query",
              ratio(static_cast<double>(total.iterations),
                    static_cast<double>(ms.size())));
    rep.layer("engine.full_share",
              ratio(static_cast<double>(total.full_iterations),
                    static_cast<double>(total.iterations)));
    rep.layer("engine.streamed_per_logical",
              ratio(static_cast<double>(total.edges_streamed),
                    static_cast<double>(total.logical_edges)));
}

namespace {
/// Keeps the point-read loop's results observable.
std::atomic<std::uint64_t> g_read_sink{0};
}  // namespace

double point_read_us(const gt::core::GraphTinker& g,
                     std::span<const VertexId> vertices) {
    constexpr std::size_t kBlock = 1000;
    constexpr std::size_t kBlocks = 20;
    std::vector<double> per_read;
    std::uint64_t sink = 0;
    std::size_t cursor = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < kBlock; ++i) {
            const VertexId v = vertices[cursor++ % vertices.size()];
            if (i % 2 == 0) {
                sink += g.degree(v);
            } else {
                std::uint32_t n = 0;
                (void)g.visit_out_edges(v, [&](VertexId dst, gt::Weight) {
                    sink += dst;
                    return ++n < 64;
                });
            }
        }
        per_read.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                           static_cast<double>(kBlock));
    }
    g_read_sink.fetch_add(sink, std::memory_order_relaxed);
    return median(per_read);
}

void fatal(const std::string& what) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfledger: fatal: %s\n", what.c_str());
    std::fflush(stderr);
    std::_Exit(1);
}

// ---- files -----------------------------------------------------------------

std::uint64_t dir_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) {
            total += entry.file_size(ec);
        }
    }
    return total;
}

void make_dirs(const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
}

void remove_tree(const std::string& dir) {
    if (dir.empty() || dir == "/") {
        return;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

}  // namespace ledger

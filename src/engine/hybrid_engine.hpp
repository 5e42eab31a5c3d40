// The hybrid edge-centric graph engine (paper §IV).
//
// Per iteration, the inference unit predicts whether full processing (FP —
// stream *all* edges contiguously, here from the CAL; messages from inactive
// sources are simply skipped) or incremental processing (IP — walk the
// out-edges of each active vertex through the EdgeblockArray) is cheaper,
// using the paper's rule:
//
//     T = A / E,     mode = FP when T > threshold (0.02), else IP
//
// where A is the number of active vertices for the upcoming iteration and E
// is the number of edges loaded so far. Both modes compute identical
// per-iteration results; only the memory access pattern differs — which is
// the whole point.
//
// The engine is generic over the store: any type providing
//   visit_out_edges(v, fn(dst, w)) / visit_edges(fn(src, dst, w)) /
//   num_edges() / num_vertices() / degree(v)
// can drive it, so GraphTinker and the STINGER baseline are exercised by
// byte-for-byte the same engine code.
//
// A core::ShardedStore (the paper's Fig. 6 intervals) drives the same loop
// with the scatter phase split by shard. Each run holds one
// read_snapshot_all() pin, so it reads every shard at one settled epoch
// while ingest waits. The shards scatter in parallel on a ThreadPool with
// one thread per shard, each into a private message buffer, and the buffers
// merge before the serial apply. Results are bit-identical to a single store
// holding the same edges because reduce is associative and commutative for
// every shipped algorithm. Any other store scatters inline into the final
// buffer.
//
// Telemetry goes through gt::obs: point EngineOptions::registry at a
// MetricsRegistry and the engine appends one row per iteration to the
// "engine.trace" series (mode, decision ratio, edges streamed/walked, wall
// time) and bumps the aggregate "engine.*" counters. No registry, no
// recording — there is no private trace vector any more.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/active_set.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace gt::engine {

/// Load path of one iteration.
enum class Mode : std::uint8_t { Full, Incremental };

/// Engine-level policy for choosing the load path.
///
/// `Hybrid` is the paper's inference rule: T = A/E against a fixed
/// threshold, where A counts active vertices. `HybridDegreeAware`
/// implements the paper's stated future-work heuristic: it weighs the
/// active set by its total degree (L = Σ degree(active)), i.e. the exact
/// number of edges an incremental iteration would walk, and compares L/E
/// against `degree_threshold` — the measured cost ratio between streaming
/// one edge from the CAL and walking one edge through the EdgeblockArray.
/// On graphs whose average degree is so high that A/E can never reach the
/// fixed threshold (e.g. hollywood-2009), the degree-aware rule still finds
/// the FP/IP crossover.
enum class ModePolicy : std::uint8_t {
    ForceFull,
    ForceIncremental,
    Hybrid,
    HybridDegreeAware,
};

struct EngineOptions {
    ModePolicy policy = ModePolicy::Hybrid;
    /// The paper's empirically chosen decision threshold (§IV.B).
    double threshold = 0.02;
    /// Crossover for HybridDegreeAware: choose FP when the incremental walk
    /// would touch more than this fraction of all edges.
    double degree_threshold = 0.3;
    /// Telemetry sink. When set, every iteration appends a row to the
    /// "engine.trace" series (fields kTraceFields below) and bumps the
    /// aggregate "engine.*" counters. Typically `&store.obs()` so engine
    /// and store telemetry land in one snapshot; null disables recording.
    obs::Registry* registry = nullptr;
};

/// Field schema of the "engine.trace" series, one row per iteration:
/// `iteration` is a monotonically increasing sequence number across runs,
/// `mode_full` is 1.0 for FP / 0.0 for IP, `ratio` is the value the
/// inference unit compared against its threshold (A/E, or L/E for the
/// degree-aware policy).
inline constexpr std::array<std::string_view, 7> kTraceFields = {
    "iteration",     "mode_full",     "active", "ratio",
    "edges_streamed", "logical_edges", "seconds"};

/// Aggregated statistics for one analytics run (one convergence to
/// fixpoint). `logical_edges` is mode-independent, so
/// logical_edges / seconds is the throughput metric used to compare FP, IP,
/// hybrid and the STINGER baseline on equal footing (EXPERIMENTS.md).
struct RunStats {
    std::size_t iterations = 0;
    std::size_t full_iterations = 0;
    std::size_t incremental_iterations = 0;
    std::uint64_t edges_streamed = 0;
    std::uint64_t logical_edges = 0;
    double seconds = 0.0;

    void accumulate(const RunStats& other) {
        iterations += other.iterations;
        full_iterations += other.full_iterations;
        incremental_iterations += other.incremental_iterations;
        edges_streamed += other.edges_streamed;
        logical_edges += other.logical_edges;
        seconds += other.seconds;
    }

    [[nodiscard]] double throughput_meps() const noexcept {
        return mops(logical_edges, seconds);
    }
};

/// A partitioned store (core::ShardedStore): one store per shard, owner
/// shard of a source by shard_of(), all shards readable together through
/// one read_snapshot_all() pin.
template <typename S>
concept PartitionedStore = requires(const S& s, std::size_t i, VertexId v) {
    { s.num_shards() } -> std::convertible_to<std::size_t>;
    s.shard(i);
    { S::shard_of(v, i) } -> std::convertible_to<std::size_t>;
    s.read_snapshot_all();
};

/// A persistent dynamic analysis: vertex properties survive across batch
/// updates so the incremental-compute model can refine the previous result
/// instead of recomputing it (paper §II.B).
template <typename Store, typename Alg>
class DynamicAnalysis {
public:
    using Property = typename Alg::Property;

    explicit DynamicAnalysis(const Store& store, EngineOptions opts = {},
                             Alg alg = {})
        : store_(store), opts_(opts), alg_(alg) {
        if constexpr (PartitionedStore<Store>) {
            pool_ = std::make_unique<ThreadPool>(store.num_shards());
            locals_.resize(store.num_shards());
        }
        if (opts_.registry != nullptr) {
            obs::Registry& r = *opts_.registry;
            trace_ = &r.series("engine.trace",
                               {kTraceFields.begin(), kTraceFields.end()});
            iterations_m_ = &r.counter("engine.iterations");
            full_m_ = &r.counter("engine.full_iterations");
            incremental_m_ = &r.counter("engine.incremental_iterations");
            streamed_m_ = &r.counter("engine.edges_streamed");
            logical_m_ = &r.counter("engine.logical_edges");
        }
    }

    /// Registers the analysis root (BFS/SSSP); its property becomes 0 and it
    /// seeds from-scratch runs. May be called before the vertex exists, and
    /// sizes every per-vertex array to root + 1: callers answer a root past
    /// the store's vertex bound themselves. Precondition:
    /// root != kInvalidVertex.
    void set_root(VertexId root) {
        assert(root != kInvalidVertex && "set_root: kInvalidVertex is no root");
        roots_.push_back(root);
        grow(root + 1);
        props_[root] = Property{0};
        active_.insert(root);
    }

    /// Set-Inconsistency-Vertices unit + run to fixpoint. Call *after* the
    /// store ingested `batch`.
    RunStats on_batch(std::span<const Edge> batch) {
        return run([&](VertexId bound) {
            grow(bound);
            alg_.seed_batch(batch, [&](VertexId v) { active_.insert(v); });
        });
    }

    /// Store-and-static-compute model: discard prior state and recompute the
    /// whole analysis on the graph as it currently stands.
    RunStats run_from_scratch() {
        return run([&](VertexId bound) { reset(bound); });
    }

    /// Re-seeds without discarding properties (useful after manual edits).
    RunStats run_to_fixpoint() {
        return run([&](VertexId bound) { grow(bound); });
    }

    [[nodiscard]] const std::vector<Property>& properties() const noexcept {
        return props_;
    }
    [[nodiscard]] Property property(VertexId v) const {
        return v < props_.size() ? props_[v] : alg_.initial(v);
    }
    [[nodiscard]] const Alg& algorithm() const noexcept { return alg_; }
    [[nodiscard]] const EngineOptions& options() const noexcept {
        return opts_;
    }
    /// Scatter threads: one per shard over a sharded store, else none.
    [[nodiscard]] std::size_t num_workers() const noexcept {
        return pool_ ? pool_->size() : 0;
    }

private:
    /// The shard stores of one read_snapshot_all() pin, read as one graph.
    template <typename Pin>
    struct PinnedShards {
        const Pin& pin;

        [[nodiscard]] VertexId num_vertices() const {
            VertexId bound = 0;
            for (std::size_t s = 0; s < pin.num_shards(); ++s) {
                bound = std::max(bound, pin.store(s).num_vertices());
            }
            return bound;
        }
        [[nodiscard]] EdgeCount num_edges() const { return pin.edge_total(); }
        [[nodiscard]] auto degree(VertexId u) const {
            return pin.store(Store::shard_of(u, pin.num_shards())).degree(u);
        }
    };

    /// One shard's private scatter buffer, plus the active vertices it owns
    /// (the sources of an incremental iteration).
    struct Local {
        std::vector<Property> temp;
        ActiveSet touched;
        std::vector<VertexId> sources;
        std::uint64_t streamed = 0;
    };

    void grow(VertexId bound) {
        const auto old = static_cast<VertexId>(props_.size());
        if (bound <= old) {
            return;
        }
        props_.resize(bound);
        temp_.resize(bound);
        for (VertexId v = old; v < bound; ++v) {
            props_[v] = alg_.initial(v);
        }
        active_.resize(bound);
        next_.resize(bound);
        touched_.resize(bound);
        for (Local& local : locals_) {
            local.temp.resize(bound);
            local.touched.resize(bound);
        }
    }

    void reset(VertexId bound) {
        active_.clear();
        next_.clear();
        touched_.clear();
        props_.clear();
        grow(bound);
        if constexpr (Alg::needs_root) {
            for (VertexId root : roots_) {
                grow(root + 1);
                props_[root] = Property{0};
                active_.insert(root);
            }
        } else {
            // Label-propagation style: every vertex starts active owning its
            // initial label.
            for (VertexId v = 0; v < bound; ++v) {
                active_.insert(v);
            }
        }
    }

    /// Mode plus the ratio the inference unit compared (published to the
    /// "engine.trace" series so threshold crossings are visible post hoc).
    struct ModeDecision {
        Mode mode;
        double ratio;
    };

    /// The inference-box decision for the upcoming iteration (paper §IV.B).
    template <typename Graph>
    [[nodiscard]] ModeDecision decide_mode(const Graph& g) const {
        const double edges =
            static_cast<double>(std::max<EdgeCount>(g.num_edges(), 1));
        const double a_over_e = static_cast<double>(active_.size()) / edges;
        switch (opts_.policy) {
            case ModePolicy::ForceFull:
                return {Mode::Full, a_over_e};
            case ModePolicy::ForceIncremental:
                return {Mode::Incremental, a_over_e};
            case ModePolicy::Hybrid:
                return {a_over_e > opts_.threshold ? Mode::Full
                                                   : Mode::Incremental,
                        a_over_e};
            case ModePolicy::HybridDegreeAware:
                break;
        }
        std::uint64_t walk = 0;  // edges an IP iteration would traverse
        for (VertexId u : active_.vertices()) {
            walk += g.degree(u);
        }
        const double t = static_cast<double>(walk) / edges;
        return {t > opts_.degree_threshold ? Mode::Full : Mode::Incremental,
                t};
    }

    /// Reduces `msg` into the buffer (temp, touched) at `dst`.
    void send(std::vector<Property>& temp, ActiveSet& touched, VertexId dst,
              Property msg) const {
        if (touched.insert(dst)) {
            temp[dst] = msg;
        } else {
            temp[dst] = alg_.reduce(temp[dst], msg);
        }
    }

    /// Scatters the active vertices' messages over `part`'s edges into
    /// (temp, touched) and returns the edges streamed. IP walks the
    /// out-edges of `sources`; FP streams every edge of `part`. It writes
    /// nothing but (temp, touched), so shards may run it concurrently.
    template <typename Part>
    std::uint64_t scatter(const Part& part, Mode mode,
                          const std::vector<VertexId>& sources,
                          std::vector<Property>& temp,
                          ActiveSet& touched) const {
        std::uint64_t streamed = 0;
        if (mode == Mode::Incremental) {
            for (VertexId u : sources) {
                const Property up = props_[u];
                part.visit_out_edges(u, [&](VertexId v, Weight w) {
                    ++streamed;
                    if (const auto msg = alg_.process_edge(u, up, w)) {
                        send(temp, touched, v, *msg);
                    }
                });
            }
        } else {
            part.visit_edges([&](VertexId u, VertexId v, Weight w) {
                ++streamed;
                if (active_.contains(u)) {
                    if (const auto msg = alg_.process_edge(u, props_[u], w)) {
                        send(temp, touched, v, *msg);
                    }
                }
            });
        }
        return streamed;
    }

    /// Sharded scatter: shard s streams its pinned store into locals_[s],
    /// all shards in parallel on the pool; the buffers then merge into
    /// (temp_, touched_).
    template <typename Pin>
    std::uint64_t scatter_shards(const Pin& pin, Mode mode) {
        if (mode == Mode::Incremental) {
            for (Local& local : locals_) {
                local.sources.clear();
            }
            const std::size_t n = locals_.size();
            for (VertexId u : active_.vertices()) {
                locals_[Store::shard_of(u, n)].sources.push_back(u);
            }
        }
        pool_->for_each_worker([&](std::size_t s) {
            Local& local = locals_[s];
            local.touched.clear();
            local.streamed = scatter(pin.store(s), mode, local.sources,
                                     local.temp, local.touched);
        });
        std::uint64_t streamed = 0;
        for (Local& local : locals_) {
            streamed += local.streamed;
            for (VertexId v : local.touched.vertices()) {
                send(temp_, touched_, v, local.temp[v]);
            }
        }
        return streamed;
    }

    /// Runs to fixpoint from the state `seed(vertex bound)` leaves. Over a
    /// sharded store, the whole run reads through one all-shard pin.
    template <typename Seed>
    RunStats run(Seed&& seed) {
        if constexpr (PartitionedStore<Store>) {
            const auto pin = store_.read_snapshot_all();
            return iterate(PinnedShards<decltype(pin)>{pin}, seed);
        } else {
            return iterate(store_, seed);
        }
    }

    template <typename Graph, typename Seed>
    RunStats iterate(const Graph& g, Seed& seed) {
        seed(static_cast<VertexId>(g.num_vertices()));
        RunStats stats;
        while (!active_.empty()) {
            Timer timer;
            const ModeDecision decision = decide_mode(g);
            const Mode mode = decision.mode;
            const std::size_t processed = active_.size();
            touched_.clear();

            // --- processing phase (scatter + reduce) --------------------
            std::uint64_t streamed = 0;
            if constexpr (PartitionedStore<Store>) {
                streamed = scatter_shards(g.pin, mode);
            } else {
                streamed = scatter(g, mode, active_.vertices(), temp_,
                                   touched_);
            }
            std::uint64_t logical = streamed;
            if (mode == Mode::Full) {
                logical = 0;
                for (VertexId u : active_.vertices()) {
                    logical += g.degree(u);
                }
            }

            // Post-scatter hook: algorithms like forward-push PageRank fold
            // the mass they just pushed into their own committed state.
            if constexpr (requires(Alg a, Property& prop) {
                              a.on_scattered(prop);
                          }) {
                for (VertexId u : active_.vertices()) {
                    alg_.on_scattered(props_[u]);
                }
            }

            // --- apply phase (commit + next frontier) --------------------
            next_.clear();
            for (VertexId v : touched_.vertices()) {
                if (alg_.apply(props_[v], temp_[v])) {
                    next_.insert(v);
                }
            }
            active_.swap(next_);

            const double secs = timer.seconds();
            ++stats.iterations;
            if (mode == Mode::Full) {
                ++stats.full_iterations;
            } else {
                ++stats.incremental_iterations;
            }
            stats.edges_streamed += streamed;
            stats.logical_edges += logical;
            stats.seconds += secs;
            publish_iteration(decision, processed, streamed, logical, secs);
        }
        return stats;
    }

    void publish_iteration(ModeDecision decision, std::size_t processed,
                           std::uint64_t streamed, std::uint64_t logical,
                           double secs) {
        if (trace_ == nullptr) {
            return;
        }
        iterations_m_->inc();
        (decision.mode == Mode::Full ? full_m_ : incremental_m_)->inc();
        streamed_m_->add(streamed);
        logical_m_->add(logical);
        const double row[] = {static_cast<double>(++iteration_seq_),
                              decision.mode == Mode::Full ? 1.0 : 0.0,
                              static_cast<double>(processed),
                              decision.ratio,
                              static_cast<double>(streamed),
                              static_cast<double>(logical),
                              secs};
        trace_->append(row);
    }

    const Store& store_;
    EngineOptions opts_;
    Alg alg_;
    // Telemetry handles, resolved once in the constructor; all null when
    // EngineOptions::registry is null (trace_ doubles as the gate).
    obs::Series* trace_ = nullptr;
    obs::Counter* iterations_m_ = nullptr;
    obs::Counter* full_m_ = nullptr;
    obs::Counter* incremental_m_ = nullptr;
    obs::Counter* streamed_m_ = nullptr;
    obs::Counter* logical_m_ = nullptr;
    std::uint64_t iteration_seq_ = 0;  // trace row ids, monotone across runs
    // Sharded stores only: the scatter pool (one thread per shard) and one
    // buffer per shard. Null and empty over any other store.
    std::unique_ptr<ThreadPool> pool_;
    std::vector<Local> locals_;
    std::vector<Property> props_;
    std::vector<Property> temp_;
    ActiveSet active_;
    ActiveSet next_;
    ActiveSet touched_;
    std::vector<VertexId> roots_;
};

}  // namespace gt::engine

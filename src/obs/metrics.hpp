// gt::obs — the observability layer (DESIGN.md §"Observability").
//
// GraphTinker's claims are quantitative (probe distance, FP/IP mode flips,
// tombstone pressure), so the runtime must be able to explain its own
// behaviour cheaply. This header provides the four telemetry primitives and
// the registry that names them:
//
//   Counter    monotonic relaxed-atomic u64 (cells probed, blocks freed, …)
//   Gauge      last-value double (live edges, blocks in use, A/E ratio, …)
//   Histogram  log2-bucketed u64 distribution (probe distance per FIND /
//              INSERT, batch ingest latency, maintenance cells touched,
//              CAL chain length)
//   Series     bounded ring of structured samples (the hybrid engine's
//              per-iteration trace: mode, A/E, edges streamed, wall time)
//
// Producers resolve typed handles from a MetricsRegistry once at
// construction and record through them on the hot path; exporters snapshot
// the registry into a stable-schema value rendered by obs/export.hpp.
//
// Cost model. Counters are one relaxed atomic add. Histogram/Series
// recording costs more and is double-gated: the GT_OBS compile-time switch
// (=0 compiles record() to an empty body) and a process-wide runtime knob
// (obs::set_recording) that reduces an armed record() to one
// predictable-branch relaxed load. Hot-path sites use record_sampled(),
// which additionally keeps only every `sample_period()`-th sample, so even
// fully enabled recording costs one thread-local increment per op in the
// common case. micro-bench budget: < 2% ingest delta with recording
// disabled at runtime (gated in CI via BENCH_obs_overhead.json).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

// Compile-time gate: -DGT_OBS=0 removes histogram/series recording bodies
// entirely (counters and gauges stay — tests and telemetry() read them).
#ifndef GT_OBS
#define GT_OBS 1
#endif

namespace gt::obs {

/// True when the build carries the hot-path recording bodies.
inline constexpr bool kEnabled = GT_OBS != 0;

// ---- runtime knobs (process-wide) -------------------------------------

/// Master runtime switch for histogram/series recording. Defaults from the
/// GT_OBS_RECORD environment variable (unset/non-zero = on) at first use.
[[nodiscard]] bool recording() noexcept;
void set_recording(bool on) noexcept;

/// Sampling period for record_sampled() hot-path sites: only every
/// `period`-th sample lands in the histogram. Rounded down to a power of
/// two; 1 records everything. Defaults from GT_OBS_SAMPLE (default 64).
[[nodiscard]] std::uint32_t sample_period() noexcept;
void set_sample_period(std::uint32_t period) noexcept;

namespace detail {
/// Mask form of sample_period (period - 1; period is a power of two).
[[nodiscard]] std::uint32_t sample_mask() noexcept;
}  // namespace detail

// ---- primitives -------------------------------------------------------

/// Monotonic counter safe to bump from const read paths shared by
/// concurrent readers. Relaxed: counters never synchronize anything.
class Counter {
public:
    void add(std::uint64_t delta) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    void inc() noexcept { add(1); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (levels, ratios, footprints). Writers race benignly:
/// readers see one of the written values.
class Gauge {
public:
    void set(double value) noexcept {
        value_.store(value, std::memory_order_relaxed);
    }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
};

/// log2-bucketed histogram: bucket i counts values whose bit width is i
/// (bucket 0 = value 0, bucket i = [2^(i-1), 2^i) for i >= 1). 33 buckets
/// cover the u32-ish quantities recorded here (cells, microseconds, blocks)
/// with headroom; larger values clamp into the last bucket.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 33;

    /// Records one sample (gated on the runtime switch only). Use for
    /// per-batch / per-sweep sites where every sample is cheap to keep.
    void record(std::uint64_t value) noexcept {
#if GT_OBS
        if (!recording()) {
            return;
        }
        record_unchecked(value);
#else
        (void)value;
#endif
    }

    /// Hot-path variant: additionally keeps only every sample_period()-th
    /// sample (per thread), so per-op cost stays a predictable branch plus
    /// one thread-local increment.
    void record_sampled(std::uint64_t value) noexcept {
#if GT_OBS
        if (!recording()) {
            return;
        }
        thread_local std::uint32_t tick = 0;
        if ((++tick & detail::sample_mask()) != 0) {
            return;
        }
        record_unchecked(value);
#else
        (void)value;
#endif
    }

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
        const auto w = static_cast<std::size_t>(std::bit_width(value));
        return w < kBuckets ? w : kBuckets - 1;
    }
    /// Inclusive upper bound of bucket i (what a rendered axis labels).
    [[nodiscard]] static std::uint64_t bucket_limit(std::size_t i) noexcept {
        return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }

private:
    void record_unchecked(std::uint64_t value) noexcept {
        buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Bounded ring of structured samples under a fixed field schema — the
/// hybrid engine publishes one row per iteration here. Appends are
/// mutex-guarded: rows arrive at iteration granularity, never per edge.
class Series {
public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    Series(std::vector<std::string> fields, std::size_t capacity)
        : fields_(std::move(fields)),
          capacity_(capacity == 0 ? 1 : capacity) {}

    /// Appends one row (row.size() must equal fields().size(); extra values
    /// are dropped, missing ones zero-filled). Oldest rows fall out once
    /// the ring is full. Gated on the runtime recording switch.
    void append(std::span<const double> row) {
        if (!recording()) {
            return;
        }
        const LockGuard lock(mu_);
        std::vector<double> stored(fields_.size(), 0.0);
        const std::size_t n = std::min(row.size(), stored.size());
        for (std::size_t i = 0; i < n; ++i) {
            stored[i] = row[i];
        }
        if (rows_.size() < capacity_) {
            rows_.push_back(std::move(stored));
        } else {
            rows_[head_] = std::move(stored);
            head_ = (head_ + 1) % capacity_;
            ++dropped_;
        }
        ++appended_;
    }

    void clear() {
        const LockGuard lock(mu_);
        rows_.clear();
        head_ = 0;
        appended_ = 0;
        dropped_ = 0;
    }

    [[nodiscard]] const std::vector<std::string>& fields() const noexcept {
        return fields_;
    }
    /// Rows in append order (oldest surviving row first).
    [[nodiscard]] std::vector<std::vector<double>> rows() const {
        const LockGuard lock(mu_);
        std::vector<std::vector<double>> out;
        out.reserve(rows_.size());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out.push_back(rows_[(head_ + i) % rows_.size()]);
        }
        return out;
    }
    [[nodiscard]] std::size_t size() const {
        const LockGuard lock(mu_);
        return rows_.size();
    }
    /// Total rows ever appended (dropped rows included).
    [[nodiscard]] std::uint64_t appended() const {
        const LockGuard lock(mu_);
        return appended_;
    }

private:
    std::vector<std::string> fields_;  // immutable after construction
    std::size_t capacity_;             // immutable after construction
    mutable Mutex mu_;
    std::vector<std::vector<double>> rows_ GT_GUARDED_BY(mu_);
    /// Oldest row once the ring wrapped.
    std::size_t head_ GT_GUARDED_BY(mu_) = 0;
    std::uint64_t appended_ GT_GUARDED_BY(mu_) = 0;
    std::uint64_t dropped_ GT_GUARDED_BY(mu_) = 0;
};

// ---- snapshot ---------------------------------------------------------

/// Point-in-time copy of a registry, sorted by name — the stable schema the
/// exporter renders. Counter/gauge/histogram/series sections each appear in
/// lexicographic name order.
struct Snapshot {
    struct CounterRow {
        std::string name;
        std::uint64_t value = 0;
    };
    struct GaugeRow {
        std::string name;
        double value = 0.0;
    };
    struct HistogramRow {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::array<std::uint64_t, Histogram::kBuckets> buckets{};

        [[nodiscard]] double mean() const noexcept {
            return count == 0 ? 0.0
                              : static_cast<double>(sum) /
                                    static_cast<double>(count);
        }
        /// Upper bound of the bucket containing quantile `q` in [0, 1].
        [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept;
    };
    struct SeriesRow {
        std::string name;
        std::vector<std::string> fields;
        std::vector<std::vector<double>> rows;
    };

    std::vector<CounterRow> counters;
    std::vector<GaugeRow> gauges;
    std::vector<HistogramRow> histograms;
    std::vector<SeriesRow> series;

    [[nodiscard]] const CounterRow* counter(std::string_view name) const;
    [[nodiscard]] const GaugeRow* gauge(std::string_view name) const;
    [[nodiscard]] const HistogramRow* histogram(std::string_view name) const;
    [[nodiscard]] const SeriesRow* find_series(std::string_view name) const;
    /// Counter value by name (0 when absent) — assertion convenience.
    [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
    [[nodiscard]] double gauge_value(std::string_view name) const;
};

// ---- registry ---------------------------------------------------------

/// Named metric store. Handle resolution (counter/gauge/histogram/series)
/// interns the name under a mutex and returns a stable reference — callers
/// resolve once at construction and record lock-free afterwards. Metric
/// names use dotted lowercase ("eba.cells_probed"); the rendered schema is
/// sorted by name, so adding a metric never reorders existing ones.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    [[nodiscard]] Histogram& histogram(std::string_view name);
    /// Resolves a series, creating it with `fields`/`capacity` when new
    /// (an existing series keeps its original schema).
    [[nodiscard]] Series& series(
        std::string_view name, std::vector<std::string> fields,
        std::size_t capacity = Series::kDefaultCapacity);

    [[nodiscard]] Snapshot snapshot() const;

private:
    // The maps are guarded (interning mutates them); the pointed-to metrics
    // are not — handles returned from resolution are recorded through
    // lock-free, which is the whole point of resolve-once-then-record.
    mutable Mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        GT_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        GT_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
        GT_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Series>, std::less<>> series_
        GT_GUARDED_BY(mu_);
};

/// Registry is the term the rest of the tree uses.
using Registry = MetricsRegistry;

}  // namespace gt::obs

#include "core/graphtinker.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

#include "util/failpoint.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace gt::core {

GraphTinker::GraphTinker(Config config)
    : config_(config),
      obs_(std::make_unique<obs::Registry>()),
      sgh_(config.enable_sgh ? config.initial_vertices : 16),
      cal_(config.cal_group_size, config.cal_block_edges, obs_.get()),
      eba_(config_, config.enable_cal ? &cal_ : nullptr, obs_.get()) {
    config_.validate();
    props_.reserve(config_.initial_vertices);
    if (config_.reserve_edges > 0 && config_.enable_cal) {
        cal_.reserve(config_.reserve_edges);
    }
    ingest_batch_us_ = &obs_->histogram("gt.insert_batch_us");
    delete_batch_us_ = &obs_->histogram("gt.delete_batch_us");
    batches_ingested_ = &obs_->counter("gt.batches");
    updates_applied_ = &obs_->counter("gt.updates");
    maintenance_runs_ = &obs_->counter("maintenance.runs");
    maintenance_cells_touched_ =
        &obs_->histogram("maintenance.cells_touched");
}

VertexId GraphTinker::map_source(VertexId raw) {
    if (config_.enable_sgh) {
        // The main region covers exactly the dense ids SGH has handed out.
        // Its room for one more record is made first, so a failed growth
        // leaves the mapping unchanged.
        if (props_.size() == props_.capacity()) {
            props_.reserve(std::max<std::size_t>(16, 2 * props_.capacity()));
        }
        const VertexId dense = sgh_.get_or_assign(raw);
        props_.ensure(dense);  // a new id is the next record: no growth
        return dense;
    }
    // SGH disabled: raw ids index the main region directly, so the swept id
    // space is as large as the largest id ever streamed.
    props_.ensure(raw);
    return raw;
}

std::optional<VertexId> GraphTinker::dense_of(VertexId raw) const {
    if (config_.enable_sgh) {
        return sgh_.lookup(raw);
    }
    if (raw < props_.size()) {
        return raw;
    }
    return std::nullopt;
}

template <typename Body>
bool GraphTinker::solo_frame(const Edge& e, bool deletes, Body&& body) {
    // Solo durability frame: a single-edge call outside any batch is its
    // own all-or-nothing commit unit, with the same policy as
    // run_transaction — if the frame cannot be staged the mutation is
    // refused, and if the commit fails the mutation is rolled back, so the
    // in-memory store never diverges from what post-crash replay rebuilds.
    // The cause stays latched in the log's status(). A rollback re-enters
    // insert_edge with a transaction state other than Idle: the frame it
    // unwinds was aborted or never committed, so nothing is logged. An op
    // that does not land leaves num_vertices() where it was.
    const bool tee = log_ != nullptr && txn_ == TxnState::Idle;
    const VertexId raw_bound = raw_bound_;
    if (tee) {
        const std::span<const Edge> one{&e, 1};
        if (!(log_->begin_batch(1) && (deletes ? log_->stage_deletes(one)
                                               : log_->stage_inserts(one)))) {
            log_->abort_batch();
            return false;
        }
        journal_.clear();
        journal_.reserve(1);  // the one apply-path journal push is nothrow
        txn_ = TxnState::Applying;
        // gt-txn: first-mutation
    }
    bool result = false;
    try {
        result = body();
    } catch (...) {
        if (tee) {
            txn_ = TxnState::Idle;
            journal_.clear();
            log_->abort_batch();
        }
        raw_bound_ = raw_bound;
        throw;
    }
    if (tee) {
        txn_ = TxnState::Idle;
        // gt-txn: commit
        if (!log_->commit_batch()) {
            // An incomplete unwind cannot be reported through the bool; it
            // can lose only a duplicate insert's weight restore or a
            // delete's re-insert.
            (void)rollback_journal();
            raw_bound_ = raw_bound;
            return false;
        }
        journal_.clear();
    }
    // An insert mutates on every call (a duplicate overwrites the weight),
    // a delete only when it found the edge.
    if (!deletes || result) {
        mutation_epoch_.fetch_add(1, std::memory_order_release);
    }
    return result;
}

bool GraphTinker::insert_edge(VertexId src, VertexId dst, Weight weight) {
    if (src == kInvalidVertex || dst == kInvalidVertex) {
        return false;  // refused before any frame or mutation (see header)
    }
    return solo_frame({src, dst, weight}, /*deletes=*/false, [&] {
        note_raw(src);
        note_raw(dst);
        VertexId dense = kInvalidVertex;
        bool created = false;
        try {
            dense = map_source(src);
            if (config_.enable_cal) {
                CoarseAdjacencyList::Appender app = cal_.appender(dense);
                created = insert_resolved(dense, src, dst, weight, &app);
            } else {
                created = insert_resolved(dense, src, dst, weight, nullptr);
            }
        } catch (...) {
            // Growth pre-flights throw before any structural mutation, so
            // the only thing to undo is a mapping this call made for a
            // source that never got its edge.
            if (dense != kInvalidVertex) {
                release_if_empty(dense);
            }
            throw;
        }
        if (created) {
            ++props_[dense].degree;
            ++num_edges_;
        }
        return created;
    });
}

bool GraphTinker::insert_resolved(VertexId dense, VertexId raw_src,
                                  VertexId dst, Weight weight,
                                  CoarseAdjacencyList::Appender* app) {
    // Growth pre-flight: every allocation the apply below could need is
    // performed (or its capacity reserved) here, before any structural
    // mutation — one insert allocates at most a fresh top, a branch-out, or
    // a narrow top's promotion plus one branch-out, and one CAL block, so
    // after these calls the probe/cascade/append below is nothrow. A
    // failure here (real or injected via the "eba.grow" / "cal.grow" fail
    // points) therefore leaves this edge un-applied and the store
    // untouched, which is what makes a mid-batch failure cleanly
    // roll-backable from the undo journal alone.
    std::uint32_t& top = props_[dense].top;
    eba_.prepare_insert(top);
    if (app != nullptr) {
        app->prepare();
    }
    const auto probe = eba_.probe_insert(top, dst, weight);
    using Kind = EdgeblockArray::ProbeResult::Kind;
    switch (probe.kind) {
        case Kind::Duplicate:
            // probe_insert already updated the EdgeblockArray weight.
            if (config_.enable_cal && probe.cal_pos != kNoCalPos) {
                cal_.update_weight(probe.cal_pos, weight);
            }
            if (txn_ == TxnState::Applying) {
                journal_.push_back(UndoEntry{UndoEntry::Kind::RestoreWeight,
                                             raw_src, dst,
                                             probe.prev_weight});
            }
            return false;
        case Kind::PlaceAt: {
            // Common case: one probe walk pinned a free cell and proved the
            // key absent; append the CAL copy and write the cell directly.
            const std::uint32_t cal_pos =
                app != nullptr ? app->append(raw_src, dst, weight, probe.where)
                               : kNoCalPos;
            eba_.place_at(probe.where, dst, weight, cal_pos);
            break;
        }
        case Kind::Absent: {
            // Congested/reusable-slot path: create the CAL copy first
            // (placeholder owner) and let the edge carry its CAL pointer
            // through the Robin Hood cascade — every placement re-binds the
            // owner, so the backreference stays correct however often the
            // new edge is displaced. The cascade starts at the probe's
            // resume point, below the full windows it already crossed.
            const std::uint32_t cal_pos =
                app != nullptr ? app->append(raw_src, dst, weight, CellRef{})
                               : kNoCalPos;
            eba_.insert_new(top, dst, weight, cal_pos, probe.resume_block,
                            probe.resume_level);
            break;
        }
    }
    if (txn_ == TxnState::Applying) {
        journal_.push_back(
            UndoEntry{UndoEntry::Kind::EraseInsert, raw_src, dst, 0});
    }
    return true;
}

bool GraphTinker::delete_edge(VertexId src, VertexId dst) {
    if (src == kInvalidVertex || dst == kInvalidVertex) {
        return false;  // refused before any frame is staged (see header)
    }
    return solo_frame({src, dst, 0}, /*deletes=*/true, [&] {
        const auto dense = dense_of(src);
        return dense && delete_resolved(*dense, src, dst);
    });
}

bool GraphTinker::delete_resolved(VertexId dense, VertexId raw_src,
                                  VertexId dst, bool defer_cal) {
    VertexProperty& rec = props_[dense];
    if (rec.top == EdgeblockArray::kNoBlock) {
        return false;
    }
    // Erase pre-flight: the narrow block a demotion takes, the "cal.grow"
    // fail point and room on SGH's free list for the id an emptied tree
    // returns, all up front, so a compacting erase cannot throw
    // mid-mutation.
    eba_.prepare_erase(rec.top);
    if (config_.enable_cal) {
        cal_.prepare_erase();
    }
    prepare_release();
    const auto result = eba_.erase(rec.top, dst);
    if (!result.found) {
        return false;
    }
    --rec.degree;
    --num_edges_;
    if (config_.enable_cal && result.cal_pos != kNoCalPos) {
        const bool compact =
            config_.deletion_mode == DeletionMode::DeleteAndCompact;
        if (defer_cal) {
            cal_holes_.push_back(result.cal_pos);  // reserved per batch
        } else if (const auto moved = cal_.erase(result.cal_pos, compact)) {
            // CAL compaction relocated another edge's copy; point its owning
            // edge-cell at the new CAL position.
            eba_.set_cal_pos(moved->owner, moved->new_pos);
        }
    }
    release_if_empty(dense);
    if (txn_ == TxnState::Applying) {
        journal_.push_back(UndoEntry{UndoEntry::Kind::Reinsert, raw_src, dst,
                                     result.weight});
    }
    return true;
}

void GraphTinker::sort_batch_by_source(std::span<const Edge> batch) {
    const std::size_t n = batch.size();
    VertexId max_src = 0;
    for (std::size_t i = 0; i < n; ++i) {
        max_src = std::max(max_src, batch[i].src);
    }
    // Fast path: one stable counting sort over the source ids, scattering
    // the edges straight into ingest_sorted_ — no key array, no second
    // radix pass, no separate gather. Applies whenever the histogram stays
    // small relative to the batch (its clear/prefix cost is ~4 histogram
    // entries per edge) and within a fixed memory cap.
    const std::size_t span = static_cast<std::size_t>(max_src) + 1;
    if (n >= 2048 && span <= 4 * n && span <= (1U << 20)) {
        ingest_hist_.assign(span + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++ingest_hist_[batch[i].src + 1];
        }
        for (std::size_t s = 1; s <= span; ++s) {
            ingest_hist_[s] += ingest_hist_[s - 1];
        }
        ingest_sorted_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            ingest_sorted_[ingest_hist_[batch[i].src]++] = batch[i];
        }
        return;
    }
    ingest_keys_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ingest_keys_[i] =
            (static_cast<std::uint64_t>(batch[i].src) << 32) | i;
    }
    if (n < 2048) {
        // Full-key comparison sorts by (src, index) — exactly the stable
        // source grouping the runs need.
        std::sort(ingest_keys_.begin(), ingest_keys_.end());
        materialize_sorted(batch);
        return;
    }
    // LSD radix over the source digits only; ties keep their batch order,
    // which full-key passes would also guarantee but at twice the cost.
    // 11-bit digits keep the 2,048-bucket histogram in L1 and its clear and
    // prefix scan small beside the batch; the pass count follows the widest
    // source.
    constexpr std::uint32_t kRadixBits = 11;
    constexpr std::uint32_t kBuckets = 1U << kRadixBits;
    ingest_tmp_.resize(n);
    std::uint64_t* from = ingest_keys_.data();
    std::uint64_t* to = ingest_tmp_.data();
    const auto passes = static_cast<std::uint32_t>(
        (std::bit_width(max_src) + kRadixBits - 1) / kRadixBits);
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
        const std::uint32_t shift = 32 + pass * kRadixBits;
        ingest_hist_.assign(kBuckets, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++ingest_hist_[(from[i] >> shift) & (kBuckets - 1)];
        }
        std::uint32_t run = 0;
        for (std::uint32_t b = 0; b < kBuckets; ++b) {
            const std::uint32_t count = ingest_hist_[b];
            ingest_hist_[b] = run;
            run += count;
        }
        for (std::size_t i = 0; i < n; ++i) {
            to[ingest_hist_[(from[i] >> shift) & (kBuckets - 1)]++] = from[i];
        }
        std::swap(from, to);
    }
    if (from != ingest_keys_.data()) {
        std::swap(ingest_keys_, ingest_tmp_);
    }
    materialize_sorted(batch);
}

void GraphTinker::materialize_sorted(std::span<const Edge> batch) {
    const std::size_t n = batch.size();
    ingest_sorted_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ingest_sorted_[i] =
            batch[static_cast<std::uint32_t>(ingest_keys_[i])];
    }
}

std::span<const GraphTinker::SourceRun> GraphTinker::resolve_runs(
    std::size_t n, bool inserts) {
    ingest_runs_.clear();
    // SGH lookahead: the source this many positions ahead has its hash
    // bucket warmed while the current run resolves. Short runs (the worst
    // case for this loop — one hash miss per edge) become memory-parallel.
    constexpr std::size_t kResolveLookahead = 16;
    for (std::size_t i = 0; i < n;) {
        if (config_.enable_sgh && i + kResolveLookahead < n) {
            sgh_.prefetch(ingest_sorted_[i + kResolveLookahead].src);
        }
        const VertexId src = ingest_sorted_[i].src;
        std::size_t end = i + 1;
        while (end < n && ingest_sorted_[end].src == src) {
            ++end;
        }
        if (inserts) {
            note_raw(src);
        }
        if (const auto dense = dense_of(src)) {
            ingest_runs_.push_back(SourceRun{
                src, *dense, props_[*dense].top, static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(end)});
        } else if (inserts) {
            // An unmapped source is mapped by the apply loop, right before
            // its first edge lands.
            ingest_runs_.push_back(SourceRun{
                src, kInvalidVertex, EdgeblockArray::kNoBlock,
                static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(end)});
        }
        // Unknown sources drop out of a delete batch here: every delete
        // under them is a no-op, so their run never reaches the apply loop.
        i = end;
    }
    return ingest_runs_;
}

void GraphTinker::prefetch_ahead(std::span<const SourceRun> runs,
                                 std::size_t& cursor, std::size_t pos,
                                 bool deep) const {
    while (cursor < runs.size() && pos >= runs[cursor].end) {
        ++cursor;
    }
    if (cursor >= runs.size() || pos < runs[cursor].begin) {
        return;
    }
    const SourceRun& run = runs[cursor];
    if (deep) {
        eba_.prefetch_probe_child(run.top, ingest_sorted_[pos].dst);
        return;
    }
    eba_.prefetch_probe(run.top, ingest_sorted_[pos].dst);
    // The run's record (its top handle and degree) is another random line;
    // a source the insert loop has yet to map has no record to warm.
    if (pos == run.begin && run.dense != kInvalidVertex) {
        simd::prefetch_write(&props_[run.dense]);
    }
}

namespace {
/// Records a batch's wall time into a latency histogram (microseconds) on
/// scope exit. The clock is read only when recording is enabled, so a
/// disabled run pays one predictable branch per batch.
class BatchLatencyScope {
public:
    explicit BatchLatencyScope(obs::Histogram* hist) noexcept : hist_(hist) {
        if (obs::kEnabled && obs::recording()) {
            timer_.emplace();
        }
    }
    ~BatchLatencyScope() {
        if (timer_) {
            hist_->record(
                static_cast<std::uint64_t>(timer_->seconds() * 1e6));
        }
    }
    BatchLatencyScope(const BatchLatencyScope&) = delete;
    BatchLatencyScope& operator=(const BatchLatencyScope&) = delete;

private:
    obs::Histogram* hist_;
    std::optional<Timer> timer_;  // engaged only when recording
};
}  // namespace

Status GraphTinker::validate_batch(std::span<const Edge> batch) {
    // Staged validation: the whole batch is screened before anything
    // mutates, so a rejected batch leaves the store byte-identical. The
    // sort keys and source-run offsets are 32-bit, so a longer batch is
    // refused on its size alone, before any edge is read.
    if (batch.size() > std::numeric_limits<std::uint32_t>::max()) {
        return Status{StatusCode::InvalidArgument,
                      "batch holds more than 2^32 - 1 edges",
                      std::numeric_limits<std::uint32_t>::max()};
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].src == kInvalidVertex || batch[i].dst == kInvalidVertex) {
            return Status{StatusCode::InvalidArgument,
                          "batch edge carries the invalid-vertex sentinel",
                          i};
        }
    }
    return Status::success();
}

bool GraphTinker::rollback_journal() noexcept {
    // Newest-first replay restores the pre-batch store: an edge that was
    // created and then re-weighted inside the same batch first gets its
    // weight step undone, then the creation.
    txn_ = TxnState::RollingBack;
    bool complete = true;
    for (std::size_t i = journal_.size(); i-- > 0;) {
        const UndoEntry& u = journal_[i];
        try {
            switch (u.kind) {
                case UndoEntry::Kind::EraseInsert: {
                    if (const auto dense = dense_of(u.src)) {
                        delete_resolved(*dense, u.src, u.dst);
                    }
                    break;
                }
                case UndoEntry::Kind::RestoreWeight:
                case UndoEntry::Kind::Reinsert:
                    // Re-entering the insert path re-creates the edge (or
                    // overwrites the weight back) with its pre-batch value.
                    // Either return value is a correct rollback outcome.
                    (void)insert_edge(u.src, u.dst, u.prev);
                    break;
            }
        } catch (...) {
            // A rollback step can only throw on genuine allocation failure
            // (fail points are single-shot and already fired). Keep
            // unwinding the rest; the caller reports the store degraded.
            complete = false;
        }
    }
    journal_.clear();
    txn_ = TxnState::Idle;
    return complete;
}

template <typename ApplyFn>
Status GraphTinker::run_transaction(std::span<const Edge> batch, bool deletes,
                                    ApplyFn&& apply) {
    batches_ingested_->inc();
    updates_applied_->add(batch.size());
    const BatchLatencyScope lat{deletes ? delete_batch_us_ : ingest_batch_us_};
    if (const Status st = validate_batch(batch); !st.ok()) {
        return st;
    }
    if (batch.size() <= 1 && log_ == nullptr) {
        return apply_single(batch, deletes);
    }
    // A batch that does not land leaves num_vertices() where it was.
    const VertexId raw_bound = raw_bound_;
    // Pre-flight: size the scratch the apply path pushes to without
    // throwing. It runs before the log stages the batch, so a failed
    // allocation leaves both the store and the log untouched.
    try {
        GT_FAILPOINT("txn.preflight");
        journal_.clear();
        journal_.reserve(batch.size());
        if (deletes && config_.enable_cal) {
            // One CAL hole per erase and at most one relocation per hole.
            cal_holes_.reserve(batch.size());
            if (cal_moves_.size() < batch.size()) {
                cal_moves_.resize(batch.size());
            }
        }
    } catch (const fail::InjectedFault& f) {
        return Status{StatusCode::FaultInjected,
                      "injected fault at site '" + f.site() +
                          "' before the batch",
                      0};
    } catch (const std::bad_alloc&) {
        return Status{StatusCode::ResourceExhausted,
                      "allocation failed before the batch", 0};
    }
    // Stage-before-apply: the durability frame holds the batch before the
    // first in-memory mutation; it is committed only after the apply fully
    // succeeded. A crash anywhere in between leaves an uncommitted frame
    // recovery discards — equivalent to the rollback a clean failure takes.
    if (log_ != nullptr) {
        const bool staged = log_->begin_batch(batch.size()) &&
                            (deletes ? log_->stage_deletes(batch)
                                     : log_->stage_inserts(batch));
        if (!staged) {
            log_->abort_batch();
            return Status{StatusCode::IoError,
                          "update log could not stage the batch"};
        }
    }
    txn_ = TxnState::Applying;
    // gt-txn: first-mutation
    Status st = Status::success();
    try {
        apply();
    } catch (const fail::InjectedFault& f) {
        st = Status{StatusCode::FaultInjected,
                    "injected fault at site '" + f.site() + "' mid-batch",
                    journal_.size()};
    } catch (const std::bad_alloc&) {
        st = Status{StatusCode::ResourceExhausted,
                    "allocation failed mid-batch", journal_.size()};
    }
    txn_ = TxnState::Idle;
    // gt-txn: commit
    if (st.ok() && log_ != nullptr && !log_->commit_batch()) {
        // Applied in memory but not durable: roll memory back so the store
        // never diverges from what a post-crash replay would rebuild.
        st = Status{StatusCode::IoError,
                    "update log commit failed; batch rolled back"};
    } else if (!st.ok() && log_ != nullptr) {
        log_->abort_batch();
    }
    if (!st.ok()) {
        if (!rollback_journal()) {
            st.message += "; rollback incomplete — store degraded";
        }
        raw_bound_ = raw_bound;
    }
    journal_.clear();
    if (st.ok()) {
        mutation_epoch_.fetch_add(1, std::memory_order_release);
    }
    return st;
}

Status GraphTinker::apply_single(std::span<const Edge> batch, bool deletes) {
    if (batch.empty()) {
        return Status::success();
    }
    const Edge& e = batch.front();
    try {
        if (deletes) {
            (void)delete_edge(e.src, e.dst);
        } else {
            (void)insert_edge(e.src, e.dst, e.weight);
        }
    } catch (const fail::InjectedFault& f) {
        return Status{StatusCode::FaultInjected,
                      "injected fault at site '" + f.site() + "' mid-batch",
                      0};
    } catch (const std::bad_alloc&) {
        return Status{StatusCode::ResourceExhausted,
                      "allocation failed mid-batch", 0};
    }
    return Status::success();
}

Status GraphTinker::insert_batch(std::span<const Edge> batch) {
    return run_transaction(batch, /*deletes=*/false, [&] {
        sort_batch_by_source(batch);
        // Every mapped source resolves before any edge applies, so the
        // lookahead prefetch below reads tops straight out of the run table;
        // an unmapped source's run carries no top (it has none to warm).
        const std::span<const SourceRun> runs =
            resolve_runs(batch.size(), /*inserts=*/true);
        // One stats flush for the whole batch instead of 2–4 atomic RMWs
        // per probe; readers on other threads see the counters a batch
        // late, which relaxed counters already permit.
        const EdgeblockArray::StatsBatchScope stats_scope{eba_};
        std::size_t pf_cursor = 0;
        std::size_t pf_child_cursor = 0;
        for (const SourceRun& run : runs) {
            // Mapping a source at its first edge means a failed batch only
            // ever has one mapped source without an edge to release: this
            // run's, in the catch below.
            const VertexId dense = run.dense != kInvalidVertex
                                       ? run.dense
                                       : map_source(run.src);
            // Constant-distance lookahead: while edge i resolves, the
            // subblock edge i+D will probe is already in flight, so its
            // DRAM miss overlaps useful work instead of serializing behind
            // it.
            std::uint32_t created = 0;
            VertexId max_dst = 0;
            const auto drain = [&](CoarseAdjacencyList::Appender* app_ptr) {
                for (std::size_t i = run.begin; i < run.end; ++i) {
                    prefetch_ahead(runs, pf_cursor, i + kPrefetchDistance,
                                   /*deep=*/false);
                    prefetch_ahead(runs, pf_child_cursor,
                                   i + kPrefetchChildDistance, /*deep=*/true);
                    const Edge& e = ingest_sorted_[i];
                    // Adjacent same-destination updates: only the last one
                    // counts (exactly what applying them in order would
                    // leave behind), so the earlier ones skip their probe
                    // walks entirely.
                    if (i + 1 < run.end &&
                        ingest_sorted_[i + 1].dst == e.dst) {
                        continue;
                    }
                    max_dst = std::max(max_dst, e.dst);
                    created += insert_resolved(dense, run.src, e.dst,
                                               e.weight, app_ptr)
                                   ? 1U
                                   : 0U;
                }
            };
            // Per-run accounting: every edge of the run shares dense/raw
            // ids, so the counters and the raw-id bound update once, not
            // per edge. A mid-run failure settles the partial run first —
            // the journaled edges of this run ARE applied and the rollback
            // deletes them through the accounted path, so the counters must
            // cover them before the unwind reaches the rollback.
            try {
                if (config_.enable_cal) {
                    CoarseAdjacencyList::Appender app = cal_.appender(dense);
                    drain(&app);
                } else {
                    drain(nullptr);
                }
            } catch (...) {
                note_raw(max_dst);
                props_[dense].degree += created;
                num_edges_ += created;
                release_if_empty(dense);
                throw;
            }
            note_raw(max_dst);
            props_[dense].degree += created;
            num_edges_ += created;
        }
    });
}

Status GraphTinker::delete_batch(std::span<const Edge> batch) {
    return run_transaction(batch, /*deletes=*/true, [&] {
        sort_batch_by_source(batch);
        const std::span<const SourceRun> runs =
            resolve_runs(batch.size(), /*inserts=*/false);
        const EdgeblockArray::StatsBatchScope stats_scope{eba_};
        // Two passes: the EBA erases below only collect CAL holes, and the
        // CAL pass erases them all at once when this scope exits — a throw
        // included, so rollback_journal re-inserts over a dense CAL. The
        // writer's exclusive lock covers the gap between the passes.
        struct CalPass {
            GraphTinker* g;
            ~CalPass() { g->flush_cal_holes(); }
        } const cal_pass{this};
        std::size_t pf_cursor = 0;
        std::size_t pf_child_cursor = 0;
        for (const SourceRun& run : runs) {
            for (std::size_t i = run.begin; i < run.end; ++i) {
                prefetch_ahead(runs, pf_cursor, i + kPrefetchDistance,
                               /*deep=*/false);
                prefetch_ahead(runs, pf_child_cursor,
                               i + kPrefetchChildDistance, /*deep=*/true);
                const Edge& e = ingest_sorted_[i];
                // Adjacent same-destination deletes: the first one removes
                // the edge and every later one is a guaranteed no-op (erase
                // of an absent / already-tombstoned key never touches the
                // counters), so skip the earlier duplicates' probe walks —
                // the insert path's adjacent-duplicate skip, mirrored.
                if (i + 1 < run.end && ingest_sorted_[i + 1].dst == e.dst) {
                    continue;
                }
                delete_resolved(run.dense, run.src, e.dst,
                                /*defer_cal=*/true);
            }
        }
    });
}

void GraphTinker::flush_cal_holes() noexcept {
    if (cal_holes_.empty()) {
        return;
    }
    const std::size_t moved = cal_.erase_batch(
        cal_holes_, config_.deletion_mode == DeletionMode::DeleteAndCompact,
        cal_moves_);
    eba_.set_cal_positions(std::span(cal_moves_).first(moved));
    cal_holes_.clear();
}

std::optional<Weight> GraphTinker::find_edge(VertexId src,
                                             VertexId dst) const {
    const auto dense = dense_of(src);
    if (!dense) {
        return std::nullopt;
    }
    return eba_.find(props_[*dense].top, dst);
}

std::size_t GraphTinker::num_nonempty_vertices() const noexcept {
    std::size_t n = 0;
    for (VertexId dense = 0; dense < props_.size(); ++dense) {
        n += props_[dense].top != EdgeblockArray::kNoBlock ? 1 : 0;
    }
    return n;
}

std::uint32_t GraphTinker::degree(VertexId raw_src) const {
    const auto dense = dense_of(raw_src);
    if (!dense || *dense >= props_.size()) {
        return 0;
    }
    return props_[*dense].degree;
}

GraphTinker::MemoryFootprint GraphTinker::memory_footprint() const {
    MemoryFootprint out;
    // A main-region record's top handle counts with the EdgeblockArray and
    // its degree as the vertex property, so each mem.* gauge keeps naming
    // one component's bytes.
    constexpr std::size_t kTopBytes = sizeof(VertexProperty::top);
    out.edgeblock_bytes = eba_.memory_bytes() + props_.size() * kTopBytes;
    out.edgeblock_capacity_bytes =
        eba_.memory_capacity_bytes() + props_.capacity() * kTopBytes;
    if (config_.enable_cal) {
        out.cal_bytes = cal_.memory_bytes();
        out.cal_capacity_bytes = cal_.memory_capacity_bytes();
    }
    if (config_.enable_sgh) {
        out.sgh_bytes = sgh_.memory_bytes();
    }
    out.props_bytes = props_.size() * sizeof(VertexProperty::degree);
    return out;
}

obs::Snapshot GraphTinker::telemetry() const {
    // Structural census gauges are refreshed at snapshot time — they are
    // levels, not events, so polling beats hot-path bookkeeping.
    obs::Registry& r = *obs_;
    r.gauge("gt.num_edges").set(static_cast<double>(num_edges_));
    r.gauge("gt.num_vertices").set(static_cast<double>(raw_bound_));
    r.gauge("gt.nonempty_vertices")
        .set(static_cast<double>(num_nonempty_vertices()));
    r.gauge("eba.blocks_in_use")
        .set(static_cast<double>(eba_.blocks_in_use()));
    r.gauge("eba.narrow_tops")
        .set(static_cast<double>(eba_.blocks_in_use(BlockClass::Narrow)));
    r.gauge("eba.blocks_allocated")
        .set(static_cast<double>(eba_.blocks_allocated()));
    r.gauge("eba.tombstones")
        .set(static_cast<double>(eba_.tombstones_in_arena()));
    if (config_.enable_cal) {
        r.gauge("cal.blocks_in_use")
            .set(static_cast<double>(cal_.blocks_in_use()));
        r.gauge("cal.live_edges").set(static_cast<double>(cal_.live_edges()));
        r.gauge("cal.scanned_slots")
            .set(static_cast<double>(cal_.scanned_slots()));
    }
    if (config_.enable_sgh) {
        r.gauge("sgh.free_ids").set(static_cast<double>(sgh_.free_ids()));
    }
    const MemoryFootprint mem = memory_footprint();
    r.gauge("mem.edgeblock_bytes")
        .set(static_cast<double>(mem.edgeblock_bytes));
    r.gauge("mem.cal_bytes").set(static_cast<double>(mem.cal_bytes));
    r.gauge("mem.sgh_bytes").set(static_cast<double>(mem.sgh_bytes));
    r.gauge("mem.props_bytes").set(static_cast<double>(mem.props_bytes));
    r.gauge("mem.total_bytes").set(static_cast<double>(mem.total()));
    return r.snapshot();
}

// audit() is defined in core/audit.cpp alongside the structural auditor it
// delegates to.

std::uint32_t GraphTinker::tree_depth(VertexId src) const {
    const auto dense = dense_of(src);
    if (!dense) {
        return 0;
    }
    return eba_.subtree_depth(props_[*dense].top);
}

}  // namespace gt::core

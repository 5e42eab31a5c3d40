#include "recover/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/graphtinker.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"
#include "util/file_io.hpp"

namespace gt::recover {

namespace {

constexpr std::size_t kRecordHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) + 1;
constexpr std::size_t kFileHeaderBytes = sizeof(std::uint32_t) * 2;
/// First slice of a record payload to read. The buffer grows past it
/// (doubling) only as bytes arrive, so a corrupt length field ends in a
/// short read instead of a length-sized allocation first.
constexpr std::size_t kPayloadChunkBytes = 64 * 1024;

/// crc32c over (len, seq, type, payload) — everything after the crc field.
std::uint32_t record_crc(std::uint32_t len, std::uint64_t seq,
                         std::uint8_t type, const void* payload) {
    std::uint32_t crc = 0xFFFFFFFFU;
    crc = util::crc32c_extend(crc, &len, sizeof(len));
    crc = util::crc32c_extend(crc, &seq, sizeof(seq));
    crc = util::crc32c_extend(crc, &type, sizeof(type));
    crc = util::crc32c_extend(crc, payload, len);
    return crc ^ 0xFFFFFFFFU;
}

bool valid_type(std::uint8_t t) {
    return t >= static_cast<std::uint8_t>(WalRecordType::BatchBegin) &&
           t <= static_cast<std::uint8_t>(WalRecordType::SoloDelete);
}

struct RecordHeader {
    std::uint32_t crc = 0;
    std::uint32_t len = 0;
    std::uint64_t seq = 0;
    std::uint8_t type = 0;
};

/// Reads and decodes the record header at `offset`.
util::ReadOutcome read_header(int fd, std::uint64_t offset, RecordHeader& h) {
    unsigned char rh[kRecordHeaderBytes];
    const util::ReadOutcome got =
        util::pread_exact(fd, rh, sizeof(rh), offset);
    if (got == util::ReadOutcome::Full) {
        std::memcpy(&h.crc, rh, sizeof(h.crc));
        std::memcpy(&h.len, rh + 4, sizeof(h.len));
        std::memcpy(&h.seq, rh + 8, sizeof(h.seq));
        std::memcpy(&h.type, rh + 16, sizeof(h.type));
    }
    return got;
}

/// Opens `path` read-only and checks its file header. Returns the fd, or
/// -1 with `why` set: IoError, WalTruncated (EOF inside the header),
/// WalBadMagic or WalBadVersion.
int open_wal(const std::string& path, Status& why) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        why = Status{StatusCode::IoError,
                     "open('" + path + "') failed: " + std::strerror(errno)};
        return -1;
    }
    std::uint32_t header[2] = {};  // magic | version
    switch (util::pread_exact(fd, header, kFileHeaderBytes, 0)) {
        case util::ReadOutcome::Full:
            if (header[0] != kWalMagic) {
                why = Status{StatusCode::WalBadMagic, "not a GraphTinker WAL",
                             header[0]};
            } else if (header[1] != kWalVersion) {
                why = Status{StatusCode::WalBadVersion,
                             "unsupported WAL version", header[1]};
            } else {
                return fd;
            }
            break;
        case util::ReadOutcome::Error:
            why = Status{StatusCode::IoError,
                         "read('" + path + "') failed: " +
                             std::strerror(errno)};
            break;
        case util::ReadOutcome::Eof:
        case util::ReadOutcome::Short:
            why = Status{StatusCode::WalTruncated,
                         "EOF inside the WAL file header"};
            break;
    }
    ::close(fd);
    return -1;
}

/// What one read at a WAL offset found.
enum class RecordRead : std::uint8_t {
    Record,      ///< a valid record
    End,         ///< clean EOF on a record boundary
    Incomplete,  ///< EOF inside a record: torn, or still being appended
    Corrupt,     ///< complete bytes that fail validation
    IoError,     ///< the read itself failed
};

/// The one record parser behind scan_wal and WalTailer. Reads the record at
/// `offset`, bounds its header, checks its crc and that its seq follows
/// `prev_seq` (0 = no predecessor). On Record it fills `rec` and advances
/// `offset` and `prev_seq` past it; otherwise it leaves them and `why` says
/// what stopped it (WalTruncated for Incomplete).
RecordRead read_record(int fd, std::uint64_t& offset, std::uint64_t& prev_seq,
                       WalRecord& rec, Status& why) {
    const auto stopped = [&](util::ReadOutcome got, const char* where) {
        if (got == util::ReadOutcome::Error) {
            why = Status{StatusCode::IoError,
                         "WAL read failed at offset " +
                             std::to_string(offset) + ": " +
                             std::strerror(errno)};
            return RecordRead::IoError;
        }
        why = Status{StatusCode::WalTruncated,
                     std::string{"EOF inside a record "} + where, offset};
        return RecordRead::Incomplete;
    };
    RecordHeader h;
    const util::ReadOutcome got = read_header(fd, offset, h);
    if (got == util::ReadOutcome::Eof) {
        return RecordRead::End;
    }
    if (got != util::ReadOutcome::Full) {
        return stopped(got, "header");
    }
    // From here on the bytes are complete, so a failed check is corruption.
    if (h.len > kWalMaxRecordLen || !valid_type(h.type)) {
        why = Status{StatusCode::WalBadRecord, "record header out of bounds",
                     offset};
        return RecordRead::Corrupt;
    }
    rec.payload.clear();
    while (rec.payload.size() < h.len) {
        const std::size_t have = rec.payload.size();
        const std::size_t want = std::min<std::size_t>(
            h.len, std::max(2 * have, kPayloadChunkBytes));
        rec.payload.resize(want);
        const util::ReadOutcome body =
            util::pread_exact(fd, rec.payload.data() + have, want - have,
                              offset + kRecordHeaderBytes + have);
        if (body != util::ReadOutcome::Full) {
            return stopped(body, "payload");
        }
    }
    if (h.crc != record_crc(h.len, h.seq, h.type, rec.payload.data())) {
        why = Status{StatusCode::WalChecksum, "record checksum mismatch",
                     offset};
        return RecordRead::Corrupt;
    }
    if (prev_seq != 0 && h.seq != prev_seq + 1) {
        why = Status{StatusCode::WalBadSequence,
                     "sequence gap in the record stream", h.seq};
        return RecordRead::Corrupt;
    }
    rec.seq = h.seq;
    rec.type = static_cast<WalRecordType>(h.type);
    rec.offset = offset;
    prev_seq = h.seq;
    offset += kRecordHeaderBytes + h.len;
    return RecordRead::Record;
}

}  // namespace

// ---------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(obs::Registry* registry) : registry_(registry) {
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    obs::Registry& r = *registry_;
    records_m_ = &r.counter("wal.records_appended");
    commits_m_ = &r.counter("wal.batches_committed");
    aborts_m_ = &r.counter("wal.batches_aborted");
    bytes_m_ = &r.counter("wal.bytes_written");
    fsyncs_m_ = &r.counter("wal.fsyncs");
    commit_bytes_m_ = &r.histogram("wal.commit_bytes");
}

WalWriter::~WalWriter() { close(); }

void WalWriter::latch(Status st) noexcept {
    if (status_.ok()) {
        status_ = std::move(st);
    }
}

Status WalWriter::open(const std::string& path, DurabilityMode mode,
                       std::uint64_t next_seq_hint) {
    close();
    status_ = Status::success();
    mode_ = mode;
    next_seq_ = next_seq_hint == 0 ? 1 : next_seq_hint;
    if (mode_ == DurabilityMode::Off) {
        // No file at all: commits are accounted (sequence numbers advance so
        // checkpoints stay coherent) but nothing is persisted.
        return Status::success();
    }

    // Scan whatever is already there: resume the sequence after the last
    // valid record and cut off any torn tail so fresh appends land on a
    // clean boundary. Existence is checked with stat(), not inferred from
    // the scan's error code — a mid-scan read error must refuse the open,
    // not masquerade as "no file yet" and stamp a header into the middle
    // of an existing log.
    struct stat sb{};
    const bool exists = ::stat(path.c_str(), &sb) == 0;
    ReplayStats scan;
    if (exists) {
        const Status scanned = scan_wal(path, scan, [](const WalRecord&) {});
        if (!scanned.ok()) {
            return scanned;  // foreign file, or the scan itself failed
        }
        if (scan.torn_tail) {
            if (const Status st = truncate_wal_tail(path, scan.valid_bytes);
                !st.ok()) {
                return st;
            }
        }
        // The hint is a lower bound (the snapshot's covered seq + 1): it is
        // never lowered to the file's resume point, or an on-disk log that
        // lags the checkpoint chain (e.g. a DurabilityMode::Off run
        // advanced seqs, checkpointed, then the mode was switched back)
        // would pull new commits down to sequence numbers replay silently
        // skips as already covered. When the hint is *ahead* of the file,
        // every on-disk record carries a covered seq — and appending at the
        // hint would leave a sequence gap scan_wal rejects as torn — so the
        // log resets to just its header and restarts gap-free at the hint.
        if (scan.last_seq != 0) {
            if (next_seq_ > scan.last_seq + 1) {
                if (const Status st =
                        truncate_wal_tail(path, kFileHeaderBytes);
                    !st.ok()) {
                    return st;
                }
                scan.valid_bytes = kFileHeaderBytes;
            } else {
                next_seq_ = scan.last_seq + 1;
            }
        }
    }

    const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        return Status{StatusCode::IoError,
                      "open('" + path + "') failed: " + std::strerror(errno)};
    }
    if (!exists || scan.valid_bytes < kFileHeaderBytes) {
        const std::uint32_t header[] = {kWalMagic, kWalVersion};
        if (!write_and_sync({reinterpret_cast<const unsigned char*>(header),
                             sizeof(header)},
                            /*fsync=*/false)
                 .ok()) {
            close();
            return Status{StatusCode::IoError, "WAL header write failed"};
        }
    }
    return Status::success();
}

void WalWriter::close() noexcept {
    if (fd_ >= 0) {
        if (mode_ == DurabilityMode::FsyncBatch) {
            ::fsync(fd_);
        }
        ::close(fd_);
        fd_ = -1;
    }
    in_batch_ = false;
    staged_.clear();
    stage_buf_.clear();
}

Status WalWriter::sync() noexcept {
    if (mode_ != DurabilityMode::Off && fd_ < 0) {
        return Status{StatusCode::WalClosed, "sync on a closed WAL"};
    }
    return write_and_sync({}, /*fsync=*/true);
}

bool WalWriter::begin_batch(std::uint64_t op_count) noexcept {
    if (!status_.ok()) {
        return false;
    }
    if (in_batch_) {
        // Frames never nest (the store guards with its txn state); treat it
        // as a latched programming error rather than corrupting the log.
        latch(Status{StatusCode::WalBadRecord, "nested begin_batch"});
        return false;
    }
    try {
        in_batch_ = true;
        batch_ops_ = op_count;
        staged_.clear();
        stage_buf_.clear();
        return true;
    } catch (...) {
        latch(Status{StatusCode::ResourceExhausted, "begin_batch failed"});
        return false;
    }
}

bool WalWriter::stage_runs(WalRecordType type,
                           std::span<const Edge> edges) noexcept {
    if (!status_.ok() || !in_batch_) {
        return false;
    }
    try {
        GT_FAILPOINT("wal.stage");
        // Split oversized spans into bounded runs: a single run whose
        // payload tops kWalMaxRecordLen (or whose count wraps u32) would be
        // rejected by scan_wal as corrupt, and recovery would truncate that
        // committed batch *and every later frame* as a torn tail.
        do {
            const std::size_t n = std::min<std::size_t>(
                edges.size(), kWalMaxEdgesPerRun);
            staged_.push_back(
                StagedRun{type, static_cast<std::uint32_t>(n)});
            stage_buf_.insert(stage_buf_.end(), edges.begin(),
                              edges.begin() + static_cast<std::ptrdiff_t>(n));
            edges = edges.subspan(n);
        } while (!edges.empty());
        return true;
    } catch (...) {
        // Staging happens entirely in memory, before any file I/O — the
        // caller aborts the frame (dropping any partially staged runs) and
        // the log stays coherent, so this is a transient failure, not a
        // latched one.
        return false;
    }
}

bool WalWriter::stage_inserts(std::span<const Edge> edges) noexcept {
    return stage_runs(WalRecordType::InsertRun, edges);
}

bool WalWriter::stage_deletes(std::span<const Edge> edges) noexcept {
    return stage_runs(WalRecordType::DeleteRun, edges);
}

void WalWriter::encode_record(WalRecordType type, const void* payload,
                              std::size_t len) {
    const auto len32 = static_cast<std::uint32_t>(len);
    const std::uint64_t seq = next_seq_++;
    const auto type8 = static_cast<std::uint8_t>(type);
    const std::uint32_t crc = record_crc(len32, seq, type8, payload);
    const auto append = [this](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        out_buf_.insert(out_buf_.end(), b, b + n);
    };
    append(&crc, sizeof(crc));
    append(&len32, sizeof(len32));
    append(&seq, sizeof(seq));
    append(&type8, sizeof(type8));
    append(payload, len);
    records_m_->inc();
}

Status WalWriter::write_and_sync(std::span<const unsigned char> bytes,
                                 bool fsync) noexcept {
    if (mode_ == DurabilityMode::Off) {
        return Status::success();
    }
    Status st;
    if (fd_ < 0) {
        st = Status{StatusCode::WalClosed, "append to a closed WAL"};
    } else if (!util::write_all(fd_, bytes.data(), bytes.size())) {
        st = Status{StatusCode::IoError,
                    std::string{"WAL write failed: "} + std::strerror(errno)};
    } else {
        bytes_m_->add(bytes.size());
        if (!fsync) {
            return Status::success();
        }
        if (::fsync(fd_) == 0) {
            fsyncs_m_->inc();
            return Status::success();
        }
        st = Status{StatusCode::IoError,
                    std::string{"fsync failed: "} + std::strerror(errno)};
    }
    latch(st);
    return st;
}

bool WalWriter::commit_batch() noexcept {
    if (!status_.ok() || !in_batch_) {
        return false;
    }
    in_batch_ = false;
    try {
        GT_FAILPOINT("wal.commit");
        out_buf_.clear();
        // Single-op frames collapse into one Solo record: a third of the
        // framing bytes and one crc, which is what keeps per-edge durable
        // inserts viable.
        if (batch_ops_ == 1 && staged_.size() == 1 && staged_[0].count == 1) {
            const WalRecordType solo =
                staged_[0].type == WalRecordType::InsertRun
                    ? WalRecordType::SoloInsert
                    : WalRecordType::SoloDelete;
            encode_record(solo, stage_buf_.data(), sizeof(Edge));
        } else {
            encode_record(WalRecordType::BatchBegin, &batch_ops_,
                          sizeof(batch_ops_));
            std::size_t edge_off = 0;
            std::vector<unsigned char> payload;
            for (const StagedRun& run : staged_) {
                payload.clear();
                payload.reserve(sizeof(run.count) +
                                run.count * sizeof(Edge));
                const auto* c =
                    reinterpret_cast<const unsigned char*>(&run.count);
                payload.insert(payload.end(), c, c + sizeof(run.count));
                const auto* e = reinterpret_cast<const unsigned char*>(
                    stage_buf_.data() + edge_off);
                payload.insert(payload.end(), e,
                               e + static_cast<std::size_t>(run.count) *
                                       sizeof(Edge));
                edge_off += run.count;
                encode_record(run.type, payload.data(), payload.size());
            }
            encode_record(WalRecordType::BatchCommit, &batch_ops_,
                          sizeof(batch_ops_));
        }
        if (!write_and_sync(out_buf_, mode_ == DurabilityMode::FsyncBatch)
                 .ok()) {
            return false;
        }
        commits_m_->inc();
        commit_bytes_m_->record_sampled(out_buf_.size());
        staged_.clear();
        stage_buf_.clear();
        return true;
    } catch (const fail::InjectedFault& f) {
        latch(Status{StatusCode::FaultInjected,
                     "injected fault at '" + f.site() + "'"});
        return false;
    } catch (...) {
        latch(Status{StatusCode::ResourceExhausted, "commit_batch failed"});
        return false;
    }
}

void WalWriter::abort_batch() noexcept {
    if (in_batch_) {
        in_batch_ = false;
        staged_.clear();
        stage_buf_.clear();
        aborts_m_->inc();
    }
}

Status WalWriter::append_frame(std::span<const WalRecord> records) noexcept {
    if (!status_.ok()) {
        return status_;
    }
    if (in_batch_) {
        return Status{StatusCode::InvalidArgument,
                      "append_frame during an open local batch"};
    }
    if (records.empty()) {
        return Status::success();
    }
    if (fd_ < 0 || mode_ == DurabilityMode::Off) {
        return Status{StatusCode::WalClosed,
                      "append_frame requires an open, durable WAL"};
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].seq != next_seq_ + i) {
            return Status{StatusCode::WalBadSequence,
                          "append_frame: records do not continue this log's "
                          "sequence (expected " +
                              std::to_string(next_seq_ + i) + ", got " +
                              std::to_string(records[i].seq) + ")"};
        }
        if (records[i].payload.size() > kWalMaxRecordLen) {
            return Status{StatusCode::WalBadRecord,
                          "append_frame: record payload exceeds "
                          "kWalMaxRecordLen"};
        }
    }
    const WalRecordType last = records.back().type;
    if (last != WalRecordType::BatchCommit &&
        last != WalRecordType::SoloInsert &&
        last != WalRecordType::SoloDelete) {
        return Status{StatusCode::WalBadRecord,
                      "append_frame: frame does not end at a commit or solo "
                      "record"};
    }
    try {
        out_buf_.clear();
        for (const WalRecord& rec : records) {
            // Seq equality was pre-validated above, so encode_record's
            // internally assigned next_seq_++ reproduces rec.seq exactly.
            encode_record(rec.type, rec.payload.data(), rec.payload.size());
        }
        if (Status st = write_and_sync(
                out_buf_, mode_ == DurabilityMode::FsyncBatch);
            !st.ok()) {
            return st;
        }
        commits_m_->inc();
        commit_bytes_m_->record_sampled(out_buf_.size());
        return Status::success();
    } catch (...) {
        latch(Status{StatusCode::ResourceExhausted, "append_frame failed"});
        return status_;
    }
}

// ---------------------------------------------------------------------------
// Scan / replay

Status scan_wal(const std::string& path, ReplayStats& stats,
                const std::function<void(const WalRecord&)>& fn) {
    Status why;
    const int fd = open_wal(path, why);
    if (fd < 0) {
        if (why.code != StatusCode::WalTruncated) {
            return why;  // not a WAL at all, or it could not be read
        }
        // Empty (or sub-header) file: treat as a valid empty log with a
        // torn tail of whatever partial bytes exist.
        stats.valid_bytes = 0;
        stats.torn_tail = true;
        stats.tail_status = std::move(why);
        return Status::success();
    }
    struct FdCloser {
        int fd;
        ~FdCloser() { ::close(fd); }
    } closer{fd};

    std::uint64_t offset = kFileHeaderBytes;
    std::uint64_t prev_seq = 0;
    stats.valid_bytes = offset;
    WalRecord rec;
    bool frame_open = false;
    for (;;) {
        switch (read_record(fd, offset, prev_seq, rec, why)) {
            case RecordRead::Record:
                break;
            case RecordRead::End:
                stats.torn_batch = frame_open;
                return Status::success();
            case RecordRead::Incomplete:
            case RecordRead::Corrupt:
                stats.torn_tail = true;
                stats.tail_status = std::move(why);
                return Status::success();
            case RecordRead::IoError:
                // A failing read is NOT a torn tail: reporting it as one
                // would let WalWriter::open truncate away valid committed
                // records.
                return why;
        }
        ++stats.records_scanned;
        stats.last_seq = rec.seq;
        stats.valid_bytes = offset;
        switch (rec.type) {
            case WalRecordType::BatchBegin:
                frame_open = true;  // an older open frame is simply torn
                break;
            case WalRecordType::BatchCommit:
                frame_open = false;
                stats.last_committed_seq = rec.seq;
                break;
            case WalRecordType::SoloInsert:
            case WalRecordType::SoloDelete:
                if (!frame_open) {
                    stats.last_committed_seq = rec.seq;
                }
                break;
            default:
                break;
        }
        fn(rec);
    }
}

namespace {

[[nodiscard]] bool decode_run(const std::vector<unsigned char>& payload,
                              std::vector<Edge>& out) {
    std::uint32_t count = 0;
    if (payload.size() < sizeof(count)) {
        return false;
    }
    std::memcpy(&count, payload.data(), sizeof(count));
    const std::size_t need =
        sizeof(count) + static_cast<std::size_t>(count) * sizeof(Edge);
    if (payload.size() != need) {
        return false;
    }
    out.resize(count);
    std::memcpy(out.data(), payload.data() + sizeof(count),
                static_cast<std::size_t>(count) * sizeof(Edge));
    return true;
}

}  // namespace

Status WalApplier::apply(const WalRecord& rec) {
    if (!status_.ok()) {
        return status_;
    }
    const auto latch = [&](Status st) {
        if (!st.ok() && status_.ok()) {
            status_ = st;
        }
    };
    const auto reset_frame = [&] {
        open_ = false;
        runs_.clear();
    };
    switch (rec.type) {
        case WalRecordType::BatchBegin:
            reset_frame();  // an older open frame is simply torn
            open_ = true;
            break;
        case WalRecordType::InsertRun:
        case WalRecordType::DeleteRun: {
            if (!open_) {
                latch(Status{StatusCode::WalBadRecord,
                             "well-checksummed record violates framing"});
                break;
            }
            Run run;
            run.deletes = rec.type == WalRecordType::DeleteRun;
            if (!decode_run(rec.payload, run.edges)) {
                latch(Status{StatusCode::WalBadRecord,
                             "well-checksummed record violates framing"});
                break;
            }
            runs_.push_back(std::move(run));
            break;
        }
        case WalRecordType::BatchCommit: {
            if (!open_) {
                latch(Status{StatusCode::WalBadRecord,
                             "well-checksummed record violates framing"});
                break;
            }
            // Skip frames the snapshot already covers: the *commit* seq is
            // the frame's durability point.
            if (rec.seq > after_seq_) {
                for (const Run& run : runs_) {
                    if (run.deletes) {
                        latch(graph_.delete_batch(run.edges));
                        if (stats_ != nullptr) {
                            stats_->edges_deleted += run.edges.size();
                        }
                    } else {
                        latch(graph_.insert_batch(run.edges));
                        if (stats_ != nullptr) {
                            stats_->edges_inserted += run.edges.size();
                        }
                    }
                }
                if (stats_ != nullptr) {
                    ++stats_->batches_applied;
                }
                applied_seq_ = rec.seq;
            }
            reset_frame();
            break;
        }
        case WalRecordType::SoloInsert:
        case WalRecordType::SoloDelete: {
            if (open_) {
                // A solo record implicitly tears any open frame.
                reset_frame();
            }
            if (rec.payload.size() != sizeof(Edge)) {
                latch(Status{StatusCode::WalBadRecord,
                             "well-checksummed record violates framing"});
                break;
            }
            if (rec.seq <= after_seq_) {
                break;
            }
            Edge edge{};
            std::memcpy(&edge, rec.payload.data(), sizeof(Edge));
            const std::span<const Edge> solo{&edge, 1};
            if (rec.type == WalRecordType::SoloInsert) {
                latch(graph_.insert_batch(solo));
                if (stats_ != nullptr) {
                    ++stats_->edges_inserted;
                }
            } else {
                latch(graph_.delete_batch(solo));
                if (stats_ != nullptr) {
                    ++stats_->edges_deleted;
                }
            }
            if (stats_ != nullptr) {
                ++stats_->batches_applied;
            }
            applied_seq_ = rec.seq;
            break;
        }
    }
    return status_;
}

Status replay_wal(const std::string& path, core::GraphTinker& graph,
                  std::uint64_t after_seq, ReplayStats& stats) {
    WalApplier applier(graph, after_seq, &stats);
    const Status st = scan_wal(path, stats, [&](const WalRecord& rec) {
        (void)applier.apply(rec);  // first failure latches; later feeds no-op
    });
    if (!st.ok()) {
        return st;
    }
    if (!applier.status().ok()) {
        return applier.status();
    }
    stats.torn_batch = stats.torn_batch || applier.frame_open();
    return Status::success();
}

// ---------------------------------------------------------------------------
// WalTailer

Status WalTailer::open(const std::string& path, std::uint64_t after_seq) {
    close();
    status_ = Status::success();
    skip_seq_ = after_seq;
    Status why;
    fd_ = open_wal(path, why);
    if (fd_ < 0) {
        return why;
    }
    offset_ = kFileHeaderBytes;
    // Peek the first record header for the servable floor; an incomplete
    // header (fresh log, or mid-first-append) leaves it 0 and the owner
    // falls back to the writer's resume seq.
    RecordHeader first;
    if (read_header(fd_, offset_, first) == util::ReadOutcome::Full) {
        first_seq_ = first.seq;
    }
    return Status::success();
}

void WalTailer::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    offset_ = 0;
    prev_seq_ = 0;
    last_seq_ = 0;
    first_seq_ = 0;
}

std::size_t WalTailer::poll(const std::function<void(const WalRecord&)>& fn,
                            std::size_t limit) {
    if (fd_ < 0 || !status_.ok()) {
        return 0;
    }
    std::size_t surfaced = 0;
    WalRecord rec;
    Status why;
    while (limit == 0 || surfaced < limit) {
        const RecordRead got = read_record(fd_, offset_, prev_seq_, rec, why);
        if (got == RecordRead::End || got == RecordRead::Incomplete) {
            break;  // caught up; the rest of a record arrives with its commit
        }
        if (got != RecordRead::Record) {
            // Appends are ordered, so complete bytes are final: this is
            // corruption or a failing read, not a race with the writer.
            status_ = std::move(why);
            break;
        }
        if (rec.seq <= skip_seq_) {
            continue;  // catch-up skip: the follower already holds this
        }
        last_seq_ = rec.seq;
        ++surfaced;
        fn(rec);
    }
    return surfaced;
}

Status truncate_wal_tail(const std::string& path,
                         std::uint64_t valid_bytes) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
        return Status{StatusCode::IoError,
                      "truncate('" + path +
                          "') failed: " + std::strerror(errno)};
    }
    return Status::success();
}

}  // namespace gt::recover

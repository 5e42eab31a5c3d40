// WalWriter / scan_wal / replay_wal behavior tests.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"
#include "recover/wal.hpp"
#include "recover_test_util.hpp"

namespace gt::recover {
namespace {

using test::TempDir;

std::vector<Edge> some_edges(std::size_t n, std::uint64_t seed = 9) {
    return rmat_edges(64, n, seed);
}

TEST(Wal, CommitThenScanRoundTrips) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    WalWriter wal;
    ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());

    const auto batch = some_edges(5);
    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_inserts(batch));
    ASSERT_TRUE(wal.commit_batch());

    const Edge solo{7, 8, 9};
    ASSERT_TRUE(wal.begin_batch(1));
    ASSERT_TRUE(wal.stage_inserts({&solo, 1}));
    ASSERT_TRUE(wal.commit_batch());
    wal.close();

    std::vector<WalRecordType> types;
    std::vector<std::uint64_t> seqs;
    ReplayStats stats;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
        types.push_back(rec.type);
        seqs.push_back(rec.seq);
    }).ok());
    // Multi-op batch = BEGIN/INS/COMMIT; single-op batch collapses to SOLO.
    ASSERT_EQ(types.size(), 4u);
    EXPECT_EQ(types[0], WalRecordType::BatchBegin);
    EXPECT_EQ(types[1], WalRecordType::InsertRun);
    EXPECT_EQ(types[2], WalRecordType::BatchCommit);
    EXPECT_EQ(types[3], WalRecordType::SoloInsert);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(stats.last_committed_seq, 4u);
    EXPECT_FALSE(stats.torn_tail);
    EXPECT_FALSE(stats.torn_batch);
}

TEST(Wal, AbortedFrameLeavesNoTraceOrSeqGap) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    WalWriter wal;
    ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
    const auto batch = some_edges(4);

    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_inserts(batch));
    wal.abort_batch();

    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_deletes(batch));
    ASSERT_TRUE(wal.commit_batch());
    wal.close();

    ReplayStats stats;
    std::vector<WalRecordType> types;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
        types.push_back(rec.type);
    }).ok());
    // The aborted frame wrote nothing; seqs stay contiguous from 1.
    ASSERT_EQ(types.size(), 3u);
    EXPECT_EQ(types[1], WalRecordType::DeleteRun);
    EXPECT_EQ(stats.last_seq, 3u);
    EXPECT_TRUE(stats.tail_status.ok());
}

TEST(Wal, ReopenResumesSequenceAndTruncatesTornTail) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
        const auto batch = some_edges(3);
        ASSERT_TRUE(wal.begin_batch(batch.size()));
        ASSERT_TRUE(wal.stage_inserts(batch));
        ASSERT_TRUE(wal.commit_batch());
        wal.close();
    }
    // Simulate a torn write: garbage appended past the last commit.
    auto bytes = test::read_file_bytes(path);
    const std::size_t clean_size = bytes.size();
    for (int i = 0; i < 11; ++i) {
        bytes.push_back(0xAB);
    }
    test::write_file_bytes(path, bytes);

    {
        ReplayStats stats;
        ASSERT_TRUE(scan_wal(path, stats, [](const WalRecord&) {}).ok());
        EXPECT_TRUE(stats.torn_tail);
        EXPECT_EQ(stats.valid_bytes, clean_size);
    }
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
        EXPECT_EQ(wal.next_seq(), 4u);  // BEGIN/INS/COMMIT consumed 1..3
        const Edge solo{1, 2, 3};
        ASSERT_TRUE(wal.begin_batch(1));
        ASSERT_TRUE(wal.stage_inserts({&solo, 1}));
        ASSERT_TRUE(wal.commit_batch());
        wal.close();
    }
    ReplayStats stats;
    ASSERT_TRUE(scan_wal(path, stats, [](const WalRecord&) {}).ok());
    EXPECT_FALSE(stats.torn_tail);
    EXPECT_EQ(stats.records_scanned, 4u);
    EXPECT_EQ(stats.last_seq, 4u);
}

TEST(Wal, BitFlipStopsScanAtLastValidRecord) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    std::uint64_t second_record_offset = 0;
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
        for (int i = 0; i < 3; ++i) {
            const Edge solo{static_cast<VertexId>(i), 2, 3};
            ASSERT_TRUE(wal.begin_batch(1));
            ASSERT_TRUE(wal.stage_inserts({&solo, 1}));
            ASSERT_TRUE(wal.commit_batch());
        }
        wal.close();
        ReplayStats stats;
        ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
            if (rec.seq == 2) {
                second_record_offset = rec.offset;
            }
        }).ok());
    }
    auto bytes = test::read_file_bytes(path);
    bytes[second_record_offset + 20] ^= 0x10;  // inside record 2's payload
    test::write_file_bytes(path, bytes);

    ReplayStats stats;
    std::uint64_t seen = 0;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord&) {
        ++seen;
    }).ok());
    EXPECT_EQ(seen, 1u);
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_EQ(stats.tail_status.code, StatusCode::WalChecksum);
    EXPECT_EQ(stats.last_committed_seq, 1u);
}

TEST(Wal, RefusesForeignFiles) {
    TempDir dir;
    const std::string path = dir.file("not_a_wal");
    test::write_file_bytes(path, {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!'});
    WalWriter wal;
    EXPECT_EQ(wal.open(path, DurabilityMode::Buffered).code,
              StatusCode::WalBadMagic);

    // Right magic, wrong version.
    std::vector<unsigned char> versioned(8, 0);
    const std::uint32_t magic = kWalMagic;
    const std::uint32_t version = kWalVersion + 7;
    std::memcpy(versioned.data(), &magic, 4);
    std::memcpy(versioned.data() + 4, &version, 4);
    test::write_file_bytes(path, versioned);
    EXPECT_EQ(wal.open(path, DurabilityMode::Buffered).code,
              StatusCode::WalBadVersion);
}

TEST(Wal, OffModePersistsNothingButAdvancesSeqs) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    WalWriter wal;
    ASSERT_TRUE(wal.open(path, DurabilityMode::Off).ok());
    const auto batch = some_edges(4);
    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_inserts(batch));
    ASSERT_TRUE(wal.commit_batch());
    EXPECT_GT(wal.next_seq(), 1u);
    wal.close();
    // No file was ever created.
    ReplayStats stats;
    EXPECT_EQ(scan_wal(path, stats, [](const WalRecord&) {}).code,
              StatusCode::IoError);
}

TEST(Wal, OversizedBatchSplitsIntoBoundedRuns) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    // One edge past the per-run cap: a single run would keep growing with
    // the batch until its payload crossed kWalMaxRecordLen (scan would
    // reject the *committed* record as corrupt and truncate every later
    // frame) or its u32 count wrapped.
    const std::size_t n = static_cast<std::size_t>(kWalMaxEdgesPerRun) + 3;
    std::vector<Edge> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
        batch[i] = Edge{static_cast<VertexId>(i & 0xFFFFFU),
                        static_cast<VertexId>(i >> 20), 1};
    }
    WalWriter wal;
    ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_inserts(batch));
    ASSERT_TRUE(wal.commit_batch());
    wal.close();

    std::vector<WalRecordType> types;
    std::vector<std::uint64_t> counts;
    ReplayStats stats;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
        types.push_back(rec.type);
        if (rec.type == WalRecordType::InsertRun) {
            std::uint32_t c = 0;
            std::memcpy(&c, rec.payload.data(), sizeof(c));
            counts.push_back(c);
            EXPECT_LT(rec.payload.size(), std::size_t{kWalMaxRecordLen});
        }
    }).ok());
    const std::vector<WalRecordType> expected{
        WalRecordType::BatchBegin, WalRecordType::InsertRun,
        WalRecordType::InsertRun, WalRecordType::BatchCommit};
    EXPECT_EQ(types, expected);
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{kWalMaxEdgesPerRun, 3}));
    EXPECT_FALSE(stats.torn_tail);
    EXPECT_EQ(stats.last_committed_seq, 4u);
}

TEST(Wal, OpenNeverLowersSeqBelowHint) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
        const auto batch = some_edges(3);
        ASSERT_TRUE(wal.begin_batch(batch.size()));
        ASSERT_TRUE(wal.stage_inserts(batch));
        ASSERT_TRUE(wal.commit_batch());
        EXPECT_EQ(wal.durable_seq(), 3u);  // BEGIN, RUN, COMMIT
        wal.close();
    }
    // A hint behind the file resumes after the last on-disk record.
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered, 2).ok());
        EXPECT_EQ(wal.next_seq(), 4u);
        wal.close();
    }
    // A hint ahead of the file (a checkpoint covers seqs the log never
    // saw, e.g. after a DurabilityMode::Off interlude) must win: lowering
    // it would assign new commits seqs replay skips as snapshot-covered.
    // The stale (all-covered) records are dropped so the file stays
    // gap-free, and appends land at the hint.
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered, 100).ok());
        EXPECT_EQ(wal.next_seq(), 100u);
        const Edge solo{1, 2, 3};
        ASSERT_TRUE(wal.begin_batch(1));
        ASSERT_TRUE(wal.stage_inserts({&solo, 1}));
        ASSERT_TRUE(wal.commit_batch());
        wal.close();
    }
    std::vector<std::uint64_t> seqs;
    ReplayStats stats;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
        seqs.push_back(rec.seq);
    }).ok());
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{100}));
    EXPECT_FALSE(stats.torn_tail);
    EXPECT_EQ(stats.last_committed_seq, 100u);
}

TEST(Wal, ReplaySkipsFramesCoveredBySnapshotSeq) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    std::uint64_t first_commit_seq = 0;
    {
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
        const std::vector<Edge> first{{1, 2, 10}, {3, 4, 11}};
        ASSERT_TRUE(wal.begin_batch(first.size()));
        ASSERT_TRUE(wal.stage_inserts(first));
        ASSERT_TRUE(wal.commit_batch());
        first_commit_seq = wal.durable_seq();
        const std::vector<Edge> second{{5, 6, 12}, {7, 8, 13}};
        ASSERT_TRUE(wal.begin_batch(second.size()));
        ASSERT_TRUE(wal.stage_inserts(second));
        ASSERT_TRUE(wal.commit_batch());
        wal.close();
    }
    core::GraphTinker g;
    const test::ScopedAudit audit(g, "replay");
    ReplayStats stats;
    ASSERT_TRUE(replay_wal(path, g, first_commit_seq, stats).ok());
    EXPECT_EQ(stats.batches_applied, 1u);
    EXPECT_EQ(g.num_edges(), 2u);
    EXPECT_EQ(g.find_edge(5, 6), std::optional<Weight>(12));
    EXPECT_EQ(g.find_edge(1, 2), std::nullopt);
}

TEST(Wal, ReplayAppliesInsertsAndDeletesInCommitOrder) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    const auto edges = some_edges(200, 21);
    {
        core::GraphTinker g;
        WalWriter wal;
        ASSERT_TRUE(wal.open(path, DurabilityMode::FsyncBatch).ok());
        g.attach_update_log(&wal);
        ASSERT_TRUE(g.insert_batch(edges).ok());
        std::vector<Edge> doomed(edges.begin(), edges.begin() + 50);
        ASSERT_TRUE(g.delete_batch(doomed).ok());
        ASSERT_TRUE(g.insert_edge(9999, 1, 5));
        g.attach_update_log(nullptr);
        wal.close();
    }
    // Twin built only from the log must match a twin built from the ops.
    core::GraphTinker replayed;
    const test::ScopedAudit audit(replayed, "replayed");
    ReplayStats stats;
    ASSERT_TRUE(replay_wal(path, replayed, 0, stats).ok());

    core::GraphTinker expected;
    (void)expected.insert_batch(edges);
    (void)expected.delete_batch({edges.begin(), edges.begin() + 50});
    (void)expected.insert_edge(9999, 1, 5);
    EXPECT_EQ(test::edge_map_of(replayed), test::edge_map_of(expected));
    EXPECT_EQ(stats.batches_applied, 3u);
}

/// write(2) stand-in that reports "wrote nothing" forever, the ENOSPC-ish
/// boundary behavior some filesystems exhibit. Clears errno like a
/// succeeding syscall would, so the test proves write_all latches its own.
ssize_t write_zero(int, const void*, std::size_t) {
    errno = 0;
    return 0;
}

struct ScopedWriteOverride {
    explicit ScopedWriteOverride(testing::WriteFn fn) {
        testing::set_write_override(fn);
    }
    ~ScopedWriteOverride() { testing::set_write_override(nullptr); }
};

TEST(Wal, ZeroLengthWriteFailsInsteadOfSpinning) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    WalWriter wal;
    ASSERT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());

    const auto batch = some_edges(4);
    ASSERT_TRUE(wal.begin_batch(batch.size()));
    ASSERT_TRUE(wal.stage_inserts(batch));
    {
        // Before the fix, write_all treated n == 0 as progress and this
        // commit spun forever; now it must fail fast and latch IoError.
        const ScopedWriteOverride guard(&write_zero);
        EXPECT_FALSE(wal.commit_batch());
    }
    EXPECT_EQ(wal.status().code, StatusCode::IoError);
    // The latched message carries the errno write_all substituted.
    EXPECT_NE(wal.status().message.find("No space"), std::string::npos)
        << wal.status().message;

    // The writer stays poisoned per the latching contract.
    EXPECT_FALSE(wal.begin_batch(1));
}

// ---------------------------------------------------------------------------
// append_frame: the replication follower's verbatim mirror path.

/// Collects every record of `path` (payload bytes included).
std::vector<WalRecord> scan_all(const std::string& path) {
    std::vector<WalRecord> out;
    ReplayStats stats;
    EXPECT_TRUE(
        scan_wal(path, stats, [&](const WalRecord& rec) {
            out.push_back(rec);
        }).ok());
    return out;
}

/// Raw file bytes, for byte-identity assertions.
std::vector<unsigned char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(Wal, AppendFrameMirrorsByteIdentically) {
    TempDir dir;
    const std::string src_path = dir.file("src.gtw");
    WalWriter src;
    ASSERT_TRUE(src.open(src_path, DurabilityMode::Buffered).ok());
    // One multi-run frame and one solo, so both shapes are mirrored.
    const auto batch = some_edges(5);
    ASSERT_TRUE(src.begin_batch(batch.size()));
    ASSERT_TRUE(src.stage_inserts(batch));
    ASSERT_TRUE(src.commit_batch());
    const Edge solo{7, 8, 9};
    ASSERT_TRUE(src.begin_batch(1));
    ASSERT_TRUE(src.stage_deletes({&solo, 1}));
    ASSERT_TRUE(src.commit_batch());
    src.close();

    const std::vector<WalRecord> records = scan_all(src_path);
    ASSERT_GE(records.size(), 3U);  // begin | run | commit | solo-delete

    // Feed the frames (commit-bounded) into a second log via append_frame.
    const std::string dst_path = dir.file("dst.gtw");
    WalWriter dst;
    ASSERT_TRUE(dst.open(dst_path, DurabilityMode::Buffered).ok());
    std::size_t frame_start = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const WalRecordType t = records[i].type;
        if (t == WalRecordType::BatchCommit ||
            t == WalRecordType::SoloInsert ||
            t == WalRecordType::SoloDelete) {
            const std::span<const WalRecord> frame{
                records.data() + frame_start, i + 1 - frame_start};
            ASSERT_TRUE(dst.append_frame(frame).ok());
            frame_start = i + 1;
        }
    }
    EXPECT_EQ(dst.durable_seq(), records.back().seq);
    dst.close();
    // Same records, same seqs, same encoder: the mirror is byte-identical.
    EXPECT_EQ(slurp(src_path), slurp(dst_path));
}

TEST(Wal, AppendFrameRejectsSeqGapWithoutLatching) {
    TempDir dir;
    WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         DurabilityMode::Buffered).ok());
    WalRecord rec;
    rec.seq = 5;  // fresh log expects 1
    rec.type = WalRecordType::SoloInsert;
    const Edge e{1, 2, 3};
    const auto* bytes = reinterpret_cast<const unsigned char*>(&e);
    rec.payload.assign(bytes, bytes + sizeof(e));
    const Status st = wal.append_frame({&rec, 1});
    EXPECT_EQ(st.code, StatusCode::WalBadSequence);
    // A gap is the caller's re-subscribe problem, not log corruption: the
    // writer stays healthy and keeps accepting local commits.
    EXPECT_TRUE(wal.status().ok());
    ASSERT_TRUE(wal.begin_batch(1));
    ASSERT_TRUE(wal.stage_inserts({&e, 1}));
    EXPECT_TRUE(wal.commit_batch());
}

TEST(Wal, AppendFrameRejectsIncompleteFrame) {
    TempDir dir;
    WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         DurabilityMode::Buffered).ok());
    const std::uint64_t ops = 2;
    WalRecord begin;
    begin.seq = 1;
    begin.type = WalRecordType::BatchBegin;
    const auto* b = reinterpret_cast<const unsigned char*>(&ops);
    begin.payload.assign(b, b + sizeof(ops));
    // A frame must end at a commit/solo boundary — a dangling BatchBegin
    // would desync durable_seq from the applied position.
    const Status st = wal.append_frame({&begin, 1});
    EXPECT_EQ(st.code, StatusCode::WalBadRecord);
    EXPECT_TRUE(wal.status().ok());
    // Off-mode logs have no mirror path at all.
    WalWriter off;
    ASSERT_TRUE(off.open(dir.file("off.gtw"), DurabilityMode::Off).ok());
    WalRecord solo;
    solo.seq = 1;
    solo.type = WalRecordType::SoloInsert;
    const Edge e{1, 2, 3};
    const auto* eb = reinterpret_cast<const unsigned char*>(&e);
    solo.payload.assign(eb, eb + sizeof(e));
    EXPECT_EQ(off.append_frame({&solo, 1}).code, StatusCode::WalClosed);
}

// ---------------------------------------------------------------------------
// WalTailer: the Subscribe verb's shipping cursor. It must accept exactly
// the records scan_wal accepts, but treat an incomplete tail as "not yet
// written" instead of torn.

/// Writes three frames to `path` — a 3-edge insert batch, a solo insert and
/// a 2-edge delete batch, seqs 1..7 — and returns the file's bytes.
std::vector<unsigned char> three_frame_log(const std::string& path) {
    WalWriter wal;
    EXPECT_TRUE(wal.open(path, DurabilityMode::Buffered).ok());
    const auto batch = some_edges(3);
    EXPECT_TRUE(wal.begin_batch(batch.size()));
    EXPECT_TRUE(wal.stage_inserts(batch));
    EXPECT_TRUE(wal.commit_batch());
    const Edge solo{7, 8, 9};
    EXPECT_TRUE(wal.begin_batch(1));
    EXPECT_TRUE(wal.stage_inserts({&solo, 1}));
    EXPECT_TRUE(wal.commit_batch());
    EXPECT_TRUE(wal.begin_batch(2));
    EXPECT_TRUE(wal.stage_deletes({batch.data(), 2}));
    EXPECT_TRUE(wal.commit_batch());
    wal.close();
    return slurp(path);
}

/// Polls `tailer` until a poll surfaces nothing; returns what surfaced.
std::vector<WalRecord> drain(WalTailer& tailer) {
    std::vector<WalRecord> out;
    while (tailer.poll([&](const WalRecord& rec) {
        out.push_back(rec);
    }) > 0) {
    }
    return out;
}

std::vector<std::uint64_t> seqs_of(const std::vector<WalRecord>& records) {
    std::vector<std::uint64_t> out;
    for (const WalRecord& rec : records) {
        out.push_back(rec.seq);
    }
    return out;
}

TEST(WalTailer, IncompleteRecordParksUntilTheRestIsWritten) {
    TempDir dir;
    const auto full = three_frame_log(dir.file("full.gtw"));
    const std::vector<WalRecord> records = scan_all(dir.file("full.gtw"));
    ASSERT_EQ(records.size(), 7U);
    // Cut the solo insert (seq 4) once inside its header, once inside its
    // payload.
    const std::uint64_t solo_at = records[3].offset;
    for (const std::uint64_t cut : {solo_at + 5, solo_at + 20}) {
        const std::string path = dir.file("cut.gtw");
        test::write_file_bytes(path, {full.begin(), full.begin() + cut});
        WalTailer tailer;
        ASSERT_TRUE(tailer.open(path).ok());
        EXPECT_EQ(seqs_of(drain(tailer)),
                  (std::vector<std::uint64_t>{1, 2, 3}));
        EXPECT_TRUE(tailer.status().ok()) << tailer.status().to_string();
        EXPECT_EQ(tailer.last_seq(), 3U);

        // The writer finishes its append; the parked cursor picks it up.
        {
            std::ofstream out(path, std::ios::binary | std::ios::app);
            out.write(reinterpret_cast<const char*>(full.data() + cut),
                      static_cast<std::streamsize>(full.size() - cut));
        }
        std::vector<WalRecord> rest;
        EXPECT_EQ(tailer.poll([&](const WalRecord& rec) {
            rest.push_back(rec);
        }), 4U);
        EXPECT_EQ(seqs_of(rest), (std::vector<std::uint64_t>{4, 5, 6, 7}));
        ASSERT_FALSE(rest.empty());
        EXPECT_EQ(rest.front().type, WalRecordType::SoloInsert);
        EXPECT_EQ(rest.front().payload, records[3].payload);
        EXPECT_TRUE(tailer.status().ok()) << tailer.status().to_string();
        EXPECT_EQ(tailer.last_seq(), 7U);
    }
}

TEST(WalTailer, BitFlipInCompleteRecordLatchesChecksum) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    auto bytes = three_frame_log(path);
    const std::vector<WalRecord> records = scan_all(path);
    ASSERT_EQ(records.size(), 7U);
    const std::uint64_t flip_at = records[3].offset + 20;  // solo payload
    bytes[flip_at] ^= 0x10;
    test::write_file_bytes(path, bytes);

    WalTailer tailer;
    ASSERT_TRUE(tailer.open(path).ok());
    std::vector<std::uint64_t> seqs;
    EXPECT_EQ(tailer.poll([&](const WalRecord& rec) {
        seqs.push_back(rec.seq);
    }), 3U);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(tailer.status().code, StatusCode::WalChecksum);
    EXPECT_EQ(tailer.status().detail, records[3].offset);

    // Latched: even with the byte repaired, later polls surface nothing.
    bytes[flip_at] ^= 0x10;
    test::write_file_bytes(path, bytes);
    EXPECT_EQ(tailer.poll([](const WalRecord&) {}), 0U);
    EXPECT_EQ(tailer.status().code, StatusCode::WalChecksum);
    EXPECT_EQ(tailer.last_seq(), 3U);
}

TEST(WalTailer, AfterSeqSurfacesOnlyLaterRecords) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    (void)three_frame_log(path);

    WalTailer tailer;
    ASSERT_TRUE(tailer.open(path, 4).ok());
    EXPECT_EQ(tailer.first_seq(), 1U);  // the file's floor, not the skip
    EXPECT_EQ(seqs_of(drain(tailer)), (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_EQ(tailer.last_seq(), 7U);
    EXPECT_TRUE(tailer.status().ok());

    // Skipping every record surfaces nothing and is not an error.
    ASSERT_TRUE(tailer.open(path, 7).ok());
    EXPECT_TRUE(drain(tailer).empty());
    EXPECT_EQ(tailer.last_seq(), 0U);
    EXPECT_TRUE(tailer.status().ok());
}

/// Scans and tails `path`, and checks the tailer surfaced exactly the
/// records the scan accepted, failing exactly when the scan stopped at
/// corruption rather than at an incomplete tail.
void expect_tailer_matches_scan(const std::string& path,
                                const std::string& what) {
    std::vector<WalRecord> scanned;
    ReplayStats stats;
    ASSERT_TRUE(scan_wal(path, stats, [&](const WalRecord& rec) {
        scanned.push_back(rec);
    }).ok()) << what;
    WalTailer tailer;
    ASSERT_TRUE(tailer.open(path).ok()) << what;
    const std::vector<WalRecord> tailed = drain(tailer);
    ASSERT_EQ(tailed.size(), scanned.size()) << what;
    for (std::size_t i = 0; i < tailed.size(); ++i) {
        EXPECT_EQ(tailed[i].seq, scanned[i].seq) << what;
        EXPECT_EQ(tailed[i].type, scanned[i].type) << what;
        EXPECT_EQ(tailed[i].offset, scanned[i].offset) << what;
        EXPECT_EQ(tailed[i].payload, scanned[i].payload) << what;
    }
    const bool scan_hit_corruption =
        !stats.tail_status.ok() &&
        stats.tail_status.code != StatusCode::WalTruncated;
    EXPECT_EQ(!tailer.status().ok(), scan_hit_corruption)
        << what << ": scan stopped with " << stats.tail_status.to_string()
        << ", tailer holds " << tailer.status().to_string();
}

TEST(WalTailer, AgreesWithScanOnEveryTruncationAndBitFlip) {
    TempDir dir;
    const std::string path = dir.file("wal.gtw");
    const auto bytes = three_frame_log(path);
    constexpr std::size_t kFileHeader = 8;  // u32 magic | u32 version
    for (std::size_t cut = kFileHeader; cut <= bytes.size(); ++cut) {
        test::write_file_bytes(path, {bytes.begin(), bytes.begin() + cut});
        expect_tailer_matches_scan(path, "cut at " + std::to_string(cut));
    }
    for (std::size_t at = kFileHeader; at < bytes.size(); ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto flipped = bytes;
            flipped[at] ^= static_cast<unsigned char>(1U << bit);
            test::write_file_bytes(path, flipped);
            expect_tailer_matches_scan(path, "bit " + std::to_string(bit) +
                                                 " of byte " +
                                                 std::to_string(at));
        }
    }
}

}  // namespace
}  // namespace gt::recover

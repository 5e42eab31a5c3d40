// DurableStore end-to-end: checkpoint + WAL-tail replay, snapshot fallback,
// torn-batch discard, and WAL pruning.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <optional>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"
#include "recover/durable.hpp"
#include "recover/torture.hpp"
#include "recover_test_util.hpp"

namespace gt::recover {
namespace {

using test::edge_map_of;
using test::TempDir;

TEST(Recovery, FreshDirectoryStartsEmptyAndLogs) {
    TempDir dir;
    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::Fresh);
    EXPECT_FALSE(info.wal_present);
    EXPECT_EQ(store.graph().num_edges(), 0u);
    ASSERT_TRUE(store.graph().insert_batch(rmat_edges(64, 300, 3)).ok());
    EXPECT_GT(store.wal().durable_seq(), 0u);
}

TEST(Recovery, CloseReopenReplaysTheLog) {
    TempDir dir;
    const auto edges = rmat_edges(256, 5000, 13);
    test::EdgeMap before;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(edges).ok());
        ASSERT_TRUE(store.graph().delete_batch(
            {edges.begin(), edges.begin() + 100}).ok());
        before = edge_map_of(store.graph());
        store.close();  // no checkpoint: recovery is pure WAL replay
    }
    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::Fresh);
    EXPECT_TRUE(info.wal_present);
    EXPECT_EQ(info.replay.batches_applied, 2u);
    EXPECT_TRUE(info.audit_clean);
    EXPECT_EQ(edge_map_of(store.graph()), before);
}

TEST(Recovery, CheckpointPlusTailReplay) {
    TempDir dir;
    const auto first = rmat_edges(256, 4000, 23);
    const auto second = rmat_edges(256, 4000, 24);
    test::EdgeMap before;
    std::uint64_t checkpoint_seq = 0;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(first).ok());
        ASSERT_TRUE(store.checkpoint().ok());
        checkpoint_seq = store.wal().durable_seq();
        ASSERT_TRUE(store.graph().insert_batch(second).ok());
        before = edge_map_of(store.graph());
        store.close();
    }
    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::Snapshot);
    EXPECT_EQ(info.snapshot_wal_seq, checkpoint_seq);
    // Only the post-checkpoint batch replays.
    EXPECT_EQ(info.replay.batches_applied, 1u);
    EXPECT_EQ(edge_map_of(store.graph()), before);
}

TEST(Recovery, TornCommitFrameIsDiscarded) {
    TempDir dir;
    const auto edges = rmat_edges(256, 3000, 33);
    test::EdgeMap committed;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(
            {edges.begin(), edges.begin() + 1500}).ok());
        committed = edge_map_of(store.graph());
        ASSERT_TRUE(store.graph().insert_batch(
            {edges.begin() + 1500, edges.end()}).ok());
        store.close();
    }
    // Chop the WAL mid-way through the second frame (its commit record sits
    // at the very end of the file — cutting anywhere inside the frame's
    // bytes removes the commit).
    const std::string wal = dir.file("db") + "/wal.gtw";
    auto bytes = test::read_file_bytes(wal);
    bytes.resize(bytes.size() - 30);
    test::write_file_bytes(wal, bytes);

    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_TRUE(info.replay.torn_tail || info.replay.torn_batch);
    EXPECT_EQ(edge_map_of(store.graph()), committed);
    EXPECT_TRUE(info.audit_clean);
    // The torn tail was truncated on reopen; appends work again.
    ASSERT_TRUE(store.graph().insert_batch(edges).ok());
}

TEST(Recovery, CorruptSnapshotFallsBackToPrev) {
    TempDir dir;
    test::EdgeMap final_state;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(128, 2000, 43)).ok());
        ASSERT_TRUE(store.checkpoint().ok());  // -> snapshot.gts
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(128, 2000, 44)).ok());
        ASSERT_TRUE(store.checkpoint().ok());  // rotates first to .prev
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(128, 500, 45)).ok());
        final_state = edge_map_of(store.graph());
        store.close();
    }
    // Flip a byte in the newest snapshot's edge area.
    const std::string snap = dir.file("db") + "/snapshot.gts";
    auto bytes = test::read_file_bytes(snap);
    bytes[bytes.size() / 2] ^= 0x20;
    test::write_file_bytes(snap, bytes);

    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::PrevSnapshot);
    EXPECT_FALSE(info.snapshot_status.ok());
    // The WAL is never pruned by checkpoints, so prev + longer replay
    // reconstructs the exact same final state.
    EXPECT_EQ(edge_map_of(store.graph()), final_state);
    EXPECT_TRUE(info.audit_clean);
}

TEST(Recovery, BothSnapshotsCorruptFallsBackToFullReplay) {
    TempDir dir;
    test::EdgeMap final_state;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(128, 1500, 53)).ok());
        ASSERT_TRUE(store.checkpoint().ok());
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(128, 1500, 54)).ok());
        ASSERT_TRUE(store.checkpoint().ok());
        final_state = edge_map_of(store.graph());
        store.close();
    }
    for (const char* name : {"/snapshot.gts", "/snapshot.prev.gts"}) {
        const std::string path = dir.file("db") + name;
        auto bytes = test::read_file_bytes(path);
        bytes[bytes.size() / 3] ^= 0x11;
        test::write_file_bytes(path, bytes);
    }
    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::Fresh);
    EXPECT_FALSE(info.snapshot_status.ok());
    EXPECT_FALSE(info.prev_snapshot_status.ok());
    EXPECT_EQ(edge_map_of(store.graph()), final_state);
}

TEST(Recovery, PruneWalDropsCoveredRecords) {
    TempDir dir;
    test::EdgeMap state;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(256, 8000, 63)).ok());
        ASSERT_TRUE(store.checkpoint().ok());
        const auto wal_before =
            test::read_file_bytes(store.wal_path()).size();
        ASSERT_TRUE(store.prune_wal().ok());
        const auto wal_after = test::read_file_bytes(store.wal_path()).size();
        EXPECT_LT(wal_after, wal_before);
        // The store keeps logging after the rotation.
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(64, 500, 64)).ok());
        state = edge_map_of(store.graph());
        store.close();
    }
    DurableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(store.open(dir.file("db"), {}, &info).ok());
    EXPECT_EQ(info.source, RecoveryInfo::Source::Snapshot);
    EXPECT_EQ(edge_map_of(store.graph()), state);
}

TEST(Recovery, PruneWalFailureKeepsTheStoreDurable) {
    TempDir dir;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        ASSERT_TRUE(store.graph().insert_batch(rmat_edges(64, 200, 65)).ok());
        ASSERT_TRUE(store.checkpoint().ok());
        // Sabotage the rotation: a non-empty directory squats on the tmp
        // path, so it can be neither removed nor created as a fresh log.
        const std::string tmp = dir.file("db") + "/wal.tmp.gtw";
        ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
        {
            std::ofstream squatter(tmp + "/squatter");
            squatter << "x";
        }
        EXPECT_FALSE(store.prune_wal().ok());
        // The failed prune must re-attach the original log, not leave the
        // graph silently un-teed: this insert has to survive a reopen.
        EXPECT_TRUE(store.wal().status().ok());
        EXPECT_TRUE(store.graph().insert_edge(4242, 4243, 7));
        store.close();
    }
    DurableStore store;
    ASSERT_TRUE(store.open(dir.file("db")).ok());
    EXPECT_EQ(store.graph().find_edge(4242, 4243), std::optional<Weight>(7));
}

TEST(Recovery, DurabilityModesRoundTrip) {
    for (const DurabilityMode mode :
         {DurabilityMode::Buffered, DurabilityMode::FsyncBatch}) {
        TempDir dir;
        DurableOptions options;
        options.mode = mode;
        const auto edges = rmat_edges(128, 2000, 73);
        test::EdgeMap before;
        {
            DurableStore store;
            ASSERT_TRUE(store.open(dir.file("db"), options).ok());
            ASSERT_TRUE(store.graph().insert_batch(edges).ok());
            before = edge_map_of(store.graph());
            store.close();
        }
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db"), options).ok());
        EXPECT_EQ(edge_map_of(store.graph()), before)
            << to_string(mode);
    }
}

TEST(Recovery, BfsDistancesFromRootPastTheVertexBound) {
    // A root the store has never seen reaches only itself; root 2^32 - 1
    // used to wrap the engine's array size to 0 and write out of bounds.
    TempDir dir;
    DurableStore store;
    ASSERT_TRUE(store.open(dir.file("db")).ok());
    const std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}};
    ASSERT_TRUE(store.insert_edges(chain, nullptr).ok());
    const VertexId past = store.graph().num_vertices() + 5;
    for (const VertexId root : {kInvalidVertex, past}) {
        const std::vector<VertexId> targets = {root, 0, 2};
        std::vector<std::uint32_t> dist;
        ASSERT_TRUE(store.bfs_distances(root, targets, dist).ok());
        EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, kInfDistance,
                                                    kInfDistance}))
            << root;
    }
    std::vector<std::uint32_t> dist;
    ASSERT_TRUE(
        store.bfs_distances(0, std::vector<VertexId>{0, 2}, dist).ok());
    EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 2}));
}

TEST(Recovery, TortureVerifierAcceptsCleanPrefixAndRejectsTampering) {
    // In-process mirror of tools/crash_torture.sh: run the deterministic
    // workload, recover, verify; then tamper with the recovered state's
    // inputs and require the verifier to notice.
    TempDir dir;
    const std::uint64_t seed = 99;
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        for (std::uint64_t step = 0; step < 17; ++step) {
            const auto batch = torture_step_batch(seed, step, 64, 512);
            const Status st = torture_step_is_delete(step)
                                  ? store.graph().delete_batch(batch)
                                  : store.graph().insert_batch(batch);
            ASSERT_TRUE(st.ok()) << step;
        }
        store.close();
    }
    {
        DurableStore store;
        ASSERT_TRUE(store.open(dir.file("db")).ok());
        const TortureVerdict v =
            verify_torture_recovery(store.graph(), seed, 64, 512);
        EXPECT_TRUE(v.ok) << v.detail;
        EXPECT_EQ(v.committed_steps, 17u);
        // Tamper: a stray edge the committed prefix never contained.
        ASSERT_TRUE(store.graph().insert_edge(500, 501, 77));
        const TortureVerdict bad =
            verify_torture_recovery(store.graph(), seed, 64, 512);
        EXPECT_FALSE(bad.ok);
    }
}

}  // namespace
}  // namespace gt::recover

// All-or-nothing batch semantics: a batch that fails part-way must leave
// the store byte-for-byte equivalent to never having started, verified
// against a twin store that never saw the failing batch.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/graphtinker.hpp"
#include "gen/rmat.hpp"
#include "recover/wal.hpp"
#include "recover_test_util.hpp"
#include "util/failpoint.hpp"

namespace gt::core {
namespace {

using test::edge_map_of;
using test::TempDir;

/// Every store here compacts on delete, so its CAL holds no holes — after a
/// rollback too.
void expect_dense_cal(const GraphTinker& g) {
    EXPECT_EQ(g.cal().scanned_slots(), g.cal().live_edges());
}

TEST(TransactionalBatch, SentinelEndpointRejectsWholeBatchWithIndex) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "sentinel");
    (void)g.insert_edge(1, 2, 3);
    std::vector<Edge> batch{{4, 5, 6}, {7, 8, 9},
                            {kInvalidVertex, 1, 1}, {10, 11, 12}};
    const Status st = g.insert_batch(batch);
    EXPECT_EQ(st.code, StatusCode::InvalidArgument);
    EXPECT_EQ(st.detail, 2u);  // index of the offending edge
    EXPECT_EQ(g.num_edges(), 1u);  // nothing before the bad index applied

    const Status dst = g.delete_batch(batch);
    EXPECT_EQ(dst.code, StatusCode::InvalidArgument);
    EXPECT_EQ(dst.detail, 2u);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TransactionalBatch, EbaGrowthFailureMidBatchRollsBackCompletely) {
    // Fire the edgeblock-arena growth fail point at several depths into a
    // batch big enough to need growth repeatedly; every time, the store
    // must equal its pre-batch self and audit clean.
    const auto base = rmat_edges(128, 2000, 31);
    const auto batch = rmat_edges(512, 30000, 32);
    for (const std::uint64_t countdown : {1ULL, 2ULL, 3ULL}) {
        GraphTinker g;
        const test::ScopedAudit audit(g, "eba.grow rollback");
        ASSERT_TRUE(g.insert_batch(base).ok());
        const auto before = edge_map_of(g);
        const auto edges_before = g.num_edges();

        fail::ScopedFailPoint fp("eba.grow", countdown);
        const Status st = g.insert_batch(batch);
        ASSERT_EQ(st.code, StatusCode::FaultInjected) << countdown;
        EXPECT_EQ(g.num_edges(), edges_before) << countdown;
        EXPECT_EQ(edge_map_of(g), before) << countdown;
        expect_dense_cal(g);
        audit.check();

        // The store stays fully usable: the same batch succeeds once the
        // fault is gone (single-shot fail points disarm themselves).
        ASSERT_TRUE(g.insert_batch(batch).ok()) << countdown;
        audit.check();
    }
}

TEST(TransactionalBatch, CalGrowthFailureMidBatchRollsBackCompletely) {
    const auto base = rmat_edges(128, 2000, 41);
    const auto batch = rmat_edges(256, 8000, 42);
    // cal.grow is crossed on every per-run pre-flight, so mid-batch
    // countdowns land inside the apply loop.
    for (const std::uint64_t countdown : {1ULL, 50ULL, 500ULL}) {
        GraphTinker g;
        const test::ScopedAudit audit(g, "cal.grow rollback");
        ASSERT_TRUE(g.insert_batch(base).ok());
        const auto before = edge_map_of(g);

        fail::ScopedFailPoint fp("cal.grow", countdown);
        const Status st = g.insert_batch(batch);
        ASSERT_EQ(st.code, StatusCode::FaultInjected) << countdown;
        EXPECT_EQ(edge_map_of(g), before) << countdown;
        expect_dense_cal(g);
        audit.check();
        ASSERT_TRUE(g.insert_batch(batch).ok()) << countdown;
    }
}

TEST(TransactionalBatch, WeightUpdatesAreRolledBackToo) {
    // A failing batch that would have *updated* existing weights must
    // restore the old weights, not just erase created edges.
    GraphTinker g;
    const test::ScopedAudit audit(g, "weight rollback");
    std::vector<Edge> base;
    for (VertexId v = 0; v < 400; ++v) {
        base.push_back(Edge{v, v + 1, 7});
    }
    ASSERT_TRUE(g.insert_batch(base).ok());
    const auto before = edge_map_of(g);

    std::vector<Edge> update = base;
    for (Edge& e : update) {
        e.weight = 99;
    }
    // Plenty of fresh edges after the updates so the fault lands after
    // some weight updates have already been applied.
    const auto fresh = rmat_edges(4096, 60000, 51);
    update.insert(update.end(), fresh.begin(), fresh.end());

    fail::ScopedFailPoint fp("eba.grow", 1);
    const Status st = g.insert_batch(update);
    ASSERT_EQ(st.code, StatusCode::FaultInjected);
    EXPECT_EQ(edge_map_of(g), before);
    expect_dense_cal(g);
    audit.check();
}

TEST(TransactionalBatch, DeleteBatchRollbackReinsertsDeletedEdges) {
    const auto base = rmat_edges(128, 3000, 61);
    GraphTinker g;
    const test::ScopedAudit audit(g, "delete rollback");
    ASSERT_TRUE(g.insert_batch(base).ok());
    const auto before = edge_map_of(g);

    // cal.grow is also crossed by the erase pre-flight, partway through.
    fail::ScopedFailPoint fp("cal.grow", 200);
    const Status st = g.delete_batch(base);
    ASSERT_EQ(st.code, StatusCode::FaultInjected);
    EXPECT_EQ(edge_map_of(g), before);
    expect_dense_cal(g);
    audit.check();

    ASSERT_TRUE(g.delete_batch(base).ok());
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(TransactionalBatch, WalStageFailureAbortsBeforeAnyMutation) {
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "wal stage");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    ASSERT_TRUE(g.insert_batch(rmat_edges(64, 500, 71)).ok());
    const auto before = edge_map_of(g);

    {
        fail::ScopedFailPoint fp("wal.stage", 1);
        const Status st = g.insert_batch(rmat_edges(64, 500, 72));
        EXPECT_EQ(st.code, StatusCode::IoError);
        EXPECT_EQ(edge_map_of(g), before);
    }
    // Stage failures latch nothing (the throw happens before the writer
    // touches its own state), so the log keeps working afterwards.
    ASSERT_TRUE(g.insert_batch(rmat_edges(64, 500, 73)).ok());
    g.attach_update_log(nullptr);
}

TEST(TransactionalBatch, PreflightFailureLeavesStoreAndLogUntouched) {
    // The batch's scratch reservations run before the log opens a frame, so
    // a failed one neither mutates the store nor leaves the log mid-batch:
    // the next batch of either kind stages and commits.
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "preflight");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    const auto base = rmat_edges(64, 500, 74);
    ASSERT_TRUE(g.insert_batch(base).ok());
    const auto before = edge_map_of(g);
    const std::uint64_t seq = wal.next_seq();

    for (const bool deletes : {false, true}) {
        {
            fail::ScopedFailPoint fp("txn.preflight", 1);
            const Status st = deletes
                                  ? g.delete_batch(base)
                                  : g.insert_batch(rmat_edges(64, 500, 75));
            EXPECT_EQ(st.code, StatusCode::FaultInjected) << deletes;
            EXPECT_EQ(edge_map_of(g), before) << deletes;
        }
        EXPECT_EQ(wal.next_seq(), seq) << deletes;
        EXPECT_TRUE(wal.status().ok()) << deletes;
    }
    const auto more = rmat_edges(64, 500, 76);
    ASSERT_TRUE(g.insert_batch(more).ok());
    ASSERT_TRUE(g.delete_batch(more).ok());
    expect_dense_cal(g);
    audit.check();
    g.attach_update_log(nullptr);
    wal.close();

    GraphTinker replayed;
    recover::ReplayStats stats;
    ASSERT_TRUE(
        recover::replay_wal(dir.file("wal.gtw"), replayed, 0, stats).ok());
    EXPECT_EQ(edge_map_of(replayed), edge_map_of(g));
}

TEST(TransactionalBatch, WalCommitFailureRollsBackMemoryToo) {
    // If the durability point cannot be reached, memory must roll back —
    // otherwise the store and its log diverge and replay reproduces a
    // different graph. The delete batch applies in full, its CAL pass
    // included, before the commit fails; the journal then re-inserts every
    // edge it removed.
    for (const bool deletes : {false, true}) {
        TempDir dir;
        GraphTinker g;
        const test::ScopedAudit audit(
            g, deletes ? "wal commit delete" : "wal commit insert");
        recover::WalWriter wal;
        ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                             recover::DurabilityMode::Buffered).ok());
        g.attach_update_log(&wal);
        const auto base = rmat_edges(64, 500, 81);
        ASSERT_TRUE(g.insert_batch(base).ok());
        const auto before = edge_map_of(g);

        {
            fail::ScopedFailPoint fp("wal.commit", 1);
            const Status st = deletes
                                  ? g.delete_batch(base)
                                  : g.insert_batch(rmat_edges(64, 500, 82));
            EXPECT_EQ(st.code, StatusCode::IoError) << deletes;
            EXPECT_EQ(edge_map_of(g), before) << deletes;
            expect_dense_cal(g);
            audit.check();
        }
        g.attach_update_log(nullptr);
        wal.close();

        // The log holds exactly the committed batch — replay agrees with
        // the rolled-back store.
        GraphTinker replayed;
        recover::ReplayStats stats;
        ASSERT_TRUE(
            recover::replay_wal(dir.file("wal.gtw"), replayed, 0, stats).ok());
        EXPECT_EQ(edge_map_of(replayed), before) << deletes;
    }
}

TEST(TransactionalBatch, SmallBatchFaultsRollBackCompletely) {
    // A 16-edge batch takes the sorted path, so a fault on a later edge
    // must undo what the earlier edges did: new edges, weight updates,
    // the mappings of sources first seen in the batch, and on the delete
    // side the ids of sources the batch emptied.
    struct State {
        test::EdgeMap edges;
        std::map<VertexId, std::uint32_t> degrees;
        std::size_t free_ids = 0;
    };
    const auto state_of = [](const GraphTinker& g,
                             const std::vector<Edge>& batch) {
        State out{edge_map_of(g), {}, g.free_ids()};
        for (const auto& [key, weight] : out.edges) {
            out.degrees[key.first] = g.degree(key.first);
        }
        for (const Edge& e : batch) {
            out.degrees[e.src] = g.degree(e.src);
        }
        return out;
    };
    const auto expect_restored = [&](const GraphTinker& g, const State& was,
                                     const std::vector<Edge>& batch,
                                     const char* label) {
        const State now = state_of(g, batch);
        EXPECT_EQ(now.edges, was.edges) << label;
        EXPECT_EQ(now.degrees, was.degrees) << label;
        EXPECT_EQ(now.free_ids, was.free_ids) << label;
        expect_dense_cal(g);
    };
    // Sources 0-7 hold two edges each and source 100 a full narrow top (a
    // default subblock's 8 edges, so its next edge promotes it and needs
    // the still-empty wide arena); sources 200-215 held an edge each and
    // left 16 ids on SGH's free list.
    const auto populate = [](GraphTinker& g) {
        std::vector<Edge> base;
        for (VertexId v = 0; v < 8; ++v) {
            base.push_back(Edge{v, 1, 1});
            base.push_back(Edge{v, 2, 1});
        }
        for (VertexId d = 0; d < 8; ++d) {
            base.push_back(Edge{100, d, 1});
        }
        std::vector<Edge> gone;
        for (VertexId v = 200; v < 216; ++v) {
            gone.push_back(Edge{v, 1, 1});
        }
        ASSERT_TRUE(g.insert_batch(base).ok());
        ASSERT_TRUE(g.insert_batch(gone).ok());
        ASSERT_TRUE(g.delete_batch(gone).ok());
        ASSERT_EQ(g.free_ids(), 16u);
    };
    // In source order: weight updates and new edges on sources 0-7, four
    // never-seen sources, the promotion of source 100, two more new
    // sources.
    const std::vector<Edge> inserts{
        {0, 1, 50}, {1, 3, 5},   {2, 2, 60},   {3, 4, 5},
        {4, 1, 70}, {5, 5, 5},   {6, 6, 5},    {7, 2, 80},
        {50, 1, 5}, {51, 2, 5},  {52, 3, 5},   {53, 4, 5},
        {100, 1000, 5}, {100, 1001, 5}, {300, 1, 5}, {301, 1, 5}};
    // eba.grow first fires at source 100's promotion; cal.grow is crossed
    // once per applied insert, so the tenth fires at source 51.
    for (const auto& [site, countdown] :
         {std::pair<const char*, std::uint64_t>{"eba.grow", 1},
          std::pair<const char*, std::uint64_t>{"cal.grow", 10}}) {
        GraphTinker g;
        const test::ScopedAudit audit(g, site);
        populate(g);
        const State before = state_of(g, inserts);
        {
            fail::ScopedFailPoint fp(site, countdown);
            const Status st = g.insert_batch(inserts);
            ASSERT_EQ(st.code, StatusCode::FaultInjected) << site;
            EXPECT_GT(st.detail, 0u) << site << ": no earlier edge applied";
        }
        expect_restored(g, before, inserts, site);
        audit.check();
        ASSERT_TRUE(g.insert_batch(inserts).ok()) << site;
    }

    // A delete batch that applies in full, emptying sources 0 and 1 and
    // deleting a pair twice beside an absent edge and a never-seen source,
    // then cannot commit.
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "small delete batch");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    populate(g);
    const std::vector<Edge> deletes{
        {0, 1, 0},   {0, 2, 0},   {1, 1, 0},   {1, 2, 0},
        {2, 1, 0},   {2, 1, 0},   {3, 9, 0},   {4, 2, 0},
        {5, 1, 0},   {6, 2, 0},   {7, 1, 0},   {100, 0, 0},
        {100, 7, 0}, {100, 3, 0}, {400, 1, 0}, {100, 5, 0}};
    const State before = state_of(g, deletes);
    {
        fail::ScopedFailPoint fp("wal.commit", 1);
        EXPECT_EQ(g.delete_batch(deletes).code, StatusCode::IoError);
    }
    expect_restored(g, before, deletes, "small delete batch");
    audit.check();
    g.attach_update_log(nullptr);
}

TEST(TransactionalBatch, SoloCommitFailureRollsBackAndReturnsFalse) {
    // Solo ops follow the same policy as batches: a commit that cannot be
    // made durable rolls the in-memory mutation back and reports failure,
    // so the store never diverges from what replay rebuilds.
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo wal commit");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    ASSERT_TRUE(g.insert_edge(1, 2, 10));
    const auto before = edge_map_of(g);

    {
        fail::ScopedFailPoint fp("wal.commit", 1);
        EXPECT_FALSE(g.insert_edge(3, 4, 5));
    }
    EXPECT_EQ(edge_map_of(g), before);
    EXPECT_EQ(wal.status().code, StatusCode::FaultInjected);
    // The latched log refuses every further solo mutation up front rather
    // than applying it un-teed.
    EXPECT_FALSE(g.insert_edge(5, 6, 7));
    EXPECT_FALSE(g.delete_edge(1, 2));
    EXPECT_EQ(edge_map_of(g), before);
    expect_dense_cal(g);
    audit.check();
    g.attach_update_log(nullptr);
    wal.close();

    // Replay agrees with the rolled-back store.
    GraphTinker replayed;
    recover::ReplayStats stats;
    ASSERT_TRUE(
        recover::replay_wal(dir.file("wal.gtw"), replayed, 0, stats).ok());
    EXPECT_EQ(edge_map_of(replayed), before);
}

TEST(TransactionalBatch, SoloWeightUpdateRollsBackOnCommitFailure) {
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo wal weight");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    ASSERT_TRUE(g.insert_edge(1, 2, 10));
    {
        fail::ScopedFailPoint fp("wal.commit", 1);
        EXPECT_FALSE(g.insert_edge(1, 2, 99));  // duplicate: weight update
    }
    EXPECT_EQ(g.find_edge(1, 2), std::optional<Weight>(10));
    expect_dense_cal(g);
    audit.check();
    g.attach_update_log(nullptr);
}

TEST(TransactionalBatch, SoloDeleteCommitFailureReinsertsTheEdge) {
    TempDir dir;
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo wal delete");
    recover::WalWriter wal;
    ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                         recover::DurabilityMode::Buffered).ok());
    g.attach_update_log(&wal);
    ASSERT_TRUE(g.insert_edge(1, 2, 10));
    {
        fail::ScopedFailPoint fp("wal.commit", 1);
        EXPECT_FALSE(g.delete_edge(1, 2));
    }
    EXPECT_EQ(g.find_edge(1, 2), std::optional<Weight>(10));
    EXPECT_EQ(g.num_edges(), 1u);
    expect_dense_cal(g);
    audit.check();
    g.attach_update_log(nullptr);
}

TEST(TransactionalBatch, FailedUpdatesLeaveNumVerticesUnchanged) {
    // num_vertices() covers the ids of updates that landed, as a replay of
    // the committed history would: a batch or solo op that is rolled back
    // or throws leaves it where it was.
    {
        GraphTinker g;
        const test::ScopedAudit audit(g, "vertex bound");
        ASSERT_TRUE(g.insert_edge(1, 2, 1));
        ASSERT_TRUE(g.insert_edge(3, 4, 1));
        ASSERT_EQ(g.num_vertices(), 5u);
        // Sorted by source, 1->5 applies before cal.grow fails 900->901.
        const std::vector<Edge> batch{{1, 5, 1}, {900, 901, 1}, {1000, 7, 1}};
        {
            fail::ScopedFailPoint fp("cal.grow", 2);
            ASSERT_EQ(g.insert_batch(batch).code, StatusCode::FaultInjected);
        }
        EXPECT_EQ(g.num_vertices(), 5u);
        {
            fail::ScopedFailPoint fp("cal.grow", 1);
            EXPECT_THROW((void)g.insert_edge(5000, 6000, 1),
                         fail::InjectedFault);
        }
        EXPECT_EQ(g.num_vertices(), 5u);
        EXPECT_EQ(g.num_edges(), 2u);
    }
    // With a log attached, a failed commit rolls the solo op or batch back;
    // each case gets its own log, since a failed commit latches it.
    for (const bool solo : {true, false}) {
        TempDir dir;
        GraphTinker g;
        const test::ScopedAudit audit(g, solo ? "solo commit" : "commit");
        recover::WalWriter wal;
        ASSERT_TRUE(wal.open(dir.file("wal.gtw"),
                             recover::DurabilityMode::Buffered).ok());
        g.attach_update_log(&wal);
        ASSERT_TRUE(g.insert_edge(1, 2, 1));
        ASSERT_EQ(g.num_vertices(), 3u);
        {
            fail::ScopedFailPoint fp("wal.commit", 1);
            if (solo) {
                EXPECT_FALSE(g.insert_edge(3000, 4000, 1));
            } else {
                const std::vector<Edge> batch{{1, 7000, 1}, {8000, 2, 1}};
                EXPECT_EQ(g.insert_batch(batch).code, StatusCode::IoError);
            }
        }
        EXPECT_EQ(g.num_vertices(), 3u) << solo;
        EXPECT_EQ(g.num_edges(), 1u) << solo;
        g.attach_update_log(nullptr);
    }
}

TEST(TransactionalBatch, SoloInsertFaultLeavesStoreUntouched) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "solo");
    ASSERT_TRUE(g.insert_batch(rmat_edges(64, 1000, 91)).ok());
    const auto before = edge_map_of(g);

    fail::ScopedFailPoint fp("cal.grow", 1);
    EXPECT_THROW((void)g.insert_edge(999999, 1, 2), fail::InjectedFault);
    EXPECT_EQ(edge_map_of(g), before);
    expect_dense_cal(g);
    audit.check();
    EXPECT_TRUE(g.insert_edge(999999, 1, 2));
}

}  // namespace
}  // namespace gt::core

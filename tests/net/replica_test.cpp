// WAL-shipping replication end-to-end: a primary Server, a read_only
// replica Server, and the Replicator pumping shipped frames between them.
// Covers catch-up + live following (lag_seqs reaches 0 and the replica
// answers queries with the primary's data), catch-up of a backlog several
// times the write-buffer cap (flow control), the checkpoint/prune fence
// (primary keeps its WAL until the subscriber acks), seq mirroring (the
// replica's own WAL continues seamlessly across a restart), the primary
// dropping a subscriber whose connection closed, and — via
// fork + SIGKILL of the primary — failover: the replica serves exactly a
// committed prefix of the torture stream.
#include "net/replica.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/scoped_server.hpp"
#include "net/server.hpp"
#include "recover/durable.hpp"
#include "recover/torture.hpp"
#include "recover/recover_test_util.hpp"

namespace gt::net {
namespace {

using test::ScopedServer;
using test::TempDir;

TEST(Replica, CatchesUpAndServesReads) {
    TempDir primary_dir;
    TempDir replica_dir;
    ScopedServer primary({.root = primary_dir.path()});

    // Seed the primary before the replica ever connects (catch-up path).
    Client pc;
    ASSERT_TRUE(pc.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph pg;
    ASSERT_TRUE(pc.open("g", pg, 1).ok());
    const std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
    ASSERT_TRUE(pg.insert_edges(chain, nullptr).ok());

    ServerOptions ro{.root = replica_dir.path()};
    ro.read_only = true;
    ScopedServer replica(ro);
    Server::LocalGraph local;
    ASSERT_TRUE(replica.server().open_local("g", local).ok());

    Replicator rep;
    ReplicatorOptions ropts;
    ropts.port = primary.port();
    ropts.graph = "g";
    ASSERT_TRUE(rep.start(ropts, local).ok());
    ASSERT_TRUE(rep.pump_until_current().ok());
    EXPECT_EQ(rep.lag_seqs(), 0U);

    // The replica answers read verbs with the primary's data...
    Client rc;
    ASSERT_TRUE(rc.connect("127.0.0.1", replica.port()).ok());
    RemoteGraph rg;
    ASSERT_TRUE(rc.open("g", rg).ok());
    std::vector<std::uint32_t> dist;
    ASSERT_TRUE(rg.bfs_distances(0, std::vector<VertexId>{3}, dist).ok());
    EXPECT_EQ(dist[0], 3U);
    // ...refuses mutations...
    const std::vector<Edge> extra = {{9, 10, 1}};
    Status st = rg.insert_edges(extra, nullptr);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::ReadOnly));
    // ...and exports the lag gauge through the normal stats surface.
    std::string json;
    ASSERT_TRUE(rg.stats_json(json).ok());
    EXPECT_NE(json.find("replication.lag_seqs"), std::string::npos);

    // Live following: new primary commits flow through on the next pumps.
    ASSERT_TRUE(pg.insert_edges(std::vector<Edge>{{3, 4, 1}}, nullptr).ok());
    ASSERT_TRUE(pg.insert_edges(std::vector<Edge>{{4, 5, 1}}, nullptr).ok());
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(rep.pump_once().ok());
    }
    ASSERT_TRUE(rep.pump_until_current().ok());
    EXPECT_EQ(rep.lag_seqs(), 0U);
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(rg.count(e, v).ok());
    EXPECT_EQ(e, 5U);

    // Seq mirroring: the replica's WAL carries the primary's seqs, so a
    // fresh subscription resumes exactly at durable_seq with nothing to
    // re-ship.
    EXPECT_EQ(rep.applied_seq(), local.store->wal().durable_seq());
    rep.close();
}

TEST(Replica, CatchUpStreamsBacklogLargerThanWriteBufferCap) {
    // A fresh replica subscribing to a WAL backlog of 32 MiB — four times
    // the default max_wbuf_bytes — must be fed at the pace of its SubAcks,
    // not queued whole and torn down as a slow subscriber.
    TempDir primary_dir;
    TempDir replica_dir;
    ScopedServer primary({.root = primary_dir.path()});
    Client pc;
    ASSERT_TRUE(pc.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph pg;
    ASSERT_TRUE(pc.open("g", pg, 1).ok());
    Server::LocalGraph plocal;
    ASSERT_TRUE(primary.server().open_local("g", plocal).ok());

    // Rewrite the weights of one 64k-edge set round after round: the
    // graph stays small while every round logs the whole batch again.
    constexpr std::uint32_t kEdges = 1U << 16;
    constexpr std::uintmax_t kBacklog = std::uintmax_t{32} << 20;
    std::vector<Edge> batch(kEdges);
    Weight round = 0;
    while (std::filesystem::file_size(plocal.store->wal_path()) < kBacklog) {
        ++round;
        for (std::uint32_t i = 0; i < kEdges; ++i) {
            batch[i] = Edge{i % 4096, 4096 + i / 4096, round};
        }
        ASSERT_TRUE(pg.insert_edges(batch, nullptr).ok());
    }

    ServerOptions ro{.root = replica_dir.path()};
    ro.read_only = true;
    ScopedServer replica(ro);
    Server::LocalGraph local;
    ASSERT_TRUE(replica.server().open_local("g", local).ok());
    Replicator rep;
    ReplicatorOptions ropts;
    ropts.port = primary.port();
    ropts.graph = "g";
    ASSERT_TRUE(rep.start(ropts, local).ok());
    const Status st = rep.pump_until_current();
    ASSERT_TRUE(st.ok()) << "stream failed after " << rep.applied_seq()
                         << " seqs: " << st.to_string();
    EXPECT_EQ(rep.lag_seqs(), 0U);

    Client rc;
    ASSERT_TRUE(rc.connect("127.0.0.1", replica.port()).ok());
    RemoteGraph rg;
    ASSERT_TRUE(rc.open("g", rg).ok());
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(rg.count(e, v).ok());
    EXPECT_EQ(e, kEdges);
    rep.close();
}

TEST(Replica, CheckpointFenceHoldsWalUntilAck) {
    TempDir dir;
    ScopedServer primary({.root = dir.path()});
    Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph g;
    ASSERT_TRUE(c.open("g", g, 1).ok());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            g.insert_edges(std::vector<Edge>{{i, i + 1, 1}}, nullptr).ok());
    }

    // Subscribe from 0 and do NOT ack: the checkpoint must keep the WAL.
    Subscription sub;
    ASSERT_TRUE(g.subscribe(0, sub).ok());
    EXPECT_GE(sub.primary_seq, 4U);
    ASSERT_TRUE(g.checkpoint_now().ok());

    // Drain what the subscription shipped (it streams on subscribe).
    Client c2;
    ASSERT_TRUE(c2.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph g2;
    ASSERT_TRUE(c2.open("g", g2, 1).ok());
    // A second subscriber from 0 still succeeds — nothing was pruned.
    Subscription sub2;
    ASSERT_TRUE(g2.subscribe(0, sub2).ok())
        << "checkpoint pruned the WAL under an un-acked subscriber";

    // Ack everything on both subscriptions, checkpoint again: now the
    // fence lifts and the log is pruned.
    ASSERT_TRUE(g.send_ack(sub.primary_seq).ok());
    ASSERT_TRUE(g2.send_ack(sub.primary_seq).ok());
    // SubAck and Checkpoint ride the same connection, so FIFO ordering
    // guarantees the ack lands first.
    ASSERT_TRUE(g.checkpoint_now().ok());

    Client c3;
    ASSERT_TRUE(c3.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph g3;
    ASSERT_TRUE(c3.open("g", g3, 1).ok());
    Subscription sub3;
    const Status st = g3.subscribe(0, sub3);
    EXPECT_FALSE(st.ok()) << "acked checkpoint should have pruned seq 1+";
    EXPECT_EQ(st.detail,
              static_cast<std::uint64_t>(WireCode::SeqUnavailable));
    // Subscribing from the current seq is still fine.
    Subscription sub4;
    EXPECT_TRUE(g3.subscribe(sub.primary_seq, sub4).ok());
}

TEST(Replica, SubscriberDroppedWhenItsConnectionCloses) {
    // Closing a Replicator closes its subscribed connection; the primary's
    // teardown must retire the subscription with it.
    TempDir primary_dir;
    TempDir replica_dir;
    ScopedServer primary({.root = primary_dir.path()});
    Client pc;
    ASSERT_TRUE(pc.connect("127.0.0.1", primary.port()).ok());
    RemoteGraph pg;
    ASSERT_TRUE(pc.open("g", pg, 1).ok());
    ASSERT_TRUE(pg.insert_edges(std::vector<Edge>{{0, 1, 1}}, nullptr).ok());

    obs::Registry& reg = primary.server().obs();
    const auto gauge = [&](const char* name) {
        return reg.gauge(name).value();
    };
    /// Polls until the gauge reads `want` or 5 s pass.
    const auto settles_at = [&](const char* name, double want) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (gauge(name) != want &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return gauge(name) == want;
    };
    ASSERT_TRUE(settles_at("net.subscribers", 0.0));
    const double baseline_conns = gauge("net.open_conns");

    ServerOptions ro{.root = replica_dir.path()};
    ro.read_only = true;
    ScopedServer replica(ro);
    Server::LocalGraph local;
    ASSERT_TRUE(replica.server().open_local("g", local).ok());
    Replicator rep;
    ReplicatorOptions ropts;
    ropts.port = primary.port();
    ropts.graph = "g";
    ASSERT_TRUE(rep.start(ropts, local).ok());
    ASSERT_TRUE(rep.pump_until_current().ok());
    EXPECT_TRUE(settles_at("net.subscribers", 1.0));
    EXPECT_TRUE(settles_at("net.open_conns", baseline_conns + 1));

    rep.close();
    EXPECT_TRUE(settles_at("net.subscribers", 0.0))
        << "net.subscribers reads " << gauge("net.subscribers");
    EXPECT_TRUE(settles_at("net.open_conns", baseline_conns))
        << "net.open_conns reads " << gauge("net.open_conns");
    // The primary still serves the connection that stayed.
    EXPECT_TRUE(pc.ping().ok());
}

// ---------------------------------------------------------------------------
// Failover: SIGKILL the primary process mid-stream; the replica must hold a
// committed prefix of the torture workload, verifiable with the same
// checker the crash-recovery tests use, and serve it read-only.

constexpr std::uint32_t kEdgesPerStep = 64;
constexpr std::uint32_t kVertices = 512;

TEST(Replica, PrimaryKilledMidBatchReplicaServesCommittedPrefix) {
    TempDir primary_dir;
    TempDir replica_dir;
    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(port_pipe[0]);
        Server server;
        if (!server.start({.root = primary_dir.path()}).ok()) {
            ::_exit(3);
        }
        const std::uint16_t port = server.port();
        if (::write(port_pipe[1], &port, sizeof(port)) !=
            static_cast<ssize_t>(sizeof(port))) {
            ::_exit(3);
        }
        ::close(port_pipe[1]);
        (void)server.run();  // until SIGKILL
        ::_exit(0);
    }
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
              static_cast<ssize_t>(sizeof(port)));
    ::close(port_pipe[0]);

    const std::uint64_t kSeed = 20260807;
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port).ok());
    RemoteGraph g;
    ASSERT_TRUE(client.open("crashme", g, 2).ok());  // fsync_batch

    const auto write_step = [&](std::uint64_t step) {
        const std::vector<Edge> batch = recover::torture_step_batch(
            kSeed, step, kEdgesPerStep, kVertices);
        return recover::torture_step_is_delete(step)
                   ? g.delete_edges(batch, nullptr)
                   : g.insert_edges(batch, nullptr);
    };

    // Phase 1: an initial prefix, then attach the replica and catch up.
    for (std::uint64_t step = 0; step < 50; ++step) {
        ASSERT_TRUE(write_step(step).ok());
    }
    {
        ServerOptions ro{.root = replica_dir.path()};
        ro.read_only = true;
        ScopedServer replica(ro);
        Server::LocalGraph local;
        ASSERT_TRUE(replica.server().open_local("crashme", local).ok());
        Replicator rep;
        ReplicatorOptions ropts;
        ropts.port = port;
        ropts.graph = "crashme";
        ASSERT_TRUE(rep.start(ropts, local).ok());
        ASSERT_TRUE(rep.pump_until_current().ok());
        ASSERT_EQ(rep.lag_seqs(), 0U);

        // Phase 2: stream live with the replicator pumping concurrently;
        // SIGKILL the primary mid-run with requests in flight.
        Status follow_st;
        std::thread follower([&] { follow_st = rep.run(); });
        std::uint64_t step = 50;
        for (; step < 200; ++step) {
            if (step == 150) {
                ASSERT_EQ(::kill(child, SIGKILL), 0);
            }
            if (!write_step(step).ok()) {
                break;  // the kill landed mid-conversation
            }
        }
        follower.join();
        EXPECT_FALSE(follow_st.ok()) << "stream must end with the primary";
        rep.close();
    }  // replica server shuts down, closing the store cleanly
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    // The replica directory now recovers offline to a committed prefix of
    // the exact same workload — the torture checker decides which step.
    recover::DurableStore store;
    recover::RecoveryInfo info;
    const Status st =
        store.open(replica_dir.path() + "/crashme", {}, &info);
    ASSERT_TRUE(st.ok()) << st.to_string();
    const recover::TortureVerdict verdict = recover::verify_torture_recovery(
        store.graph(), kSeed, kEdgesPerStep, kVertices);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
    store.close();
}

}  // namespace
}  // namespace gt::net

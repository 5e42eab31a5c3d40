// Automatic failover end-to-end: term fencing (sidecar, Hello/Subscribe,
// StaleTerm), promotion of a live replica to primary, replica chains
// (replica-of-replica catch-up and live following), the deadline-bounded
// retry/backoff client, and the net-layer fault injection points. The
// headline drill mirrors production: SIGKILL the primary mid-ingest, let
// the replica promote under a bumped term, and require an endpoint-list
// client to finish its torture workload against the new primary — then
// prove the resurrected old primary is fenced out.
#include "net/replica.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/io.hpp"
#include "net/scoped_server.hpp"
#include "net/server.hpp"
#include "recover/durable.hpp"
#include "recover/recover_test_util.hpp"
#include "recover/term.hpp"
#include "recover/torture.hpp"
#include "recover/wal.hpp"
#include "util/failpoint.hpp"
#include "util/file_io.hpp"

namespace gt::net {
namespace {

using test::ScopedServer;
using test::TempDir;

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// ---------------------------------------------------------------------------
// Term sidecar: the durable fencing token.

TEST(Term, SidecarRoundTripsAndRatchets) {
    TempDir dir;
    std::uint64_t term = 99;
    // Missing file: every pre-failover directory is term 0.
    ASSERT_TRUE(recover::load_term(dir.path(), term).ok());
    EXPECT_EQ(term, 0U);
    ASSERT_TRUE(recover::store_term(dir.path(), 3).ok());
    ASSERT_TRUE(recover::load_term(dir.path(), term).ok());
    EXPECT_EQ(term, 3U);
    // Ratchet up is fine; ratchet down must refuse (fencing never regresses).
    ASSERT_TRUE(recover::store_term(dir.path(), 5).ok());
    const Status down = recover::store_term(dir.path(), 4);
    EXPECT_FALSE(down.ok());
    EXPECT_EQ(down.detail, 5U) << "detail should carry the current term";
    ASSERT_TRUE(recover::load_term(dir.path(), term).ok());
    EXPECT_EQ(term, 5U);
    // Storing the current term again is a no-op, not an error (idempotent
    // re-promotion paths).
    EXPECT_TRUE(recover::store_term(dir.path(), 5).ok());
}

TEST(Term, MalformedSidecarIsAnErrorNotZero) {
    TempDir dir;
    std::FILE* f = std::fopen((dir.path() + "/term.gtt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a term file", f);
    std::fclose(f);
    std::uint64_t term = 0;
    // A present-but-garbage file must not silently read as "term 0" — that
    // would drop the fence.
    EXPECT_FALSE(recover::load_term(dir.path(), term).ok());
}

/// write(2) stand-in that reports "wrote nothing", the ENOSPC-ish boundary.
ssize_t write_nothing(int, const void*, std::size_t) {
    errno = 0;
    return 0;
}

TEST(Term, FailedWriteIsAnIoErrorAndKeepsTheOldTerm) {
    TempDir dir;
    ASSERT_TRUE(recover::store_term(dir.path(), 3).ok());
    util::testing::set_write_override(&write_nothing);
    const Status st = recover::store_term(dir.path(), 4);
    util::testing::set_write_override(nullptr);
    EXPECT_EQ(st.code, StatusCode::IoError) << st.to_string();
    // The replacement never reached the rename: the fence still reads 3.
    std::uint64_t term = 0;
    ASSERT_TRUE(recover::load_term(dir.path(), term).ok());
    EXPECT_EQ(term, 3U);
}

// ---------------------------------------------------------------------------
// io-layer fault injection, driven deterministically over a socketpair so
// no server thread can consume the armed countdown first.

class SocketPair {
public:
    SocketPair() {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a_ = Fd(fds[0]);
        b_ = Fd(fds[1]);
    }
    [[nodiscard]] int a() const noexcept { return a_.get(); }
    [[nodiscard]] int b() const noexcept { return b_.get(); }
    void close_b() noexcept { b_.reset(); }

private:
    Fd a_;
    Fd b_;
};

TEST(IoFault, RecvResetSurfacesAsClosed) {
    SocketPair sp;
    fail::ScopedFailPoint fp("net.recv.reset");
    unsigned char buf[4];
    const Status st = recv_exact(sp.a(), buf, sizeof(buf));
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code, StatusCode::IoError);
}

TEST(IoFault, RecvEintrStormIsRetriedThrough) {
    SocketPair sp;
    const unsigned char payload[] = {1, 2, 3, 4};
    ASSERT_TRUE(send_all(sp.b(), payload).ok());
    fail::ScopedFailPoint fp("net.recv.eintr");
    unsigned char buf[4] = {};
    ASSERT_TRUE(recv_exact(sp.a(), buf, sizeof(buf)).ok());
    EXPECT_EQ(buf[3], 4);
}

TEST(IoFault, SendShortWriteReassembles) {
    SocketPair sp;
    const unsigned char payload[] = {9, 8, 7, 6, 5};
    fail::ScopedFailPoint fp("net.send.short");
    ASSERT_TRUE(send_all(sp.a(), payload).ok());
    unsigned char buf[5] = {};
    ASSERT_TRUE(recv_exact(sp.b(), buf, sizeof(buf)).ok());
    EXPECT_EQ(buf[0], 9);
    EXPECT_EQ(buf[4], 5);
}

TEST(IoFault, SendEintrStormIsRetriedThrough) {
    SocketPair sp;
    const unsigned char payload[] = {42};
    fail::ScopedFailPoint fp("net.send.eintr");
    ASSERT_TRUE(send_all(sp.a(), payload).ok());
    unsigned char buf[1] = {};
    ASSERT_TRUE(recv_exact(sp.b(), buf, 1).ok());
    EXPECT_EQ(buf[0], 42);
}

TEST(IoFault, SendResetSurfacesAsIoError) {
    SocketPair sp;
    const unsigned char payload[] = {1, 2};
    fail::ScopedFailPoint fp("net.send.reset");
    const Status st = send_all(sp.a(), payload);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code, StatusCode::IoError);
}

TEST(IoFault, RecvStallHonorsTheDeadline) {
    SocketPair sp;
    fail::ScopedFailPoint fp("net.recv.stall");
    unsigned char buf[1];
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = recv_exact(
        sp.a(), buf, 1, Deadline::after(std::chrono::milliseconds(60)));
    EXPECT_EQ(st.code, StatusCode::TimedOut) << st.to_string();
    EXPECT_LT(seconds_since(t0), 5.0) << "stall must end at the deadline";
}

TEST(IoFault, RecvStallWithUnboundedDeadlineFailsFast) {
    // The stall simulator must never hang a binary that forgot a deadline:
    // it reports TimedOut immediately instead.
    SocketPair sp;
    fail::ScopedFailPoint fp("net.recv.stall");
    unsigned char buf[1];
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(recv_exact(sp.a(), buf, 1).code, StatusCode::TimedOut);
    EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(IoFault, ConnectStallHonorsTheDeadline) {
    fail::ScopedFailPoint fp("net.connect.stall");
    Fd fd;
    const auto t0 = std::chrono::steady_clock::now();
    const Status st =
        tcp_connect("127.0.0.1", 1, fd,
                    Deadline::after(std::chrono::milliseconds(60)));
    EXPECT_EQ(st.code, StatusCode::TimedOut) << st.to_string();
    EXPECT_LT(seconds_since(t0), 5.0);
}

TEST(IoFault, SilentPeerRecvIsDeadlineBounded) {
    // No failpoint at all: a peer that simply never writes must not hold a
    // bounded recv_exact hostage.
    SocketPair sp;
    unsigned char buf[1];
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = recv_exact(
        sp.a(), buf, 1, Deadline::after(std::chrono::milliseconds(60)));
    EXPECT_EQ(st.code, StatusCode::TimedOut);
    EXPECT_LT(seconds_since(t0), 5.0);
}

TEST(NetIo, AcceptedSocketsDisableNagle) {
    Fd listener;
    std::uint16_t port = 0;
    ASSERT_TRUE(tcp_listen("127.0.0.1", 0, listener, port).ok());
    Fd client;
    ASSERT_TRUE(tcp_connect("127.0.0.1", port, client).ok());
    const Fd conn{accept_retry(listener.get())};
    ASSERT_TRUE(conn.valid());
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                           &len),
              0);
    EXPECT_EQ(nodelay, 1) << "pipelined replies would wait on Nagle";
}

// ---------------------------------------------------------------------------
// Client-level deadlines and retries against real servers.

TEST(ClientDeadline, StalledServerBoundsEveryCall) {
    // A listener that accepts and then goes silent — the half-open peer.
    Fd listener;
    std::uint16_t port = 0;
    ASSERT_TRUE(tcp_listen("127.0.0.1", 0, listener, port).ok());
    std::thread accepter([fd = listener.get()] {
        const Fd conn{accept_retry(fd)};
        if (conn.valid()) {
            // Hold the connection open past the client's timeout.
            (void)::poll(nullptr, 0, 400);
        }
    });
    Client client{ClientConfig{.op_timeout_ms = 100, .max_attempts = 1}};
    ASSERT_TRUE(client.connect({{"127.0.0.1", port}}).ok());
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = client.ping();
    EXPECT_EQ(st.code, StatusCode::TimedOut) << st.to_string();
    EXPECT_LT(seconds_since(t0), 5.0)
        << "a stalled peer must never block the client forever";
    accepter.join();
}

TEST(ClientRetry, DroppedReplyFrameIsResentAfterTimeout) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client{ClientConfig{.op_timeout_ms = 200}};
    ASSERT_TRUE(client.connect({{"127.0.0.1", server.port()}}).ok());
    // The client discards the first reply it decodes; the op times out,
    // reconnects and resends under a fresh request id — invisibly.
    fail::ScopedFailPoint fp("net.client.drop_frame");
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(client.ping().ok());
    EXPECT_LT(seconds_since(t0), 10.0);
    EXPECT_TRUE(client.connected());
}

TEST(ClientRetry, InjectedResetIsRetriedTransparently) {
    // The reset fires in whichever io path crosses the site first (client
    // or server share the io layer in-process) — either way the client's
    // reconnect/resend machinery must carry the call to success.
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client;
    ASSERT_TRUE(client.connect({{"127.0.0.1", server.port()}}).ok());
    ASSERT_TRUE(client.ping().ok());  // warm the connection
    {
        fail::ScopedFailPoint fp("net.recv.reset");
        EXPECT_TRUE(client.ping().ok());
    }
    {
        fail::ScopedFailPoint fp("net.send.reset");
        EXPECT_TRUE(client.ping().ok());
    }
    {
        fail::ScopedFailPoint fp("net.recv.stall");
        Client bounded{ClientConfig{.op_timeout_ms = 150}};
        ASSERT_TRUE(
            bounded.connect({{"127.0.0.1", server.port()}}).ok());
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_TRUE(bounded.ping().ok());
        EXPECT_LT(seconds_since(t0), 10.0);
    }
}

TEST(ClientRetry, ConnectFailsOverDownTheEndpointList) {
    // A dead endpoint first in the list costs one refused connect, not the
    // call: the client walks the list until something answers.
    std::uint16_t dead_port = 0;
    {
        Fd listener;
        ASSERT_TRUE(
            tcp_listen("127.0.0.1", 0, listener, dead_port).ok());
    }  // closed again: connecting to dead_port is refused
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client;
    ASSERT_TRUE(client
                    .connect({{"127.0.0.1", dead_port},
                              {"127.0.0.1", server.port()}})
                    .ok());
    EXPECT_TRUE(client.ping().ok());

    // Mutations opened before a failover re-open transparently after it.
    RemoteGraph g;
    ASSERT_TRUE(client.open("g", g, 1).ok());
    ASSERT_TRUE(
        g.insert_edges(std::vector<Edge>{{0, 1, 1}}, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Hello: role/term/lag reporting and the known-term fence.

TEST(Hello, ReportsRoleTermDurableSeqAndLag) {
    TempDir dir;
    ScopedServer primary({.root = dir.path()});
    Client c;
    ASSERT_TRUE(c.connect({{"127.0.0.1", primary.port()}}).ok());
    RemoteGraph g;
    ASSERT_TRUE(c.open("g", g, 1).ok());
    ASSERT_TRUE(
        g.insert_edges(std::vector<Edge>{{0, 1, 1}}, nullptr).ok());
    HelloInfo info;
    ASSERT_TRUE(g.hello(info).ok());
    EXPECT_EQ(info.role, kRolePrimary);
    EXPECT_EQ(info.term, 0U);
    EXPECT_GE(info.durable_seq, 1U);
    EXPECT_EQ(info.lag_seqs, 0U);
    EXPECT_EQ(c.highest_term(), 0U);
}

TEST(Hello, HigherKnownTermFencesTheServer) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client writer;
    ASSERT_TRUE(writer.connect({{"127.0.0.1", server.port()}}).ok());
    RemoteGraph wg;
    ASSERT_TRUE(writer.open("g", wg, 1).ok());
    ASSERT_TRUE(
        wg.insert_edges(std::vector<Edge>{{0, 1, 1}}, nullptr).ok());

    // A client that has witnessed term 7 tells this term-0 server so; the
    // server must fence itself rather than keep accepting writes for a
    // history that has moved on.
    Client witness;
    witness.observe_term(7);
    ASSERT_TRUE(witness.connect({{"127.0.0.1", server.port()}}).ok());
    RemoteGraph vg;
    ASSERT_TRUE(witness.open("g", vg).ok());
    HelloInfo info;
    const Status fenced = vg.hello(info);
    EXPECT_FALSE(fenced.ok());
    EXPECT_EQ(fenced.detail,
              static_cast<std::uint64_t>(WireCode::StaleTerm));

    // The fence holds for everyone: the old writer's mutations refuse...
    const Status st =
        wg.insert_edges(std::vector<Edge>{{1, 2, 1}}, nullptr);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::StaleTerm));
    // ...and so do new subscriptions (no forked history may be shipped).
    Subscription sub;
    const Status sst = wg.subscribe(0, sub);
    EXPECT_FALSE(sst.ok());
    EXPECT_EQ(sst.detail,
              static_cast<std::uint64_t>(WireCode::StaleTerm));
    // Reads stay up — stale data is labeled, not hidden.
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    EXPECT_TRUE(wg.count(e, v).ok());
    EXPECT_EQ(e, 1U);

    // Promotion clears the fence and persists durably in the sidecar. (The
    // ratchet is against the graph's own durable term — a hearsay fence
    // does not adopt the claimed value; see DESIGN §16.)
    ASSERT_TRUE(server.server().promote_local("g", 8).ok());
    EXPECT_FALSE(server.server().promote_local("g", 8).ok())
        << "promotion must exceed the current term, not tie it";
    EXPECT_FALSE(server.server().promote_local("g", 3).ok());
    EXPECT_TRUE(
        wg.insert_edges(std::vector<Edge>{{1, 2, 1}}, nullptr).ok());
    HelloInfo after;
    ASSERT_TRUE(wg.hello(after).ok());
    EXPECT_EQ(after.term, 8U);
    std::uint64_t disk_term = 0;
    ASSERT_TRUE(
        recover::load_term(dir.path() + "/g", disk_term).ok());
    EXPECT_EQ(disk_term, 8U);
}

// ---------------------------------------------------------------------------
// Subscribe resume: a replica killed mid-stream reconnects from its durable
// ack floor and ends with a WAL whose record sequence is byte-for-byte the
// primary's — no gaps, no duplicates.

TEST(Replica, ResumeFromDurableFloorLeavesGoldenSeqSequence) {
    TempDir primary_dir;
    TempDir replica_dir;
    const auto seqs_of = [](const std::string& wal_path) {
        std::vector<std::pair<std::uint64_t, std::uint8_t>> seqs;
        recover::WalTailer tailer;
        EXPECT_TRUE(tailer.open(wal_path).ok());
        while (tailer.poll([&](const recover::WalRecord& rec) {
                   seqs.emplace_back(
                       rec.seq, static_cast<std::uint8_t>(rec.type));
               }) > 0) {
        }
        EXPECT_TRUE(tailer.status().ok());
        return seqs;
    };
    {
        ScopedServer primary({.root = primary_dir.path()});
        Client pc;
        ASSERT_TRUE(pc.connect({{"127.0.0.1", primary.port()}}).ok());
        RemoteGraph pg;
        ASSERT_TRUE(pc.open("g", pg, 1).ok());
        for (std::uint32_t i = 0; i < 6; ++i) {
            ASSERT_TRUE(
                pg.insert_edges(std::vector<Edge>{{i, i + 1, 1}}, nullptr)
                    .ok());
        }

        ServerOptions ro{.root = replica_dir.path()};
        ro.read_only = true;
        ScopedServer replica(ro);
        Server::LocalGraph local;
        ASSERT_TRUE(replica.server().open_local("g", local).ok());
        ReplicatorOptions ropts;
        ropts.port = primary.port();
        ropts.graph = "g";
        std::uint64_t mid_seq = 0;
        {
            // First life: catch up fully, then "die" (plain close).
            Replicator rep;
            ASSERT_TRUE(rep.start(ropts, local).ok());
            ASSERT_TRUE(rep.pump_until_current().ok());
            mid_seq = rep.applied_seq();
            EXPECT_GT(mid_seq, 0U);
        }
        // The primary moves on while the replica is down.
        for (std::uint32_t i = 6; i < 12; ++i) {
            ASSERT_TRUE(
                pg.insert_edges(std::vector<Edge>{{i, i + 1, 1}}, nullptr)
                    .ok());
        }
        {
            // Second life: resume must start at the durable floor — the
            // primary re-ships nothing below it, and the apply path skips
            // any overlap.
            Replicator rep;
            ASSERT_TRUE(rep.start(ropts, local).ok());
            ASSERT_TRUE(rep.pump_until_current().ok());
            EXPECT_GT(rep.applied_seq(), mid_seq);
        }
    }  // both servers down; WALs flushed and closed
    const auto golden = seqs_of(primary_dir.path() + "/g/wal.gtw");
    const auto mirrored = seqs_of(replica_dir.path() + "/g/wal.gtw");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(mirrored, golden)
        << "replica WAL must mirror the primary's seq/type sequence "
           "exactly across a resume — no gaps, no duplicates";
}

// ---------------------------------------------------------------------------
// Replica chains: B follows A follows the primary. B must catch up from
// A's WAL and keep receiving live frames A itself only just mirrored.

TEST(Replica, ChainReplicaOfReplicaCatchesUpAndFollowsLive) {
    TempDir p_dir;
    TempDir a_dir;
    TempDir b_dir;
    ScopedServer primary({.root = p_dir.path()});
    Client pc;
    ASSERT_TRUE(pc.connect({{"127.0.0.1", primary.port()}}).ok());
    RemoteGraph pg;
    ASSERT_TRUE(pc.open("g", pg, 1).ok());
    const std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
    ASSERT_TRUE(pg.insert_edges(chain, nullptr).ok());

    ServerOptions ao{.root = a_dir.path()};
    ao.read_only = true;
    ScopedServer mid(ao);
    Server::LocalGraph a_local;
    ASSERT_TRUE(mid.server().open_local("g", a_local).ok());
    Replicator rep_a;
    ReplicatorOptions a_opts;
    a_opts.port = primary.port();
    a_opts.graph = "g";
    a_opts.server = &mid.server();  // lag reporting + chain pumping
    ASSERT_TRUE(rep_a.start(a_opts, a_local).ok());
    ASSERT_TRUE(rep_a.pump_until_current().ok());

    ServerOptions bo{.root = b_dir.path()};
    bo.read_only = true;
    ScopedServer tail(bo);
    Server::LocalGraph b_local;
    ASSERT_TRUE(tail.server().open_local("g", b_local).ok());
    Replicator rep_b;
    ReplicatorOptions b_opts;
    b_opts.port = mid.port();  // B's upstream is A, not the primary
    b_opts.graph = "g";
    ASSERT_TRUE(rep_b.start(b_opts, b_local).ok());
    ASSERT_TRUE(rep_b.pump_until_current().ok());
    EXPECT_EQ(rep_b.applied_seq(), rep_a.applied_seq());

    // The tail of the chain answers reads with the primary's data.
    Client bc;
    ASSERT_TRUE(bc.connect({{"127.0.0.1", tail.port()}}).ok());
    RemoteGraph bg;
    ASSERT_TRUE(bc.open("g", bg).ok());
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(bg.count(e, v).ok());
    EXPECT_EQ(e, 3U);

    // Live flow: a fresh primary commit must reach B through A — A's
    // Replicator kicks A's loop (pump_graph) after each mirrored
    // frame, since the records never crossed A's request path.
    ASSERT_TRUE(
        pg.insert_edges(std::vector<Edge>{{3, 4, 1}}, nullptr).ok());
    ASSERT_TRUE(rep_a.pump_once().ok());
    ASSERT_TRUE(rep_b.pump_once().ok());
    ASSERT_TRUE(rep_b.pump_until_current().ok());
    EXPECT_EQ(rep_b.applied_seq(), rep_a.applied_seq());
    ASSERT_TRUE(bg.count(e, v).ok());
    EXPECT_EQ(e, 4U);

    rep_b.close();
    rep_a.close();
}

// ---------------------------------------------------------------------------
// The headline drill: primary SIGKILLed mid-ingest; the replica detects the
// loss via heartbeat, promotes itself under a bumped term, and an
// endpoint-list client finishes the torture workload against it. The old
// primary, resurrected, is fenced out with StaleTerm.

constexpr std::uint32_t kEdgesPerStep = 64;
constexpr std::uint32_t kVertices = 512;

TEST(Failover, ReplicaPromotesAndEndpointListClientFinishesWorkload) {
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
    std::uint16_t primary_port = 0;
    ASSERT_EQ(::read(port_pipe[0], &primary_port, sizeof(primary_port)),
              static_cast<ssize_t>(sizeof(primary_port)));
    ::close(port_pipe[0]);

    const std::uint64_t kSeed = 20260807;
    constexpr std::uint64_t kKillStep = 60;   // catch-up prefix ends here
    constexpr std::uint64_t kPauseStep = 80;  // live-followed, then drained
    constexpr std::uint64_t kTotalSteps = 120;
    std::uint64_t promoted_term = 0;
    {
        ServerOptions ro{.root = replica_dir.path()};
        ro.read_only = true;
        ScopedServer replica(ro);
        Server::LocalGraph local;
        ASSERT_TRUE(replica.server().open_local("crashme", local).ok());

        // The writer knows both endpoints; it starts on the primary and
        // must end on the replica without a single failed step.
        ClientConfig cfg;
        cfg.op_timeout_ms = 5'000;
        cfg.connect_timeout_ms = 1'000;
        cfg.max_attempts = 30;
        cfg.backoff_max_ms = 250;
        Client writer{cfg};
        ASSERT_TRUE(writer
                        .connect({{"127.0.0.1", primary_port},
                                  {"127.0.0.1", replica.port()}})
                        .ok());
        RemoteGraph g;
        ASSERT_TRUE(writer.open("crashme", g, 2).ok());  // fsync_batch
        const auto write_step = [&](std::uint64_t step) {
            const std::vector<Edge> batch = recover::torture_step_batch(
                kSeed, step, kEdgesPerStep, kVertices);
            return recover::torture_step_is_delete(step)
                       ? g.delete_edges(batch, nullptr)
                       : g.insert_edges(batch, nullptr);
        };
        for (std::uint64_t step = 0; step < kKillStep; ++step) {
            ASSERT_TRUE(write_step(step).ok());
        }

        Replicator rep;
        ReplicatorOptions ropts;
        ropts.port = primary_port;
        ropts.graph = "crashme";
        ropts.server = &replica.server();
        ASSERT_TRUE(rep.start(ropts, local).ok());
        ASSERT_TRUE(rep.pump_until_current().ok());
        ASSERT_EQ(rep.lag_seqs(), 0U);

        // The watcher is `gt replicate --promote-on-failure` in miniature:
        // follow with a heartbeat, and on stream loss promote under
        // term+1, durable-first, then open the write gate.
        std::thread watcher([&] {
            const Status run_st = rep.run(/*heartbeat_ms=*/100);
            EXPECT_FALSE(run_st.ok()) << "stream must die with the primary";
            const std::uint64_t new_term = rep.term() + 1;
            rep.close();  // reattaches the WAL as the graph's update log
            const Status pst =
                replica.server().promote_local("crashme", new_term);
            EXPECT_TRUE(pst.ok()) << pst.to_string();
            replica.server().set_read_only(false);
            promoted_term = new_term;
        });

        // Live following under the watcher: these steps ship while
        // rep.run() pumps on its own thread.
        for (std::uint64_t step = kKillStep; step < kPauseStep; ++step) {
            ASSERT_TRUE(write_step(step).ok());
        }

        // Replication is asynchronous: a step the primary acked but had not
        // yet shipped dies with it (DESIGN §16 documents the window). For
        // the exact-prefix check below the kill must land at lag 0, so
        // drain the pipeline first — the primary is idle, so equal durable
        // seqs on both ends mean the replica holds every acked step.
        {
            HelloInfo p_info;
            ASSERT_TRUE(g.hello(p_info).ok());
            Client probe;
            ASSERT_TRUE(
                probe.connect({{"127.0.0.1", replica.port()}}).ok());
            RemoteGraph pr;
            ASSERT_TRUE(probe.open("crashme", pr).ok());
            HelloInfo r_info;
            const auto t0 = std::chrono::steady_clock::now();
            for (;;) {
                ASSERT_TRUE(pr.hello(r_info).ok());
                if (r_info.durable_seq == p_info.durable_seq) {
                    break;
                }
                ASSERT_LT(seconds_since(t0), 30.0)
                    << "replica never caught up: " << r_info.durable_seq
                    << " vs " << p_info.durable_seq;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            EXPECT_EQ(r_info.role, kRoleReplica);
        }
        ASSERT_EQ(::kill(child, SIGKILL), 0);

        for (std::uint64_t step = kPauseStep; step < kTotalSteps; ++step) {
            const Status st = write_step(step);
            ASSERT_TRUE(st.ok())
                << "step " << step
                << " must survive the failover: " << st.to_string();
        }
        watcher.join();
        EXPECT_EQ(promoted_term, 1U);

        // The survivor answers Hello as a primary under the new term.
        HelloInfo info;
        ASSERT_TRUE(g.hello(info).ok());
        EXPECT_EQ(info.role, kRolePrimary);
        EXPECT_EQ(info.term, promoted_term);
    }  // replica server shuts down, closing the store cleanly
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    // Offline, the promoted store holds EXACTLY the full workload — every
    // step was acked to the writer, so nothing may be missing or extra.
    {
        recover::DurableStore store;
        recover::RecoveryInfo info;
        const Status st =
            store.open(replica_dir.path() + "/crashme", {}, &info);
        ASSERT_TRUE(st.ok()) << st.to_string();
        const recover::TortureVerdict verdict =
            recover::verify_torture_recovery(store.graph(), kSeed,
                                             kEdgesPerStep, kVertices);
        EXPECT_TRUE(verdict.ok) << verdict.detail;
        // A trailing delete step leaves no marker, so the checker may
        // attribute the final state to either hypothesis — but nothing
        // below the full workload is acceptable: every step was acked.
        EXPECT_GE(verdict.committed_steps, kTotalSteps - 1);
        store.close();
        std::uint64_t disk_term = 0;
        ASSERT_TRUE(
            recover::load_term(replica_dir.path() + "/crashme", disk_term)
                .ok());
        EXPECT_EQ(disk_term, promoted_term);
    }

    // Resurrect the old primary from its directory: a client that
    // witnessed the promotion must be refused with StaleTerm.
    {
        ScopedServer resurrected({.root = primary_dir.path()});
        Client witness;
        witness.observe_term(promoted_term);
        ASSERT_TRUE(
            witness.connect({{"127.0.0.1", resurrected.port()}}).ok());
        RemoteGraph og;
        ASSERT_TRUE(witness.open("crashme", og).ok());
        HelloInfo info;
        const Status st = og.hello(info);
        EXPECT_FALSE(st.ok())
            << "the resurrected old primary must be fenced";
        EXPECT_EQ(st.detail,
                  static_cast<std::uint64_t>(WireCode::StaleTerm));
    }
}

}  // namespace
}  // namespace gt::net

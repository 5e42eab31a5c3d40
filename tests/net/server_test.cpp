// gt serve end-to-end: a real Server on a real socket, exercised by the
// blocking Client and by raw byte streams. Covers the happy path (open /
// pipelined mutate / BFS with verified distances) through RemoteGraph
// session handles, the robustness matrix (malformed frames, garbage bytes,
// half-open disconnects), backpressure shedding, durable recovery across
// server restarts, reply-id pairing (out-of-order buffering, stale-reply
// rejection), mixed writer + reader-pool traffic under TSan, BFS/SSSP
// roots past the vertex bound, the option bounds start() enforces, stop
// before run, read-only refusal, and — via fork + SIGKILL — the crash
// contract: a server killed mid-batch leaves a directory that recovers
// exactly the committed prefix.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/scoped_server.hpp"
#include "recover/durable.hpp"
#include "recover/torture.hpp"
#include "recover/recover_test_util.hpp"

namespace gt::net {
namespace {

using test::ScopedServer;
using test::TempDir;

[[nodiscard]] Client connect_to(std::uint16_t port) {
    Client c;
    const Status st = c.connect("127.0.0.1", port);
    EXPECT_TRUE(st.ok()) << st.to_string();
    return c;
}

TEST(Server, PingAndEcho) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client = connect_to(server.port());
    ASSERT_TRUE(client.ping().ok());
    const unsigned char blob[] = {0, 1, 2, 255, 254};
    ASSERT_TRUE(client.ping(blob).ok());
}

TEST(Server, EndToEndMutateAndQuery) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client = connect_to(server.port());

    RemoteGraph g1;
    ASSERT_TRUE(client.open("g1", g1).ok());
    EXPECT_EQ(g1.recovery_source(),
              static_cast<std::uint8_t>(
                  recover::RecoveryInfo::Source::Fresh));

    // A directed path 0→1→2→3 plus a shortcut 0→4; distances are known.
    const std::vector<Edge> edges = {
        {0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 4, 1}};
    std::uint64_t count = 0;
    ASSERT_TRUE(g1.insert_edges(edges, &count).ok());
    EXPECT_EQ(count, 4U);

    std::uint64_t deg = 0;
    ASSERT_TRUE(g1.degree_of(0, deg).ok());
    EXPECT_EQ(deg, 2U);

    std::vector<std::pair<VertexId, Weight>> nbrs;
    ASSERT_TRUE(g1.neighbors(0, nbrs).ok());
    EXPECT_EQ(nbrs.size(), 2U);

    const std::vector<VertexId> targets = {0, 1, 2, 3, 4, 9};
    std::vector<std::uint32_t> dist;
    ASSERT_TRUE(g1.bfs_distances(0, targets, dist).ok());
    const std::vector<std::uint32_t> expected = {0, 1, 2, 3, 1,
                                                 kInfDistance};
    EXPECT_EQ(dist, expected);

    std::vector<std::uint32_t> sdist;
    ASSERT_TRUE(g1.sssp(0, targets, sdist).ok());
    EXPECT_EQ(sdist[3], 3U);  // unit weights: same as hops

    std::vector<std::uint32_t> labels;
    ASSERT_TRUE(g1.cc({targets.data(), 5}, labels).ok());
    // All five vertices hang off root 0 in the directed propagation.
    for (const std::uint32_t label : labels) {
        EXPECT_EQ(label, labels[0]);
    }

    // Deleting the shortcut pushes 4 out of reach.
    const std::vector<Edge> del = {{0, 4, 1}};
    ASSERT_TRUE(g1.delete_edges(del, &count).ok());
    EXPECT_EQ(count, 3U);
    ASSERT_TRUE(g1.bfs_distances(0, targets, dist).ok());
    EXPECT_EQ(dist[4], kInfDistance);

    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(g1.count(e, v).ok());
    EXPECT_EQ(e, 3U);
    EXPECT_EQ(v, 5U);

    std::string json;
    ASSERT_TRUE(g1.stats_json(json).ok());
    EXPECT_NE(json.find("gt.obs.v1"), std::string::npos);

    ASSERT_TRUE(g1.checkpoint_now().ok());
    ASSERT_TRUE(g1.sync_wal().ok());
}

TEST(Server, PipelinedRequestsPairById) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client = connect_to(server.port());
    RemoteGraph graph;
    ASSERT_TRUE(client.open("p", graph, 0).ok());

    // Stack 32 insert requests before draining a single reply.
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < 32; ++i) {
        PayloadWriter w;
        w.str("p");
        const Edge e{i, i + 1, 1};
        w.edges({&e, 1});
        std::uint64_t id = 0;
        ASSERT_TRUE(
            client
                .send_request(MsgType::InsertBatch, w.span(), id)
                .ok());
        ids.push_back(id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Frame reply;
        ASSERT_TRUE(client.recv_reply(reply).ok());
        EXPECT_EQ(reply.request_id, ids[i]) << "reply order broke";
        EXPECT_EQ(reply.type,
                  static_cast<std::uint8_t>(MsgType::InsertBatch) |
                      kResponseBit);
    }
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(graph.count(e, v).ok());
    EXPECT_EQ(e, 32U);
}

// ---------------------------------------------------------------------------
// Reply-id pairing: the client must match replies deterministically — out of
// order is fine (async reads reorder), an id it never sent is a protocol
// violation that closes the connection. A hand-rolled one-connection "server"
// lets the test control reply order exactly.

/// Accepts one connection and runs `script(fd)` on it.
class FakeServer {
public:
    explicit FakeServer(std::function<void(int)> script) {
        Status st = tcp_listen("127.0.0.1", 0, listen_, port_);
        EXPECT_TRUE(st.ok()) << st.to_string();
        thread_ = std::thread([this, script = std::move(script)] {
            const Fd conn{accept_retry(listen_.get())};
            if (!conn.valid()) {
                return;
            }
            script(conn.get());
        });
    }
    ~FakeServer() { thread_.join(); }
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

private:
    Fd listen_;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

/// Appends exactly `n` request frames to `out`. `buf` carries undecoded
/// bytes across calls — TCP happily coalesces pipelined frames, so a later
/// request may already sit behind an earlier one in the same recv.
void drain_requests(int fd, std::size_t n, std::vector<Frame>& out,
                    std::vector<unsigned char>& buf) {
    const std::size_t want = out.size() + n;
    while (out.size() < want) {
        for (; out.size() < want;) {
            Frame f;
            std::size_t consumed = 0;
            DecodeError err;
            if (decode_frame(buf, f, consumed, err) != DecodeResult::Ok) {
                break;
            }
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(consumed));
            out.push_back(std::move(f));
        }
        if (out.size() >= want) {
            return;
        }
        unsigned char chunk[4096];
        std::size_t got = 0;
        if (recv_some(fd, chunk, sizeof(chunk), got) != IoResult::Ok) {
            return;
        }
        buf.insert(buf.end(), chunk, chunk + got);
    }
}

void send_pong(int fd, std::uint64_t request_id) {
    std::vector<unsigned char> out;
    encode_frame(out,
                 static_cast<std::uint8_t>(MsgType::Ping) | kResponseBit,
                 request_id, {});
    EXPECT_TRUE(send_all(fd, out).ok());
}

TEST(Client, OutOfOrderRepliesBufferForTheirRequester) {
    FakeServer fake([](int fd) {
        std::vector<Frame> reqs;
        std::vector<unsigned char> buf;
        drain_requests(fd, 2, reqs, buf);
        ASSERT_EQ(reqs.size(), 2U);
        // Answer the SECOND request first; the first reply arrives while
        // the client is blocked inside ping() (round_trip on a 3rd id).
        send_pong(fd, reqs[1].request_id);
        drain_requests(fd, 1, reqs, buf);
        ASSERT_EQ(reqs.size(), 3U);
        send_pong(fd, reqs[0].request_id);
        send_pong(fd, reqs[2].request_id);
    });
    Client client = connect_to(fake.port());
    std::uint64_t id_a = 0;
    std::uint64_t id_b = 0;
    ASSERT_TRUE(client.send_request(MsgType::Ping, {}, id_a).ok());
    ASSERT_TRUE(client.send_request(MsgType::Ping, {}, id_b).ok());
    // round_trip(id_c) must skip past the buffered replies to a and b and
    // still complete — and the buffered replies stay claimable.
    ASSERT_TRUE(client.ping().ok());
    Frame f;
    ASSERT_TRUE(client.recv_reply(f).ok());
    EXPECT_EQ(f.request_id, id_b);  // arrival order: b was sent first
    ASSERT_TRUE(client.recv_reply(f).ok());
    EXPECT_EQ(f.request_id, id_a);
}

TEST(Client, StaleReplyIdClosesTheConnection) {
    FakeServer fake([](int fd) {
        std::vector<Frame> reqs;
        std::vector<unsigned char> buf;
        drain_requests(fd, 1, reqs, buf);
        ASSERT_EQ(reqs.size(), 1U);
        send_pong(fd, reqs[0].request_id + 777);  // an id never issued
    });
    Client client = connect_to(fake.port());
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send_request(MsgType::Ping, {}, id).ok());
    Frame f;
    const Status st = client.recv_reply(f);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message.find("stale"), std::string::npos)
        << st.to_string();
    EXPECT_FALSE(client.connected());
}

TEST(Server, ErrorsForBadRequests) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client = connect_to(server.port());

    // Graph-scoped op before OpenGraph (raw frame: a RemoteGraph handle can
    // only exist after a successful open).
    PayloadWriter unknown;
    unknown.str("nope");
    unknown.u32(1);
    std::uint64_t id = 0;
    ASSERT_TRUE(
        client.send_request(MsgType::Degree, unknown.span(), id).ok());
    Frame reply;
    Status st = client.recv_reply(reply);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::UnknownGraph));

    // Path-traversal name.
    RemoteGraph g;
    st = client.open("../evil", g);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail,
              static_cast<std::uint64_t>(WireCode::BadGraphName));

    // Bad durability byte.
    st = client.open("ok-name", g, 7);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::BadPayload));

    // Truncated payload for the declared type.
    const unsigned char junk[] = {3, 0, 'a'};  // name_len=3 but 1 byte
    ASSERT_TRUE(client.send_request(MsgType::Degree, junk, id).ok());
    st = client.recv_reply(reply);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::BadPayload));

    // Unknown message type.
    ASSERT_TRUE(client.ping().ok());  // still alive after all of the above
}

TEST(Server, GarbageBytesGetErrorThenClose) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Fd fd;
    ASSERT_TRUE(tcp_connect("127.0.0.1", server.port(), fd).ok());
    // 64 bytes of noise whose length field is plausible (so the size guard
    // does not classify it first) but whose crc cannot match.
    std::vector<unsigned char> noise(64, 0xA5);
    const std::uint32_t small_len = 4;
    std::memcpy(noise.data() + 4, &small_len, sizeof(small_len));
    ASSERT_TRUE(send_all(fd.get(), noise).ok());
    // The server must answer with exactly one error frame, then close.
    std::vector<unsigned char> buf;
    unsigned char chunk[4096];
    for (;;) {
        std::size_t n = 0;
        const IoResult got = recv_some(fd.get(), chunk, sizeof(chunk), n);
        if (got == IoResult::Ok) {
            buf.insert(buf.end(), chunk, chunk + n);
            continue;
        }
        ASSERT_EQ(got, IoResult::Closed) << "server neither replied nor "
                                            "closed";
        break;
    }
    Frame f;
    std::size_t consumed = 0;
    DecodeError err;
    ASSERT_EQ(decode_frame(buf, f, consumed, err), DecodeResult::Ok);
    EXPECT_EQ(f.type, kErrorType);
    PayloadReader r(f.payload);
    EXPECT_EQ(static_cast<WireCode>(r.u16()), WireCode::BadFrame);
    EXPECT_EQ(consumed, buf.size()) << "more than one frame after garbage";
}

TEST(Server, OversizedFrameHeaderRejected) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Fd fd;
    ASSERT_TRUE(tcp_connect("127.0.0.1", server.port(), fd).ok());
    // Hand-build a header announcing a 512MiB payload. The crc is garbage,
    // but the length check must fire first — the server must reject
    // immediately rather than waiting for half a gigabyte.
    std::vector<unsigned char> header(kFrameHeaderBytes, 0);
    const std::uint32_t huge = 512U << 20;
    std::memcpy(header.data() + 4, &huge, sizeof(huge));
    header[8] = kProtoVersion;
    header[9] = static_cast<unsigned char>(MsgType::Ping);
    ASSERT_TRUE(send_all(fd.get(), header).ok());
    std::vector<unsigned char> buf;
    unsigned char chunk[4096];
    for (;;) {
        std::size_t n = 0;
        const IoResult got = recv_some(fd.get(), chunk, sizeof(chunk), n);
        if (got != IoResult::Ok) {
            ASSERT_EQ(got, IoResult::Closed);
            break;
        }
        buf.insert(buf.end(), chunk, chunk + n);
    }
    Frame f;
    std::size_t consumed = 0;
    DecodeError err;
    ASSERT_EQ(decode_frame(buf, f, consumed, err), DecodeResult::Ok);
    EXPECT_EQ(f.type, kErrorType);
    PayloadReader r(f.payload);
    EXPECT_EQ(static_cast<WireCode>(r.u16()), WireCode::TooLarge);
}

TEST(Server, HalfFrameThenDisconnectIsHarmless) {
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    {
        Fd fd;
        ASSERT_TRUE(tcp_connect("127.0.0.1", server.port(), fd).ok());
        const unsigned char partial[] = {0x12, 0x34, 0x56};
        ASSERT_TRUE(send_all(fd.get(), partial).ok());
    }  // abrupt close with a truncated frame in flight
    // Server survives and serves the next client.
    Client client = connect_to(server.port());
    EXPECT_TRUE(client.ping().ok());
}

TEST(Server, BackpressureShedsRetryableBusy) {
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.max_wbuf_bytes = 64 * 1024;  // shed once 64KiB is unflushed
    options.max_inflight = 100000;       // isolate the byte cap
    ScopedServer server(options);

    Client client = connect_to(server.port());
    // Pipeline many large pings without reading a single reply: the echo
    // responses jam the server's write buffer past the cap (the kernel
    // socket buffers absorb only so much), so later requests must shed.
    const std::vector<unsigned char> big(64 * 1024, 0x42);
    const int kRequests = 100;
    for (int i = 0; i < kRequests; ++i) {
        std::uint64_t id = 0;
        ASSERT_TRUE(client.send_request(MsgType::Ping, big, id).ok());
    }
    int ok = 0;
    int busy = 0;
    for (int i = 0; i < kRequests; ++i) {
        Frame reply;
        const Status st = client.recv_reply(reply);
        if (st.ok()) {
            ++ok;
        } else {
            ASSERT_EQ(st.detail,
                      static_cast<std::uint64_t>(WireCode::Busy))
                << st.to_string();
            ++busy;
        }
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(busy, 0) << "no shedding under a 6.4MB pipelined burst";
    // The connection survives shedding; a fresh request succeeds.
    EXPECT_TRUE(client.ping().ok());
}

TEST(Server, DurableAcrossServerRestart) {
    TempDir dir;
    {
        ScopedServer server({.root = dir.path()});
        Client client = connect_to(server.port());
        RemoteGraph g;
        ASSERT_TRUE(client.open("persist", g, 1).ok());
        const std::vector<Edge> edges = {{1, 2, 5}, {2, 3, 7}};
        ASSERT_TRUE(g.insert_edges(edges, nullptr).ok());
        ASSERT_TRUE(g.checkpoint_now().ok());
    }  // graceful stop closes the store, flushing the WAL
    {
        ScopedServer server({.root = dir.path()});
        Client client = connect_to(server.port());
        RemoteGraph g;
        ASSERT_TRUE(client.open("persist", g, 1).ok());
        EXPECT_EQ(g.recovery_source(),
                  static_cast<std::uint8_t>(
                      recover::RecoveryInfo::Source::Snapshot));
        std::uint64_t e = 0;
        std::uint64_t v = 0;
        ASSERT_TRUE(g.count(e, v).ok());
        EXPECT_EQ(e, 2U);
    }
}

TEST(Server, ReadOnlyModeRefusesMutations) {
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.read_only = true;
    ScopedServer server(options);
    Client client = connect_to(server.port());
    RemoteGraph g;
    ASSERT_TRUE(client.open("ro", g).ok());  // opening is fine
    const std::vector<Edge> edges = {{0, 1, 1}};
    const Status st = g.insert_edges(edges, nullptr);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.detail, static_cast<std::uint64_t>(WireCode::ReadOnly));
    // Reads still work.
    std::uint64_t deg = 99;
    EXPECT_TRUE(g.degree_of(0, deg).ok());
    EXPECT_EQ(deg, 0U);
}

TEST(Server, MultiClientConcurrentTraffic) {
    // Four client threads hammering one server: two mutating their own
    // graphs, two running queries against a shared one. Sized to finish
    // under TSan; the assertion is freedom from races (server is single-
    // threaded, but start/stop/port cross threads) and per-client
    // linearity of results.
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    {
        Client setup = connect_to(server.port());
        RemoteGraph shared;
        ASSERT_TRUE(setup.open("shared", shared, 0).ok());
        const std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}};
        ASSERT_TRUE(shared.insert_edges(chain, nullptr).ok());
    }
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            Client c = connect_to(server.port());
            const std::string mine = "writer" + std::to_string(t);
            RemoteGraph g;
            if (!c.open(mine, g, 0).ok()) {
                ++failures;
                return;
            }
            for (std::uint32_t i = 0; i < 50; ++i) {
                const Edge e{i, i + 1, 1};
                std::uint64_t count = 0;
                if (!g.insert_edges({&e, 1}, &count).ok() ||
                    count != i + 1) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            Client c = connect_to(server.port());
            RemoteGraph g;
            if (!c.open("shared", g, 0).ok()) {
                ++failures;
                return;
            }
            for (int i = 0; i < 50; ++i) {
                std::uint64_t deg = 0;
                if (!g.degree_of(0, deg).ok() || deg != 1) {
                    ++failures;
                    return;
                }
                const std::vector<VertexId> targets = {2};
                std::vector<std::uint32_t> dist;
                if (!g.bfs_distances(0, targets, dist).ok() ||
                    dist[0] != 2) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    EXPECT_EQ(failures.load(), 0);
}

TEST(Server, ReaderPoolMixedTraffic) {
    // A 2-thread reader pool, 4 writer clients + 4 reader clients, ALL on
    // the same graph: queries fan out to the reader pool under shared
    // locks, so a mutation that finds the lock held joins the deferred
    // FIFO until a reader's Done drains it, while queued reads park behind
    // it. Deferred mutations must interleave without losing ops. TSan
    // covers the loop/pool handoffs; the final edge count covers
    // lost-update bugs, and net.deferred_ops shows the deferral ran.
    constexpr std::uint32_t kFan = std::uint32_t{1} << 17;
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.reader_threads = 2;
    ScopedServer server(options);
    {
        Client setup = connect_to(server.port());
        RemoteGraph g;
        ASSERT_TRUE(setup.open("hot", g, 0).ok());
        // 0 -> 1 -> 2, then a fan of kFan leaves out of 2 past every
        // writer's range: each BFS walks the fan, so a reader holds the
        // lock long enough for mutations to queue behind it. Pinned to one
        // CPU, 10 of 20 runs deferred nothing with 4096 leaves, 7 of 30
        // with 2^16, and none of 60 with 2^17 (each deferred 4-22 ops).
        std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}};
        for (std::uint32_t i = 0; i < kFan; ++i) {
            chain.push_back({2, 100000 + i, 1});
        }
        ASSERT_TRUE(g.insert_edges(chain, nullptr).ok());
    }
    constexpr std::uint32_t kWriters = 4;
    constexpr std::uint32_t kOpsPerWriter = 40;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (std::uint32_t t = 0; t < kWriters; ++t) {
        threads.emplace_back([&, t] {
            Client c = connect_to(server.port());
            RemoteGraph g;
            if (!c.open("hot", g, 0).ok()) {
                ++failures;
                return;
            }
            for (std::uint32_t i = 0; i < kOpsPerWriter; ++i) {
                // Distinct vertex ranges per writer: no edge collides, so
                // the final count is exact.
                const Edge e{1000 + t * 1000 + i, 1000 + t * 1000 + i + 1,
                             1};
                if (!g.insert_edges({&e, 1}, nullptr).ok()) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            Client c = connect_to(server.port());
            RemoteGraph g;
            if (!c.open("hot", g, 0).ok()) {
                ++failures;
                return;
            }
            for (int i = 0; i < 40; ++i) {
                std::uint64_t deg = 0;
                if (!g.degree_of(0, deg).ok() || deg != 1) {
                    ++failures;
                    return;
                }
                const std::vector<VertexId> targets = {2};
                std::vector<std::uint32_t> dist;
                if (!g.bfs_distances(0, targets, dist).ok() ||
                    dist[0] != 2) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    EXPECT_EQ(failures.load(), 0);
    Client check = connect_to(server.port());
    RemoteGraph g;
    ASSERT_TRUE(check.open("hot", g, 0).ok());
    std::uint64_t e = 0;
    std::uint64_t v = 0;
    ASSERT_TRUE(g.count(e, v).ok());
    EXPECT_EQ(e, 2U + kFan + kWriters * kOpsPerWriter);
    EXPECT_GT(server.server().obs().counter("net.deferred_ops").value(), 0U);
}

TEST(Server, BfsAndSsspFromRootPastTheVertexBound) {
    // A root the store has never seen reaches only itself. Root 2^32 - 1
    // used to wrap the engine's array size to 0 and crash the server, so
    // the same server must still answer a ping afterwards.
    TempDir dir;
    ScopedServer server({.root = dir.path()});
    Client client = connect_to(server.port());
    RemoteGraph g;
    ASSERT_TRUE(client.open("g", g, 0).ok());
    const std::vector<Edge> chain = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
    ASSERT_TRUE(g.insert_edges(chain, nullptr).ok());
    std::uint64_t edges = 0;
    std::uint64_t vertices = 0;
    ASSERT_TRUE(g.count(edges, vertices).ok());
    const auto past = static_cast<VertexId>(vertices + 5);
    const std::vector<std::uint32_t> want = {0, kInfDistance, kInfDistance};
    for (const VertexId root : {kInvalidVertex, past}) {
        const std::vector<VertexId> targets = {root, 0, 3};
        std::vector<std::uint32_t> dist;
        ASSERT_TRUE(g.bfs_distances(root, targets, dist).ok()) << root;
        EXPECT_EQ(dist, want) << root;
        ASSERT_TRUE(g.sssp(root, targets, dist).ok()) << root;
        EXPECT_EQ(dist, want) << root;
    }
    EXPECT_TRUE(client.ping().ok());
}

TEST(Server, StartRefusesMoreThanOneLoop) {
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.loop_threads = 4;
    Server server;
    EXPECT_EQ(server.start(options).code, StatusCode::InvalidArgument);
}

TEST(Server, StartRefusesOversizedReaderPool) {
    // start() spawns no thread, so this asks for no thread either.
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.reader_threads = std::size_t{1} << 20;
    Server server;
    EXPECT_EQ(server.start(options).code, StatusCode::InvalidArgument);
}

TEST(Server, StopBeforeRunReturnsOk) {
    // The stop request lands on the loop's self-pipe before the loop
    // exists; run() must still see it and return instead of serving.
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.reader_threads = 1;
    Server server;
    ASSERT_TRUE(server.start(options).ok());
    server.stop();
    const auto begin = std::chrono::steady_clock::now();
    const Status st = server.run();
    EXPECT_TRUE(st.ok()) << st.to_string();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(5));
}

TEST(Server, ConnectionCapShedsExtraClients) {
    TempDir dir;
    ServerOptions options{.root = dir.path()};
    options.max_conns = 2;
    ScopedServer server(options);
    Client a = connect_to(server.port());
    Client b = connect_to(server.port());
    ASSERT_TRUE(a.ping().ok());
    ASSERT_TRUE(b.ping().ok());
    // The third connection gets a best-effort Busy frame and a close.
    Fd fd;
    ASSERT_TRUE(tcp_connect("127.0.0.1", server.port(), fd).ok());
    std::vector<unsigned char> buf;
    unsigned char chunk[1024];
    for (;;) {
        std::size_t n = 0;
        const IoResult got = recv_some(fd.get(), chunk, sizeof(chunk), n);
        if (got != IoResult::Ok) {
            break;
        }
        buf.insert(buf.end(), chunk, chunk + n);
    }
    Frame f;
    std::size_t consumed = 0;
    DecodeError err;
    ASSERT_EQ(decode_frame(buf, f, consumed, err), DecodeResult::Ok);
    EXPECT_EQ(f.type, kErrorType);
    PayloadReader r(f.payload);
    EXPECT_EQ(static_cast<WireCode>(r.u16()), WireCode::Busy);
    // Earlier clients are unaffected.
    EXPECT_TRUE(a.ping().ok());
}

// ---------------------------------------------------------------------------
// Crash contract: SIGKILL the serving *process* mid-batch-stream, then
// recover the graph directory offline. The committed prefix — and nothing
// else — must come back (the WAL recovery contract carried over the wire).

constexpr std::uint32_t kCrashEdgesPerStep = 64;
constexpr std::uint32_t kCrashVertices = 512;

TEST(Server, KilledMidBatchRecoversCommittedPrefix) {
    TempDir dir;
    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Server process. No gtest asserts in here — report through the
        // exit code only, and leave via _exit so no parent state unwinds.
        ::close(port_pipe[0]);
        Server server;
        if (!server.start({.root = dir.path()}).ok()) {
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
    RemoteGraph crashme;
    ASSERT_TRUE(client.open("crashme", crashme, 2).ok());  // fsync_batch
    // Stream torture batches; SIGKILL the server in the middle of the run
    // with requests still in flight.
    std::uint64_t step = 0;
    for (; step < 200; ++step) {
        const std::vector<Edge> batch = recover::torture_step_batch(
            kSeed, step, kCrashEdgesPerStep, kCrashVertices);
        const Status st =
            recover::torture_step_is_delete(step)
                ? crashme.delete_edges(batch, nullptr)
                : crashme.insert_edges(batch, nullptr);
        if (step == 150) {
            ASSERT_EQ(::kill(child, SIGKILL), 0);
        }
        if (!st.ok()) {
            break;  // the kill landed mid-conversation
        }
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // Offline recovery of the graph directory the dead server left behind.
    recover::DurableStore store;
    recover::RecoveryInfo info;
    const Status st =
        store.open(dir.path() + "/crashme", {}, &info);
    ASSERT_TRUE(st.ok()) << st.to_string();
    const recover::TortureVerdict verdict =
        recover::verify_torture_recovery(store.graph(), kSeed,
                                         kCrashEdgesPerStep,
                                         kCrashVertices);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
    store.close();
}

}  // namespace
}  // namespace gt::net

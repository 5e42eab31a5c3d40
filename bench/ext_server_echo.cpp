// Extension bench (no paper figure): gt serve wire-protocol overhead.
// Emits BENCH_server_echo.json.
//
// Spins a Server on 127.0.0.1 (ephemeral port, tmpdir root) and measures,
// from clients on the same host:
//
//   rtt_us              sequential ping round-trip latency
//   pipelined_rps       pings/sec with `depth` requests in flight on one
//                       connection — the pipelining win the request-id
//                       design pays for
//   pipelined_rps_4conn aggregate pings/sec from 4 concurrent pipelining
//                       connections sharing the server's one event loop
//   wire_ingest_eps     insert_edges edges/sec through socket + WAL
//   local_ingest_eps    the same stream into a local DurableStore — the
//                       denominator isolating wire + loop overhead
//
// Wire and local ingest run through ONE code path: ingest_stream() is a
// template over net::RemoteGraph and recover::DurableStore, whose verbs
// share names and signatures, and the two edge counts must agree.
//
// Flags / env:
//   --out=PATH           JSON output path (default BENCH_server_echo.json)
//   --check              require wire_ingest_eps >= 10% of local
//   GT_SERVER_EDGES      stream length (default 500000)
//   GT_SERVER_PINGS      ping count per mode (default 2000)
//   GT_SERVER_DEPTH      pipeline depth (default 64)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hpp"
#include "gen/rmat.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "recover/durable.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace {

using namespace gt;

std::string make_temp_root() {
    std::string tmpl = "/tmp/gt_server_bench.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
        std::perror("mkdtemp");
        std::exit(1);
    }
    return tmpl;
}

/// The shared ingest path over a local store or a wire handle.
template <typename Graph>
Status ingest_stream(Graph& graph, std::span<const Edge> stream,
                     std::size_t batch) {
    for (std::size_t off = 0; off < stream.size(); off += batch) {
        const std::size_t n = std::min(batch, stream.size() - off);
        if (const Status st =
                graph.insert_edges(stream.subspan(off, n), nullptr);
            !st.ok()) {
            return st;
        }
    }
    return Status::success();
}

/// One pipelined-ping client loop; returns false on any wire failure.
bool pipelined_pings(net::Client& client, std::size_t num_pings,
                     std::size_t depth) {
    const unsigned char probe[8] = {};
    std::size_t sent = 0;
    std::size_t received = 0;
    while (received < num_pings) {
        while (sent < num_pings && sent - received < depth) {
            std::uint64_t id = 0;
            if (!client.send_request(net::MsgType::Ping, probe, id).ok()) {
                return false;
            }
            ++sent;
        }
        net::Frame reply;
        if (!client.recv_reply(reply).ok()) {
            return false;
        }
        ++received;
    }
    return true;
}

/// Aggregate pings/sec from `num_clients` concurrent connections, each
/// pipelining `num_pings` requests. 0.0 on failure.
double measure_multi_client(std::uint16_t port, std::size_t num_clients,
                            std::size_t num_pings, std::size_t depth) {
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(num_clients);
    Timer timer;
    for (std::size_t c = 0; c < num_clients; ++c) {
        threads.emplace_back([&] {
            net::Client client;
            if (!client.connect("127.0.0.1", port).ok() ||
                !pipelined_pings(client, num_pings, depth)) {
                failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    if (failed.load(std::memory_order_relaxed)) {
        return 0.0;
    }
    return static_cast<double>(num_clients * num_pings) / timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args =
        bench::parse_bench_args(argc, argv, "BENCH_server_echo.json");
    if (!args.ok) {
        return 2;
    }
    const std::size_t num_edges = env_u64("GT_SERVER_EDGES", 500000);
    const std::size_t num_pings = env_u64("GT_SERVER_PINGS", 2000);
    const std::size_t depth = env_u64("GT_SERVER_DEPTH", 64);
    const unsigned cores = std::thread::hardware_concurrency();
    bench::banner("ext: server echo",
                  "gt.net.v1 round-trip latency, pipelined throughput "
                  "and wire-vs-local ingest");

    const std::string root = make_temp_root();
    const std::size_t kClients = 4;
    double pipelined_4conn = 0.0;
    double rtt_us = 0.0;
    double pipelined_rps = 0.0;
    double wire_eps = 0.0;
    std::uint64_t wire_edges = 0;

    {
        net::Server server;
        net::ServerOptions options;
        options.root = root;
        options.max_inflight = depth * 2;
        if (const Status st = server.start(options); !st.ok()) {
            std::fprintf(stderr, "start: %s\n", st.to_string().c_str());
            return 1;
        }
        std::thread loop([&server] { (void)server.run(); });

        net::Client client;
        if (const Status st = client.connect("127.0.0.1", server.port());
            !st.ok()) {
            std::fprintf(stderr, "connect: %s\n", st.to_string().c_str());
            return 1;
        }

        // --- sequential ping RTT -------------------------------------------
        const unsigned char probe[8] = {};
        Timer timer;
        for (std::size_t i = 0; i < num_pings; ++i) {
            if (!client.ping(probe).ok()) {
                std::fprintf(stderr, "ping failed\n");
                return 1;
            }
        }
        rtt_us = timer.seconds() * 1e6 / static_cast<double>(num_pings);

        // --- pipelined ping throughput, one connection ---------------------
        timer.reset();
        if (!pipelined_pings(client, num_pings, depth)) {
            std::fprintf(stderr, "pipelined pings failed\n");
            return 1;
        }
        pipelined_rps = static_cast<double>(num_pings) / timer.seconds();

        // --- pipelined ping throughput, 4 connections ----------------------
        pipelined_4conn =
            measure_multi_client(server.port(), kClients, num_pings, depth);
        if (pipelined_4conn == 0.0) {
            std::fprintf(stderr, "multi-client pings failed\n");
            return 1;
        }

        // --- wire ingest through the shared ingest path -------------------
        const std::vector<Edge> stream = rmat_edges(
            1U << 16, static_cast<EdgeCount>(num_edges), 42);
        net::RemoteGraph remote;
        if (!client.open("bench", remote, 1).ok()) {
            std::fprintf(stderr, "open failed\n");
            return 1;
        }
        timer.reset();
        if (const Status st = ingest_stream(remote, stream, 10000);
            !st.ok()) {
            std::fprintf(stderr, "wire ingest failed: %s\n",
                         st.to_string().c_str());
            return 1;
        }
        wire_eps = static_cast<double>(stream.size()) / timer.seconds();
        std::uint64_t wire_vertices = 0;
        if (!remote.count(wire_edges, wire_vertices).ok()) {
            std::fprintf(stderr, "wire count failed\n");
            return 1;
        }

        server.stop();
        loop.join();
    }

    // --- local baseline: same stream, same durability, same code path ------
    const std::vector<Edge> stream = rmat_edges(
        1U << 16, static_cast<EdgeCount>(num_edges), 42);
    const std::string local_dir = root + "/local-baseline";
    recover::DurableStore store;
    if (const Status st = store.open(local_dir, {}, nullptr); !st.ok()) {
        std::fprintf(stderr, "local open: %s\n", st.to_string().c_str());
        return 1;
    }
    Timer timer;
    if (const Status st = ingest_stream(store, stream, 10000); !st.ok()) {
        std::fprintf(stderr, "local ingest failed: %s\n",
                     st.to_string().c_str());
        return 1;
    }
    const double local_eps =
        static_cast<double>(stream.size()) / timer.seconds();
    std::uint64_t local_edges = 0;
    std::uint64_t local_vertices = 0;
    if (!store.count(local_edges, local_vertices).ok()) {
        std::fprintf(stderr, "local count failed\n");
        return 1;
    }
    store.close();

    if (wire_edges != local_edges) {
        std::fprintf(stderr,
                     "FAIL: wire and local ingest paths disagree "
                     "(%llu vs %llu edges)\n",
                     static_cast<unsigned long long>(wire_edges),
                     static_cast<unsigned long long>(local_edges));
        return 1;
    }

    const double wire_ratio = local_eps > 0 ? wire_eps / local_eps : 0.0;
    std::printf("rtt: %.1f us  pipelined: %.0f rps  4-conn: %.0f rps  "
                "wire: %.2f Meps  local: %.2f Meps  ratio: %.2f\n",
                rtt_us, pipelined_rps, pipelined_4conn, wire_eps / 1e6,
                local_eps / 1e6, wire_ratio);

    {
        std::ofstream json(args.out_path);
        obs::JsonWriter w(json);
        w.begin_object();
        w.member("bench", "ext_server_echo");
        w.member("edges", static_cast<std::uint64_t>(stream.size()));
        w.member("pings", static_cast<std::uint64_t>(num_pings));
        w.member("depth", static_cast<std::uint64_t>(depth));
        w.member("cores", static_cast<std::uint64_t>(cores));
        w.member("rtt_us", rtt_us);
        w.member("pipelined_rps", pipelined_rps);
        w.member("pipelined_rps_4conn", pipelined_4conn);
        w.member("wire_ingest_eps", wire_eps);
        w.member("local_ingest_eps", local_eps);
        w.member("wire_local_ratio", wire_ratio);
        w.end_object();
    }
    std::cout << "wrote " << args.out_path << "\n";

    const std::string cleanup = "rm -rf '" + root + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());

    if (args.check && wire_ratio < 0.10) {
        std::fprintf(stderr,
                     "check FAILED: wire ingest at %.1f%% of local "
                     "(bound 10%%)\n",
                     wire_ratio * 100.0);
        return 1;
    }
    if (args.check) {
        std::printf("check passed: ratio %.2f >= 0.10\n", wire_ratio);
    }
    return 0;
}

// Differential tests for the batched ingest fast path: insert_batch /
// delete_batch must leave the store equivalent to per-edge application of
// the same stream — same edge set, weights, degrees, edge count and a clean
// structural audit — across every feature configuration. Also covers the
// ShardedStore radix partition.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "gen/rmat.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

using EdgeMap = std::map<std::pair<VertexId, VertexId>, Weight>;

EdgeMap edge_map(const GraphTinker& g) {
    EdgeMap out;
    g.visit_edges([&](VertexId u, VertexId v, Weight w) {
        out[{u, v}] = w;
    });
    return out;
}

template <typename Sharded>
EdgeMap edge_map_sharded(const Sharded& sharded) {
    EdgeMap out;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        sharded.shard(s).visit_edges(
            [&](VertexId u, VertexId v, Weight w) { out[{u, v}] = w; });
    }
    return out;
}

/// Batch path and per-edge twin must agree on all observable state.
void expect_equivalent(const GraphTinker& batch, const GraphTinker& serial,
                       const std::string& label) {
    const EdgeMap batch_edges = edge_map(batch);
    const EdgeMap serial_edges = edge_map(serial);
    EXPECT_EQ(batch.num_edges(), serial.num_edges()) << label;
    EXPECT_EQ(batch_edges, serial_edges) << label;
    EXPECT_EQ(batch.num_vertices(), serial.num_vertices()) << label;
    // Degrees of every source either side holds edges for (ids may reach
    // kInvalidVertex - 1). Both stores are audited, so a stray degree on an
    // edgeless id fails either side's DegreeAccounting check.
    std::set<VertexId> sources;
    for (const EdgeMap* edges : {&batch_edges, &serial_edges}) {
        for (const auto& [key, weight] : *edges) {
            sources.insert(key.first);
        }
    }
    for (const VertexId v : sources) {
        ASSERT_EQ(batch.degree(v), serial.degree(v)) << label << " v=" << v;
    }
    const AuditReport batch_audit = batch.audit();
    EXPECT_TRUE(batch_audit.ok()) << label << ": " << batch_audit.to_string();
    const AuditReport serial_audit = serial.audit();
    EXPECT_TRUE(serial_audit.ok())
        << label << " (per-edge): " << serial_audit.to_string();
}

struct NamedConfig {
    std::string name;
    Config config;
};

/// Compact deletes (the default) probe without Robin Hood order; delete-only
/// stores, the mode the paper figures use, probe with it.
std::vector<NamedConfig> all_configs() {
    std::vector<NamedConfig> out;
    out.push_back({"default", Config{}});
    Config delete_only;
    delete_only.deletion_mode = DeletionMode::DeleteOnly;
    out.push_back({"delete_only", delete_only});
    Config no_cal;
    no_cal.enable_cal = false;
    out.push_back({"no_cal", no_cal});
    Config no_sgh;
    no_sgh.enable_sgh = false;
    out.push_back({"no_sgh", no_sgh});
    return out;
}

struct NamedBatch {
    std::string name;
    std::vector<Edge> edges;
};

/// Batches for every branch of the source sort: sizes around the 2048-edge
/// std::sort cut-off plus a sharded_churn-sized shard slice, with sources
/// one, two or three 11-bit radix digits wide. At 2047 edges every width
/// takes std::sort; from 2048 edges one digit takes the counting sort and
/// two or three digits take as many LSD radix passes. Every seventh
/// edge repeats an earlier (src, dst) pair with a new weight, so the last
/// weight must win. Without SGH raw ids index the main region, so the
/// three-digit width stops at 2^22 there instead of kInvalidVertex - 1.
std::vector<NamedBatch> sort_batches(bool sgh) {
    const VertexId widest[] = {2047, (1U << 22) - 1,
                               sgh ? kInvalidVertex - 1 : 1U << 22};
    std::vector<NamedBatch> out;
    std::uint64_t seed = 1;
    for (const std::size_t n : {2047UL, 2048UL, 2049UL, 16667UL}) {
        for (std::size_t digits = 1; digits <= 3; ++digits) {
            const VertexId max_src = widest[digits - 1];
            Rng rng(seed++);
            // A quarter as many sources as edges, so runs hold several.
            std::vector<VertexId> sources(n / 4);
            for (VertexId& src : sources) {
                src = static_cast<VertexId>(rng.next_below(max_src + 1ULL));
            }
            sources[0] = max_src;
            std::vector<Edge> edges;
            for (std::size_t i = 0; i < n; ++i) {
                const auto weight = static_cast<Weight>(i + 1);
                if (i % 7 == 6) {
                    Edge again = edges[rng.next_below(edges.size())];
                    again.weight = weight;
                    edges.push_back(again);
                } else {
                    edges.push_back(
                        Edge{sources[rng.next_below(sources.size())],
                             static_cast<VertexId>(rng.next_below(4096)),
                             weight});
                }
            }
            out.push_back({"n=" + std::to_string(n) +
                               " digits=" + std::to_string(digits),
                           std::move(edges)});
        }
    }
    return out;
}

/// Deletes for a sort_batches batch: the same sources in the same order,
/// so the delete batch takes the same sort branch, with every third edge
/// aimed at an absent destination and repeated pairs deleted twice.
std::vector<Edge> deletes_for(const std::vector<Edge>& inserts) {
    std::vector<Edge> out = inserts;
    for (std::size_t i = 0; i < out.size(); i += 3) {
        out[i].dst += 4096;
    }
    return out;
}

TEST(IngestDifferential, InsertBatchMatchesPerEdge) {
    const auto edges = rmat_edges(2000, 60000, 7);
    for (const NamedConfig& nc : all_configs()) {
        GraphTinker batch(nc.config);
        GraphTinker serial(nc.config);
        (void)batch.insert_batch(edges);
        for (const Edge& e : edges) {
            (void)serial.insert_edge(e.src, e.dst, e.weight);
        }
        expect_equivalent(batch, serial, nc.name);
    }
}

TEST(IngestDifferential, DuplicatePairsKeepLastWeight) {
    // Duplicate (src, dst) pairs inside one batch: the stable source sort
    // must preserve stream order within a source, so the last weight wins in
    // both paths.
    std::vector<Edge> edges;
    for (std::uint32_t round = 0; round < 50; ++round) {
        for (VertexId src = 0; src < 8; ++src) {
            edges.push_back(Edge{src, (src + round) % 16, round + 1});
            edges.push_back(Edge{src, (src + round) % 16, round + 100});
        }
    }
    GraphTinker batch;
    GraphTinker serial;
    (void)batch.insert_batch(edges);
    for (const Edge& e : edges) {
        (void)serial.insert_edge(e.src, e.dst, e.weight);
    }
    expect_equivalent(batch, serial, "dup_pairs");
    EXPECT_EQ(batch.find_edge(0, 5), serial.find_edge(0, 5));

    // The same contract on every sort branch, against the stream itself.
    for (const NamedBatch& nb : sort_batches(/*sgh=*/true)) {
        GraphTinker g;
        ASSERT_TRUE(g.insert_batch(nb.edges).ok()) << nb.name;
        EdgeMap last;
        for (const Edge& e : nb.edges) {
            last[{e.src, e.dst}] = e.weight;
        }
        EXPECT_EQ(edge_map(g), last) << nb.name;
    }
}

TEST(IngestDifferential, DuplicateDeletesDecrementOnce) {
    // A delete batch naming the same (src, dst) pair several times must
    // remove the edge exactly once: the sorted apply loop skips adjacent
    // duplicates, and the tombstone left by the first erase makes any
    // re-probe miss. num_edges must never double-decrement.
    for (const NamedConfig& nc : all_configs()) {
        GraphTinker batch(nc.config);
        GraphTinker serial(nc.config);
        const auto edges = rmat_edges(400, 6000, 21);
        (void)batch.insert_batch(edges);
        for (const Edge& e : edges) {
            (void)serial.insert_edge(e.src, e.dst, e.weight);
        }

        // Every surviving edge deleted twice back-to-back plus once more at
        // the end of the stream (non-adjacent repeat after sorting ties are
        // broken by stable order).
        std::vector<Edge> deletes;
        EdgeMap live = edge_map(batch);
        std::size_t picked = 0;
        for (const auto& [key, weight] : live) {
            if (picked++ % 2 != 0) {
                continue;
            }
            deletes.push_back(Edge{key.first, key.second, weight});
            deletes.push_back(Edge{key.first, key.second, weight});
        }
        const std::size_t first_wave = deletes.size();
        deletes.insert(deletes.end(), deletes.begin(),
                       deletes.begin() + static_cast<std::ptrdiff_t>(
                                             first_wave / 2));
        (void)batch.delete_batch(deletes);
        for (const Edge& e : deletes) {
            (void)serial.delete_edge(e.src, e.dst);
        }
        expect_equivalent(batch, serial, nc.name + " dup_deletes");

        // Deleting the same set again in a fresh batch (all already gone)
        // must be a no-op for the counters.
        const EdgeCount before = batch.num_edges();
        (void)batch.delete_batch(deletes);
        for (const Edge& e : deletes) {
            (void)serial.delete_edge(e.src, e.dst);
        }
        EXPECT_EQ(batch.num_edges(), before) << nc.name;
        expect_equivalent(batch, serial, nc.name + " redelete");
    }
}

TEST(IngestDifferential, MixedInsertDeleteStream) {
    // Interleaved insert/delete batches, including deletes of absent edges
    // and of never-streamed sources, across every config; then the
    // sort_batches inputs.
    std::mt19937 rng(99);
    for (const NamedConfig& nc : all_configs()) {
        GraphTinker batch(nc.config);
        GraphTinker serial(nc.config);
        std::vector<Edge> live;
        for (int round = 0; round < 8; ++round) {
            const auto inserts =
                rmat_edges(600, 4000, 1000 + round * 17);
            (void)batch.insert_batch(inserts);
            for (const Edge& e : inserts) {
                (void)serial.insert_edge(e.src, e.dst, e.weight);
            }
            live.insert(live.end(), inserts.begin(), inserts.end());

            // Delete a random slice of what exists plus some junk.
            std::vector<Edge> deletes;
            for (int i = 0; i < 1500 && !live.empty(); ++i) {
                const std::size_t pick = rng() % live.size();
                deletes.push_back(live[pick]);
                live[pick] = live.back();
                live.pop_back();
            }
            deletes.push_back(Edge{100000, 1, 1});  // unknown source
            deletes.push_back(Edge{1, 100000, 1});  // unknown dst
            (void)batch.delete_batch(deletes);
            for (const Edge& e : deletes) {
                (void)serial.delete_edge(e.src, e.dst);
            }
            expect_equivalent(batch, serial,
                              nc.name + " round " + std::to_string(round));
        }
        // Every branch of the source sort, inserts then deletes, on the
        // populated store.
        for (const NamedBatch& nb : sort_batches(nc.config.enable_sgh)) {
            const std::string label = nc.name + " " + nb.name;
            ASSERT_TRUE(batch.insert_batch(nb.edges).ok()) << label;
            for (const Edge& e : nb.edges) {
                (void)serial.insert_edge(e.src, e.dst, e.weight);
            }
            expect_equivalent(batch, serial, label + " inserts");
            const std::vector<Edge> deletes = deletes_for(nb.edges);
            ASSERT_TRUE(batch.delete_batch(deletes).ok()) << label;
            for (const Edge& e : deletes) {
                (void)serial.delete_edge(e.src, e.dst);
            }
            expect_equivalent(batch, serial, label + " deletes");
        }
    }
}

TEST(IngestDifferential, SmallBatchesMatchPerEdge) {
    // Batches of every size take the sorted path except a single edge,
    // which runs through the solo op. The equivalence contract is the same
    // at each size: serve_mixed's 16-edge writes, a replica's catch-up
    // frames and the sizes around them. In both streams every fifth edge
    // repeats the pair before it with a new weight (an adjacent duplicate
    // pair) and every seventh names a source no earlier edge used.
    const auto base = rmat_edges(100, 600, 3);
    std::vector<Edge> inserts;
    std::vector<Edge> deletes;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const auto weight = static_cast<Weight>(i + 1);
        Edge e = base[i];
        if (i % 5 == 4) {
            e = inserts.back();
        } else if (i % 7 == 6) {
            e.src = static_cast<VertexId>(1000 + i);
        }
        e.weight = weight;
        inserts.push_back(e);
        // Deletes walk the same stream: every third aims at an absent
        // destination, and the never-seen sources are new again.
        Edge d = e;
        if (i % 3 == 0) {
            d.dst += 4096;
        } else if (i % 7 == 6) {
            d.src = static_cast<VertexId>(5000 + i);
        }
        deletes.push_back(d);
    }
    for (const NamedConfig& nc : all_configs()) {
        for (const std::size_t size : {1UL, 2UL, 3UL, 16UL, 32UL, 33UL}) {
            const std::string label =
                nc.name + " size=" + std::to_string(size);
            GraphTinker batch(nc.config);
            GraphTinker serial(nc.config);
            const auto feed = [&](const std::vector<Edge>& stream,
                                  bool dels) {
                for (std::size_t i = 0; i < stream.size(); i += size) {
                    const auto slice = std::span<const Edge>(stream).subspan(
                        i, std::min(size, stream.size() - i));
                    ASSERT_TRUE((dels ? batch.delete_batch(slice)
                                      : batch.insert_batch(slice))
                                    .ok())
                        << label << " at " << i;
                }
                for (const Edge& e : stream) {
                    (void)(dels ? serial.delete_edge(e.src, e.dst)
                                : serial.insert_edge(e.src, e.dst, e.weight));
                }
            };
            feed(inserts, /*dels=*/false);
            expect_equivalent(batch, serial, label + " inserts");
            feed(deletes, /*dels=*/true);
            expect_equivalent(batch, serial, label + " deletes");
        }
    }
}

TEST(IngestDifferential, ShardedMatchesSerialAndAuditsClean) {
    const auto edges = rmat_edges(1500, 50000, 11);
    ShardedStore<GraphTinker> sharded(6, [] { return Config{}; });
    GraphTinker serial;
    (void)sharded.insert_batch(edges);
    for (const Edge& e : edges) {
        (void)serial.insert_edge(e.src, e.dst, e.weight);
    }
    EXPECT_EQ(sharded.num_edges(), serial.num_edges());
    EXPECT_EQ(edge_map_sharded(sharded), edge_map(serial));
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        const AuditReport report = sharded.shard(s).audit();
        EXPECT_TRUE(report.ok()) << "shard " << s << ": "
                                 << report.to_string();
    }
    (void)sharded.delete_batch(edges);
    EXPECT_EQ(sharded.num_edges(), 0u);
}

TEST(IngestDifferential, ShardOfIsStableAndInRange) {
    for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL, 8UL, 64UL}) {
        std::vector<std::size_t> hits(shards, 0);
        for (VertexId v = 0; v < 10000; ++v) {
            const std::size_t s =
                ShardedStore<GraphTinker>::shard_of(v, shards);
            ASSERT_LT(s, shards);
            ASSERT_EQ(s, ShardedStore<GraphTinker>::shard_of(v, shards));
            ++hits[s];
        }
        // Fastmod over a mixed hash spreads sources roughly evenly.
        for (std::size_t s = 0; s < shards; ++s) {
            EXPECT_GT(hits[s], 10000 / shards / 2)
                << "shard " << s << " of " << shards << " underloaded";
        }
    }
    // Guarded degenerate case: shard_of itself tolerates 0 shards.
    EXPECT_EQ(ShardedStore<GraphTinker>::shard_of(123, 0), 0u);
}

}  // namespace
}  // namespace gt::core

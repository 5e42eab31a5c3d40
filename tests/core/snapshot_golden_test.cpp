// Snapshot on-disk format pin: the byte layout of version 2 must never
// drift.
//
// The expected bytes are assembled *manually* from the documented format
// (DESIGN §11, core/serialize.hpp), not through write_snapshot's encoder,
// and every checksum is taken with the slice-by-8 reference kernel. The
// edge section is large enough to span several of the encoder's 64 KiB
// chunks and to end mid-chunk, so a change to the field order, the record
// layout, the checksum coverage or the chunking fails here even if writer
// and reader drift together.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "util/crc32c.hpp"

namespace gt::core {
namespace {

void append_u8(std::vector<unsigned char>& buf, std::uint8_t v) {
    buf.push_back(v);
}

void append_u32(std::vector<unsigned char>& buf, std::uint32_t v) {
    // The format is little-endian by definition; spell it out byte by byte
    // so this test also pins endianness.
    buf.push_back(static_cast<unsigned char>(v));
    buf.push_back(static_cast<unsigned char>(v >> 8));
    buf.push_back(static_cast<unsigned char>(v >> 16));
    buf.push_back(static_cast<unsigned char>(v >> 24));
}

void append_u64(std::vector<unsigned char>& buf, std::uint64_t v) {
    append_u32(buf, static_cast<std::uint32_t>(v));
    append_u32(buf, static_cast<std::uint32_t>(v >> 32));
}

void append_f64(std::vector<unsigned char>& buf, double v) {
    append_u64(buf, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t reference_crc(const unsigned char* data, std::size_t len) {
    return util::crc32c_extend_slice8(0xFFFFFFFFU, data, len) ^ 0xFFFFFFFFU;
}

TEST(SnapshotGolden, FileBytesMatchSpecAssembledByHand) {
    // Every field differs from its default, so a swapped pair shows.
    Config cfg;
    cfg.pagewidth = 32;
    cfg.subblock = 8;
    cfg.workblock = 2;
    cfg.enable_sgh = true;
    cfg.enable_cal = true;
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    cfg.cal_group_size = 512;
    cfg.cal_block_edges = 64;
    cfg.initial_vertices = 2048;
    cfg.reserve_edges = 12500;
    cfg.purge_tombstone_threshold = 0.5;
    cfg.cal_compact_threshold = 0.125;
    GraphTinker graph(cfg);

    // 12,500 distinct edges, then 500 deletes spread over the id space:
    // 12,000 live records = 144,000 bytes, two whole 64 KiB chunks and a
    // partial third.
    for (std::uint32_t i = 0; i < 12500; ++i) {
        ASSERT_TRUE(graph.insert_edge(i % 1000, i / 1000 + 1, i * 3 + 7));
    }
    for (std::uint32_t i = 0; i < 12500; i += 25) {
        ASSERT_TRUE(graph.delete_edge(i % 1000, i / 1000 + 1));
    }
    ASSERT_EQ(graph.num_edges(), 12000U);
    constexpr std::uint64_t kWalSeq = 0x0102030405060708ULL;

    std::vector<unsigned char> expected;
    append_u32(expected, 0x47545342U);  // "GTSB"
    append_u32(expected, 2);            // version
    append_u64(expected, kWalSeq);

    std::vector<unsigned char> config;
    append_u32(config, 32);     // pagewidth
    append_u32(config, 8);      // subblock
    append_u32(config, 2);      // workblock
    append_u8(config, 1);       // enable_sgh
    append_u8(config, 1);       // enable_cal
    append_u8(config, 0);       // Robin Hood: rhh_active(), off when compact
    append_u8(config, 1);       // deletion_mode: DeleteAndCompact
    append_u32(config, 512);    // cal_group_size
    append_u32(config, 64);     // cal_block_edges
    append_u32(config, 2048);   // initial_vertices
    append_u64(config, 12500);  // reserve_edges
    append_f64(config, 0.5);    // purge_tombstone_threshold
    append_f64(config, 0.125);  // cal_compact_threshold
    append_u32(config, 0);      // retired slot
    ASSERT_EQ(config.size(), 56U);
    expected.insert(expected.end(), config.begin(), config.end());
    append_u32(expected, reference_crc(config.data(), config.size()));

    std::vector<unsigned char> edges;
    append_u64(edges, 12000);
    graph.visit_edges([&](VertexId s, VertexId d, Weight w) {
        append_u32(edges, s);
        append_u32(edges, d);
        append_u32(edges, w);
    });
    ASSERT_EQ(edges.size(), 8U + 12000U * 12U);
    expected.insert(expected.end(), edges.begin(), edges.end());
    append_u32(expected, reference_crc(edges.data(), edges.size()));
    append_u32(expected, 0x47545345U);  // "GTSE"

    std::ostringstream out;
    ASSERT_TRUE(write_snapshot(graph, out, kWalSeq).ok());
    const std::string actual = out.str();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(static_cast<unsigned char>(actual[i]), expected[i])
            << "byte " << i;
    }

    // The hand-built file loads back to the same store.
    std::istringstream in(std::string(expected.begin(), expected.end()));
    LoadedSnapshot loaded;
    ASSERT_TRUE(read_snapshot(in, loaded).ok());
    EXPECT_EQ(loaded.wal_seq, kWalSeq);
    EXPECT_EQ(loaded.graph->num_edges(), 12000U);
    EXPECT_EQ(loaded.graph->config().pagewidth, 32U);
    EXPECT_EQ(loaded.graph->config().workblock, 2U);
    EXPECT_FALSE(loaded.graph->config().rhh_active());
    EXPECT_EQ(loaded.graph->config().cal_compact_threshold, 0.125);
    std::size_t matched = 0;
    graph.visit_edges([&](VertexId s, VertexId d, Weight w) {
        if (loaded.graph->find_edge(s, d) == w) {
            ++matched;
        }
    });
    EXPECT_EQ(matched, 12000U);
}

}  // namespace
}  // namespace gt::core

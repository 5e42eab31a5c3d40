#include "core/serialize.hpp"

#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "util/crc32c.hpp"

namespace gt::core {

namespace {

template <typename T>
void put(std::ostream& out, T value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
[[nodiscard]] bool get(std::istream& in, T& value) {
    in.read(reinterpret_cast<char*>(&value), sizeof(value));
    return static_cast<bool>(in);
}

/// Fixed-width append into the config section's staging buffer (the whole
/// section is CRC'd and written as one blob).
template <typename T>
void put_buf(std::vector<unsigned char>& buf, T value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    buf.insert(buf.end(), p, p + sizeof(value));
}

template <typename T>
[[nodiscard]] bool get_buf(const std::vector<unsigned char>& buf,
                           std::size_t& off, T& value) {
    if (off + sizeof(value) > buf.size()) {
        return false;
    }
    std::memcpy(&value, buf.data() + off, sizeof(value));
    off += sizeof(value);
    return true;
}

/// The config section serializes the *full* Config so a reloaded store
/// behaves identically (geometry, feature toggles, maintenance thresholds).
std::vector<unsigned char> encode_config(const Config& cfg) {
    std::vector<unsigned char> buf;
    buf.reserve(64);
    put_buf(buf, cfg.pagewidth);
    put_buf(buf, cfg.subblock);
    put_buf(buf, cfg.workblock);
    put_buf(buf, static_cast<std::uint8_t>(cfg.enable_sgh));
    put_buf(buf, static_cast<std::uint8_t>(cfg.enable_cal));
    // The Robin Hood byte: written as rhh_active() and ignored on read, as
    // the deletion mode alone decides it (a file whose byte disagrees with
    // its mode loads like any other).
    put_buf(buf, static_cast<std::uint8_t>(cfg.rhh_active()));
    put_buf(buf, static_cast<std::uint8_t>(cfg.deletion_mode));
    put_buf(buf, cfg.cal_group_size);
    put_buf(buf, cfg.cal_block_edges);
    put_buf(buf, cfg.initial_vertices);
    put_buf(buf, cfg.reserve_edges);
    put_buf(buf, cfg.purge_tombstone_threshold);
    put_buf(buf, cfg.cal_compact_threshold);
    // Retired slot (an amortized maintenance budget): written as 0 and
    // ignored on read, so the section keeps its v2 width.
    put_buf(buf, std::uint32_t{0});
    return buf;
}

[[nodiscard]] bool decode_config(const std::vector<unsigned char>& buf,
                                 Config& cfg) {
    std::size_t off = 0;
    std::uint8_t sgh = 0;
    std::uint8_t cal = 0;
    std::uint8_t rhh = 0;  // ignored (see encode_config)
    std::uint8_t mode = 0;
    std::uint32_t retired = 0;
    const bool ok =
        get_buf(buf, off, cfg.pagewidth) && get_buf(buf, off, cfg.subblock) &&
        get_buf(buf, off, cfg.workblock) && get_buf(buf, off, sgh) &&
        get_buf(buf, off, cal) && get_buf(buf, off, rhh) &&
        get_buf(buf, off, mode) && get_buf(buf, off, cfg.cal_group_size) &&
        get_buf(buf, off, cfg.cal_block_edges) &&
        get_buf(buf, off, cfg.initial_vertices) &&
        get_buf(buf, off, cfg.reserve_edges) &&
        get_buf(buf, off, cfg.purge_tombstone_threshold) &&
        get_buf(buf, off, cfg.cal_compact_threshold) &&
        get_buf(buf, off, retired);
    if (!ok || off != buf.size()) {
        return false;
    }
    cfg.enable_sgh = sgh != 0;
    cfg.enable_cal = cal != 0;
    cfg.deletion_mode = static_cast<DeletionMode>(mode);
    return true;
}

/// Bytes between the stream's current position and its end, or nullopt for
/// non-seekable streams. Used to reject implausible edge counts before any
/// proportional allocation happens.
std::optional<std::uint64_t> bytes_remaining(std::istream& in) {
    const std::istream::pos_type here = in.tellg();
    if (here == std::istream::pos_type(-1)) {
        return std::nullopt;
    }
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (end == std::istream::pos_type(-1) || !in) {
        in.clear();
        in.seekg(here);
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(end - here);
}

constexpr std::size_t kEdgeRecordBytes =
    sizeof(VertexId) * 2 + sizeof(Weight);
/// Edge records per write_snapshot chunk: as many as fit in 64 KiB.
constexpr std::size_t kChunkRecords =
    (std::size_t{64} << 10) / kEdgeRecordBytes;

}  // namespace

Status write_snapshot(const GraphTinker& graph, std::ostream& out,
                      std::uint64_t wal_seq) {
    put(out, kSnapshotMagic);
    put(out, kSnapshotVersion);
    put(out, wal_seq);

    const std::vector<unsigned char> cfg_buf = encode_config(graph.config());
    out.write(reinterpret_cast<const char*>(cfg_buf.data()),
              static_cast<std::streamsize>(cfg_buf.size()));
    put(out, util::crc32c(cfg_buf.data(), cfg_buf.size()));

    const EdgeCount count = graph.num_edges();
    std::uint32_t crc = 0xFFFFFFFFU;
    put(out, count);
    crc = util::crc32c_extend(crc, &count, sizeof(count));
    // Records are packed into one reused chunk, then checksummed and
    // written a chunk at a time: CRC32C over concatenated bytes does not
    // depend on where they are split, so the file is the same as one
    // written a field at a time.
    std::vector<unsigned char> chunk(kChunkRecords * kEdgeRecordBytes);
    std::size_t fill = 0;
    const auto emit_chunk = [&] {
        crc = util::crc32c_extend(crc, chunk.data(), fill);
        out.write(reinterpret_cast<const char*>(chunk.data()),
                  static_cast<std::streamsize>(fill));
        fill = 0;
    };
    EdgeCount written = 0;
    graph.visit_edges([&](VertexId s, VertexId d, Weight w) {
        unsigned char* rec = chunk.data() + fill;
        std::memcpy(rec, &s, sizeof(s));
        std::memcpy(rec + sizeof(s), &d, sizeof(d));
        std::memcpy(rec + sizeof(s) + sizeof(d), &w, sizeof(w));
        fill += kEdgeRecordBytes;
        ++written;
        if (fill == chunk.size()) {
            emit_chunk();
        }
    });
    if (fill != 0) {
        emit_chunk();
    }
    put(out, crc ^ 0xFFFFFFFFU);
    put(out, kSnapshotFooter);
    out.flush();
    if (!out) {
        return Status{StatusCode::IoError, "snapshot stream write failed"};
    }
    if (written != count) {
        // Would indicate live-edge accounting skew; the snapshot just
        // written declares `count` but carries `written` records.
        return Status{StatusCode::SnapshotEdgeCountMismatch,
                      "streamed edge count disagrees with num_edges()",
                      written};
    }
    return Status::success();
}

Status read_snapshot(std::istream& in, LoadedSnapshot& out) {
    std::uint32_t magic = 0;
    if (!get(in, magic)) {
        return Status{StatusCode::SnapshotTruncatedHeader,
                      "EOF before the snapshot magic"};
    }
    if (magic != kSnapshotMagic) {
        return Status{StatusCode::SnapshotBadMagic,
                      "not a GraphTinker snapshot", magic};
    }
    std::uint32_t version = 0;
    if (!get(in, version)) {
        return Status{StatusCode::SnapshotTruncatedHeader,
                      "EOF inside the snapshot header"};
    }
    if (version != kSnapshotVersion) {
        return Status{StatusCode::SnapshotBadVersion,
                      "unsupported snapshot version", version};
    }
    std::uint64_t wal_seq = 0;
    if (!get(in, wal_seq)) {
        return Status{StatusCode::SnapshotTruncatedHeader,
                      "EOF inside the snapshot header"};
    }

    // Config section: fixed width, CRC-guarded, then semantic validation —
    // an attacker-controlled (or bit-rotted) geometry must not reach the
    // constructor's allocations.
    std::vector<unsigned char> cfg_buf(encode_config(Config{}).size());
    in.read(reinterpret_cast<char*>(cfg_buf.data()),
            static_cast<std::streamsize>(cfg_buf.size()));
    if (!in) {
        return Status{StatusCode::SnapshotTruncatedConfig,
                      "EOF inside the config section"};
    }
    std::uint32_t cfg_crc = 0;
    if (!get(in, cfg_crc)) {
        return Status{StatusCode::SnapshotTruncatedConfig,
                      "EOF where the config checksum belongs"};
    }
    if (cfg_crc != util::crc32c(cfg_buf.data(), cfg_buf.size())) {
        return Status{StatusCode::SnapshotConfigChecksum,
                      "config section checksum mismatch"};
    }
    Config cfg;
    if (!decode_config(cfg_buf, cfg)) {
        return Status{StatusCode::SnapshotBadConfig,
                      "config section does not decode"};
    }
    if (const Status st = cfg.check(); !st.ok()) {
        return Status{StatusCode::SnapshotBadConfig,
                      "config fails validation: " + st.message};
    }

    EdgeCount count = 0;
    std::uint32_t crc = 0xFFFFFFFFU;
    if (!get(in, count)) {
        return Status{StatusCode::SnapshotTruncatedEdgeCount,
                      "EOF where the edge count belongs"};
    }
    crc = util::crc32c_extend(crc, &count, sizeof(count));
    // Plausibility gate before any count-proportional allocation: a
    // corrupted count must not drive reserve_edges (or the read loop) to
    // OOM. Non-seekable streams skip the gate but also skip the reserve —
    // the loop below only allocates for records actually read.
    if (const auto remaining = bytes_remaining(in)) {
        if (count > *remaining / kEdgeRecordBytes) {
            return Status{StatusCode::SnapshotImplausibleCount,
                          "declared edge count exceeds the stream size",
                          count};
        }
        cfg.reserve_edges = count;
    } else {
        cfg.reserve_edges = 0;
    }

    auto graph = std::make_unique<GraphTinker>(cfg);
    for (EdgeCount i = 0; i < count; ++i) {
        VertexId s = 0;
        VertexId d = 0;
        Weight w{};
        if (!get(in, s) || !get(in, d) || !get(in, w)) {
            return Status{StatusCode::SnapshotTruncatedEdges,
                          "EOF inside the edge records", i};
        }
        crc = util::crc32c_extend(crc, &s, sizeof(s));
        crc = util::crc32c_extend(crc, &d, sizeof(d));
        crc = util::crc32c_extend(crc, &w, sizeof(w));
        // The sentinel can only appear through corruption; skip the apply
        // (inserting it would poison the store) and let the checksum
        // verdict below reject the file.
        if (s != kInvalidVertex && d != kInvalidVertex) {
            // Replay into a fresh un-logged store: duplicate edges in the
            // stream legitimately return false (weight overwrite).
            (void)graph->insert_edge(s, d, w);
        }
    }
    std::uint32_t edge_crc = 0;
    if (!get(in, edge_crc)) {
        return Status{StatusCode::SnapshotTruncatedEdges,
                      "EOF where the edge checksum belongs", count};
    }
    if (edge_crc != (crc ^ 0xFFFFFFFFU)) {
        return Status{StatusCode::SnapshotEdgeChecksum,
                      "edge section checksum mismatch"};
    }
    if (graph->num_edges() != count) {
        // Checksum passed but the records collapsed (duplicate pairs):
        // cannot happen for a well-formed writer, so flag it.
        return Status{StatusCode::SnapshotEdgeCountMismatch,
                      "decoded edges disagree with the declared count",
                      graph->num_edges()};
    }
    std::uint32_t footer = 0;
    if (!get(in, footer)) {
        return Status{StatusCode::SnapshotTruncatedFooter,
                      "EOF where the end marker belongs"};
    }
    if (footer != kSnapshotFooter) {
        return Status{StatusCode::SnapshotBadFooter,
                      "end marker is not GTSE", footer};
    }
    out.graph = std::move(graph);
    out.wal_seq = wal_seq;
    return Status::success();
}

}  // namespace gt::core

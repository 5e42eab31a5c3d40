// GraphTinker persistence: save/load a store to a binary stream.
//
// The on-disk format is *logical*: the configuration plus the live edge
// triples streamed from the compact CAL. Loading reconstructs the hash
// structures by replaying the edges, so a round trip yields a semantically
// identical graph (same edge set, weights, degrees) rather than a
// byte-identical arena — which also means snapshots written by one geometry
// (e.g. PAGEWIDTH=64) load fine into another.
//
// Format v2 (little-endian):
//
//   u32 magic   "GTSB"
//   u32 version  2
//   u64 wal_seq             highest WAL sequence number folded into this
//                           snapshot (0 = standalone); recovery replays the
//                           WAL strictly after it
//   -- config section -------------------------------------------------
//   fixed-width Config fields (full struct, see serialize.cpp)
//   u32 crc32c over the section bytes
//   -- edge section ---------------------------------------------------
//   u64 edge_count
//   edge_count x { u32 src, u32 dst, Weight weight }
//   u32 crc32c over edge_count and every record
//   -- footer ---------------------------------------------------------
//   u32 end marker "GTSE"
//
// Every decode failure maps to a distinct StatusCode (see util/status.hpp)
// so recovery can tell a torn write (fall back to the previous snapshot)
// from active corruption and from plain version skew.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "core/graphtinker.hpp"
#include "util/status.hpp"

namespace gt::core {

/// Magic + version header guarding against foreign/corrupt input.
inline constexpr std::uint32_t kSnapshotMagic = 0x47545342;   // "GTSB"
inline constexpr std::uint32_t kSnapshotFooter = 0x47545345;  // "GTSE"
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Writes the store's configuration and live edges; `wal_seq` records the
/// WAL position this snapshot covers (recovery replays strictly newer
/// records on top). The stream is flushed; fsync is the caller's job
/// (recover::DurableStore::checkpoint does tmp+fsync+rename).
[[nodiscard]] Status write_snapshot(const GraphTinker& graph,
                                    std::ostream& out,
                                    std::uint64_t wal_seq = 0);

/// A decoded snapshot: the reconstructed store plus the WAL sequence it
/// covers.
struct LoadedSnapshot {
    std::unique_ptr<GraphTinker> graph;
    std::uint64_t wal_seq = 0;
};

/// Reads a snapshot written by write_snapshot into `out`. On failure `out`
/// is untouched and the Status code pins down the failing section; `detail`
/// carries the edge index for per-record failures.
[[nodiscard]] Status read_snapshot(std::istream& in, LoadedSnapshot& out);

}  // namespace gt::core

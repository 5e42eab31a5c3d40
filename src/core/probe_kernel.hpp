// Bit-parallel subblock probe kernels (FIND mode, paper §III.C).
//
// A subblock is a power-of-two window of edge-cells (<= 64, so one mask
// word: Config::check refuses wider ones) whose occupancy and tombstone
// state the EdgeblockArray tracks as per-block bitmasks. A Robin Hood FIND
// walks the window in probe order from the home offset, exiting at the
// first EMPTY (absence proof), a key match, or window exhaustion (descend).
// These kernels compute the same outcome without touching cells one at a
// time, and are the store's only probe path:
//
//   match  = (SIMD dst compare over the whole window) & occupied-bits
//   empty  = ~(occupied | tombstone) within the window
//   d(x)   = probe distance of the first set bit of x from `home`
//            (a rotate + countr_zero, O(1))
//
// and then compare distances — the key is found iff it sits strictly before
// the first EMPTY on the probe path, absent at every level iff an EMPTY
// comes first, and the walk descends iff the window has no EMPTY at all.
// Robin Hood order holds exactly in delete-only stores. Under compact
// deletes a key may sit anywhere in its window, so the whole window is
// matched; an EMPTY cell still proves the key absent below, because a
// window that links a child is full in every mode (a branch-out fills it
// first, and a compacting erase refills its hole from below or unlinks the
// emptied child).
// Cells carry no state or probe distance: the masks are the state, and a
// resident's displacement is recomputed from its hash by the caller.
// Both the template instantiations (SIMD and scalar compare) are compiled in
// every build so tests can diff them; GT_SIMD only selects which one the hot
// path calls. The scalar one is the reference the tests diff against and
// the path a target without SSE2/NEON (or a GT_SIMD=OFF build) runs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/edgeblock_array.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace gt::core {

// The SIMD compare reads the dst field at stride sizeof(EdgeCell); the
// kernel is only instantiated when the layout matches that contract.
static_assert(sizeof(EdgeCell) == 8, "probe kernel assumes 8-byte edge-cells");
static_assert(offsetof(EdgeCell, dst) == 0,
              "probe kernel assumes dst is the leading cell member");

/// One subblock of cells plus its occupancy/tombstone bit windows (bit i
/// describes cells[i]); `width` is the subblock size (power of two, <= 64).
/// The SIMD compare reads whole 4-cell groups, so for a width below 4 the
/// cells must stay readable through cells[3] (see match_u32_stride8_simd).
struct SubblockWindow {
    const EdgeCell* cells = nullptr;
    std::uint32_t width = 0;
    std::uint64_t occ = 0;
    std::uint64_t tomb = 0;
};

/// All-ones mask of a `width`-bit window (width <= 64).
[[nodiscard]] constexpr std::uint64_t window_mask(std::uint32_t width) noexcept {
    return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

/// Rotates window bits so that bit d of the result corresponds to probe
/// distance d from `home` (wrapping within the window).
[[nodiscard]] constexpr std::uint64_t rotate_to_probe_order(
    std::uint64_t bits, std::uint32_t home, std::uint32_t width) noexcept {
    return ((bits >> home) | (bits << ((width - home) & 63U))) &
           window_mask(width);
}

/// Probe distance (from `home`, wrapping) of the first set bit of `bits`;
/// `width` when no bit is set — the "infinite distance" sentinel.
[[nodiscard]] constexpr std::uint32_t first_probe_dist(
    std::uint64_t bits, std::uint32_t home, std::uint32_t width) noexcept {
    const std::uint64_t rot = rotate_to_probe_order(bits, home, width);
    return rot == 0 ? width
                    : static_cast<std::uint32_t>(std::countr_zero(rot));
}

template <bool UseSimd>
[[nodiscard]] inline std::uint64_t match_bits(const SubblockWindow& w,
                                              VertexId dst) noexcept {
    if constexpr (UseSimd) {
        return simd::match_u32_stride8_simd(w.cells, w.width, dst) & w.occ;
    } else {
        return simd::match_u32_stride8_scalar(w.cells, w.width, dst) & w.occ;
    }
}

/// Outcome of the FIND walk over one subblock (locate()).
struct FindStep {
    enum class Kind : std::uint8_t {
        Found,    ///< key occupies cells[slot]
        Absent,   ///< an EMPTY precedes any match: key absent at every level
        Descend,  ///< window exhausted without an EMPTY: continue in child
    };
    Kind kind = Kind::Descend;
    std::uint32_t slot = 0;     // valid when Found (offset within subblock)
    std::uint32_t scanned = 0;  // cells a probe-order walk inspects
};

/// FIND over one subblock under Robin Hood (delete-only) order.
template <bool UseSimd>
[[nodiscard]] inline FindStep find_step(const SubblockWindow& w,
                                        std::uint32_t home,
                                        VertexId dst) noexcept {
    const std::uint64_t match = match_bits<UseSimd>(w, dst);
    const std::uint64_t empty =
        ~(w.occ | w.tomb) & window_mask(w.width);
    const std::uint32_t d_match = first_probe_dist(match, home, w.width);
    const std::uint32_t d_empty = first_probe_dist(empty, home, w.width);
    if (d_match < d_empty) {
        return FindStep{FindStep::Kind::Found,
                        (home + d_match) & (w.width - 1), d_match + 1};
    }
    if (d_empty < w.width) {
        return FindStep{FindStep::Kind::Absent, 0, d_empty + 1};
    }
    return FindStep{FindStep::Kind::Descend, 0, w.width};
}

/// FIND over one subblock without Robin Hood order (compact deletes):
/// holes are refilled out of probe order there, so the whole window is
/// inspected. A miss in a window that holds an EMPTY cell is Absent — such
/// a window never links a child — and a miss in a full one descends.
template <bool UseSimd>
[[nodiscard]] inline FindStep find_step_full(const SubblockWindow& w,
                                             VertexId dst) noexcept {
    const std::uint64_t match = match_bits<UseSimd>(w, dst);
    if (match != 0) {
        return FindStep{FindStep::Kind::Found,
                        static_cast<std::uint32_t>(std::countr_zero(match)),
                        w.width};
    }
    const std::uint64_t empty = ~(w.occ | w.tomb) & window_mask(w.width);
    return FindStep{empty != 0 ? FindStep::Kind::Absent
                               : FindStep::Kind::Descend,
                    0, w.width};
}

/// Outcome of the fused FIND/INSERT walk over one subblock (probe_insert).
struct ProbeStep {
    enum class Kind : std::uint8_t {
        Duplicate,  ///< key already occupies cells[slot]
        Empty,      ///< first EMPTY pinned at cells[slot], distance `dist`
        Descend,    ///< no EMPTY in the window: continue in child
    };
    Kind kind = Kind::Descend;
    std::uint32_t slot = 0;
    std::uint32_t dist = 0;
    /// A tombstone or Robin Hood swap point precedes the exit cell — the
    /// insert must run the full INSERT-mode cascade rather than place
    /// directly at the EMPTY.
    bool candidate = false;
    std::uint32_t scanned = 0;
};

/// Fused FIND/INSERT probe over one subblock (delete-only, RHH order).
/// Duplicate and EMPTY detection are bit-parallel; only the (rare)
/// rich-resident check inspects individual occupied cells, and only up to
/// the exit distance. `probe_of(slot)` returns the Robin Hood displacement
/// of the resident at cells[slot] from its own home offset.
template <bool UseSimd, typename ProbeOf>
[[nodiscard]] inline ProbeStep probe_step(const SubblockWindow& w,
                                          std::uint32_t home, VertexId dst,
                                          ProbeOf&& probe_of) noexcept {
    const std::uint64_t match = match_bits<UseSimd>(w, dst);
    const std::uint64_t empty = ~(w.occ | w.tomb) & window_mask(w.width);
    const std::uint32_t d_match = first_probe_dist(match, home, w.width);
    const std::uint32_t d_empty = first_probe_dist(empty, home, w.width);
    if (d_match < d_empty) {
        return ProbeStep{ProbeStep::Kind::Duplicate,
                         (home + d_match) & (w.width - 1), d_match, false,
                         d_match + 1};
    }
    // A probe-order walk stops at the first EMPTY, so candidates only count
    // before it.
    const std::uint32_t bound = d_empty;
    bool candidate = first_probe_dist(w.tomb, home, w.width) < bound;
    if (!candidate) {
        std::uint64_t occ_rot = rotate_to_probe_order(w.occ, home, w.width);
        while (occ_rot != 0) {
            const auto d =
                static_cast<std::uint32_t>(std::countr_zero(occ_rot));
            if (d >= bound) {
                break;
            }
            occ_rot &= occ_rot - 1;
            const std::uint32_t slot = (home + d) & (w.width - 1);
            if (probe_of(slot) < d) {
                candidate = true;  // RHH would displace here
                break;
            }
        }
    }
    if (d_empty < w.width) {
        return ProbeStep{ProbeStep::Kind::Empty,
                         (home + d_empty) & (w.width - 1), d_empty, candidate,
                         d_empty + 1};
    }
    return ProbeStep{ProbeStep::Kind::Descend, 0, 0, candidate, w.width};
}

/// True when the hot paths should call the SIMD instantiations.
inline constexpr bool kProbeKernelSimd = simd::kEnabled;

}  // namespace gt::core

// Differential tests for the bit-parallel subblock probe kernels: the SIMD
// and scalar template instantiations must agree with each other and with a
// straight-line reference walk over adversarial subblocks — full windows,
// tombstone-ridden windows, maximum-displacement layouts and wrap-around
// homes — plus a randomized property sweep, and the raw stride-8 matcher
// must agree with its scalar reference up to the arena's last cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/probe_kernel.hpp"
#include "util/line_alloc.hpp"
#include "util/simd.hpp"

namespace gt::core {
namespace {

/// A subblock under test: cell array + the occupancy/tombstone bit windows
/// the EdgeblockArray would maintain for it, plus each resident's probe
/// distance (which the array derives from the hash; here it is given).
struct TestWindow {
    std::vector<EdgeCell> cells;
    std::vector<std::uint32_t> probes;
    std::uint64_t occ = 0;
    std::uint64_t tomb = 0;

    explicit TestWindow(std::uint32_t width) : cells(width), probes(width) {}

    [[nodiscard]] std::uint32_t width() const {
        return static_cast<std::uint32_t>(cells.size());
    }

    void occupy(std::uint32_t slot, VertexId dst, std::uint32_t probe) {
        cells[slot].dst = dst;
        probes[slot] = probe;
        occ |= 1ULL << slot;
        tomb &= ~(1ULL << slot);
    }

    void bury(std::uint32_t slot) {
        occ &= ~(1ULL << slot);
        tomb |= 1ULL << slot;
    }

    [[nodiscard]] CellState state(std::uint32_t slot) const {
        if (((occ >> slot) & 1U) != 0) {
            return CellState::Occupied;
        }
        return ((tomb >> slot) & 1U) != 0 ? CellState::Tombstone
                                          : CellState::Empty;
    }

    [[nodiscard]] SubblockWindow view() const {
        return SubblockWindow{cells.data(), width(), occ, tomb};
    }

    [[nodiscard]] auto probe_of() const {
        return [this](std::uint32_t slot) { return probes[slot]; };
    }
};

/// Straight-line reference for find_step: the scalar cell-by-cell walk the
/// kernel replaces, written as naively as possible.
FindStep reference_find(const TestWindow& w, std::uint32_t home,
                        VertexId dst) {
    const std::uint32_t width = w.width();
    for (std::uint32_t d = 0; d < width; ++d) {
        const std::uint32_t slot = (home + d) & (width - 1);
        if (w.state(slot) == CellState::Empty) {
            return FindStep{FindStep::Kind::Absent, 0, d + 1};
        }
        if (w.state(slot) == CellState::Occupied && w.cells[slot].dst == dst) {
            return FindStep{FindStep::Kind::Found, slot, d + 1};
        }
    }
    return FindStep{FindStep::Kind::Descend, 0, width};
}

/// Straight-line reference for probe_step (fused FIND/INSERT walk).
ProbeStep reference_probe(const TestWindow& w, std::uint32_t home,
                          VertexId dst) {
    const std::uint32_t width = w.width();
    bool candidate = false;
    for (std::uint32_t d = 0; d < width; ++d) {
        const std::uint32_t slot = (home + d) & (width - 1);
        if (w.state(slot) == CellState::Empty) {
            return ProbeStep{ProbeStep::Kind::Empty, slot, d, candidate,
                             d + 1};
        }
        if (w.state(slot) == CellState::Tombstone) {
            candidate = true;
            continue;
        }
        if (w.cells[slot].dst == dst) {
            return ProbeStep{ProbeStep::Kind::Duplicate, slot, d, false,
                             d + 1};
        }
        if (w.probes[slot] < d) {
            candidate = true;
        }
    }
    return ProbeStep{ProbeStep::Kind::Descend, 0, 0, candidate, width};
}

void expect_find_agreement(const TestWindow& w, std::uint32_t home,
                           VertexId dst) {
    const SubblockWindow v = w.view();
    const FindStep ref = reference_find(w, home, dst);
    const FindStep scalar = find_step<false>(v, home, dst);
    const FindStep simd = find_step<true>(v, home, dst);
    for (const FindStep* step : {&scalar, &simd}) {
        EXPECT_EQ(step->kind, ref.kind) << "home=" << home << " dst=" << dst;
        EXPECT_EQ(step->scanned, ref.scanned)
            << "home=" << home << " dst=" << dst;
        if (ref.kind == FindStep::Kind::Found) {
            EXPECT_EQ(step->slot, ref.slot)
                << "home=" << home << " dst=" << dst;
        }
    }
}

void expect_probe_agreement(const TestWindow& w, std::uint32_t home,
                            VertexId dst) {
    const SubblockWindow v = w.view();
    const ProbeStep ref = reference_probe(w, home, dst);
    const ProbeStep scalar = probe_step<false>(v, home, dst, w.probe_of());
    const ProbeStep simd = probe_step<true>(v, home, dst, w.probe_of());
    for (const ProbeStep* step : {&scalar, &simd}) {
        EXPECT_EQ(step->kind, ref.kind) << "home=" << home << " dst=" << dst;
        EXPECT_EQ(step->candidate, ref.candidate)
            << "home=" << home << " dst=" << dst;
        EXPECT_EQ(step->scanned, ref.scanned)
            << "home=" << home << " dst=" << dst;
        if (ref.kind != ProbeStep::Kind::Descend) {
            EXPECT_EQ(step->slot, ref.slot)
                << "home=" << home << " dst=" << dst;
            EXPECT_EQ(step->dist, ref.dist)
                << "home=" << home << " dst=" << dst;
        }
    }
}

void sweep_all_homes_and_keys(const TestWindow& w) {
    for (std::uint32_t home = 0; home < w.width(); ++home) {
        // Probe every resident key, one absent key, and the zero key (cells
        // default to dst == 0, so this catches matches against junk in
        // non-occupied slots).
        for (std::uint32_t slot = 0; slot < w.width(); ++slot) {
            expect_find_agreement(w, home, w.cells[slot].dst);
            expect_probe_agreement(w, home, w.cells[slot].dst);
        }
        expect_find_agreement(w, home, 0xdeadbeefU);
        expect_probe_agreement(w, home, 0xdeadbeefU);
        expect_find_agreement(w, home, 0);
        expect_probe_agreement(w, home, 0);
    }
}

TEST(ProbeKernel, MatchBitsStride8AgreesWithScalar) {
    // The raw matcher contract: bit i set iff the u32 at byte offset i*8
    // equals the needle. The buffer has the arena's shape — line-aligned,
    // padded by EdgeblockArray::kArenaPadCells — and windows of every width
    // 1..64 sit both at its start and flush against its last cell, where
    // the SIMD compare's whole 4-cell groups run into the pad (AddressSanitizer
    // builds catch any read past it).
    constexpr std::uint32_t kCells = 128;
    LineVector<EdgeCell> arena(kCells + EdgeblockArray::kArenaPadCells);
    for (std::uint32_t i = 0; i < kCells; ++i) {
        arena[i].dst = i % 7 == 0 ? 777U : 1000U + i;
        arena[i].weight = 777U;  // a weight equal to a needle never matches
    }
    const auto expect_agree = [](const EdgeCell* cells, std::uint32_t width,
                                 VertexId needle, std::uint64_t expected) {
        const std::uint64_t scalar =
            simd::match_u32_stride8_scalar(cells, width, needle);
        EXPECT_EQ(scalar, expected) << "width=" << width
                                    << " needle=" << needle;
        EXPECT_EQ(simd::match_u32_stride8_simd(cells, width, needle), scalar)
            << "width=" << width << " needle=" << needle;
    };
    for (std::uint32_t width = 1; width <= 64; ++width) {
        for (const std::uint32_t start : {0U, kCells - width}) {
            const EdgeCell* cells = &arena[start];
            std::uint64_t repeats = 0;
            for (std::uint32_t i = 0; i < width; ++i) {
                const VertexId dst = cells[i].dst;
                if (dst == 777U) {
                    repeats |= 1ULL << i;
                } else {
                    expect_agree(cells, width, dst, 1ULL << i);
                }
            }
            expect_agree(cells, width, 777U, repeats);
            expect_agree(cells, width, 5U, 0);
            // The pad holds default cells: keys read past `width` must not
            // leak into the result.
            expect_agree(cells, width, kInvalidVertex, 0);
        }
    }
}

TEST(ProbeKernel, EmptyWindow) {
    for (const std::uint32_t width : {4U, 16U, 64U}) {
        TestWindow w(width);
        sweep_all_homes_and_keys(w);
    }
}

TEST(ProbeKernel, FullWindowDescends) {
    // Every slot occupied at its home position: FIND of an absent key must
    // descend (no EMPTY anywhere). The walk still flags a swap candidate —
    // a prober at distance d > 0 is poorer than these probe-0 residents, so
    // Robin Hood would displace one.
    TestWindow w(16);
    for (std::uint32_t i = 0; i < 16; ++i) {
        w.occupy(i, 100 + i, 0);
    }
    const ProbeStep step =
        probe_step<false>(w.view(), 3, 0xdeadbeefU, w.probe_of());
    EXPECT_EQ(step.kind, ProbeStep::Kind::Descend);
    EXPECT_TRUE(step.candidate);
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, TombstoneRiddenWindow) {
    // Alternating tombstones and residents, one EMPTY hole: deletions in
    // delete-only mode produce exactly this shape. Tombstones before the
    // EMPTY must flag the reuse candidate but never terminate the walk.
    TestWindow w(16);
    for (std::uint32_t i = 0; i < 16; ++i) {
        if (i % 2 == 0) {
            w.occupy(i, 200 + i, i % 3);
            if (i % 4 == 0) {
                w.bury(i);
            }
        }
    }
    // Odd slots from 5 on stay Empty; densify the low end so probes cross
    // resident/tombstone runs before reaching a hole.
    w.occupy(1, 301, 1);
    w.occupy(3, 303, 0);
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, AllTombstonesDescends) {
    TestWindow w(8);
    for (std::uint32_t i = 0; i < 8; ++i) {
        w.occupy(i, 400 + i, 0);
        w.bury(i);
    }
    const FindStep find = find_step<false>(w.view(), 0, 400);
    EXPECT_EQ(find.kind, FindStep::Kind::Descend);
    const ProbeStep probe =
        probe_step<false>(w.view(), 0, 0xdeadbeefU, w.probe_of());
    EXPECT_EQ(probe.kind, ProbeStep::Kind::Descend);
    EXPECT_TRUE(probe.candidate);
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, MaxDisplacementLayout) {
    // Everybody hashed to slot 0 and cascaded: probe distances equal slots.
    // Wrap-around homes then see rich residents (probe < d) immediately.
    TestWindow w(16);
    for (std::uint32_t i = 0; i < 12; ++i) {
        w.occupy(i, 500 + i, i);
    }
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, WrapAroundRun) {
    // Occupied run crossing the window boundary (slots 13..15, 0..2).
    TestWindow w(16);
    for (const std::uint32_t slot : {13U, 14U, 15U, 0U, 1U, 2U}) {
        w.occupy(slot, 600 + slot, slot % 4);
    }
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, DuplicateBeyondEmptyIsInvisible) {
    // A key sitting *after* the first EMPTY on the probe path must not be
    // reported: the scalar walk never reaches it.
    TestWindow w(8);
    w.occupy(0, 700, 0);
    // slot 1 Empty; key at slot 2.
    w.occupy(2, 701, 0);
    const FindStep find = find_step<false>(w.view(), 0, 701);
    EXPECT_EQ(find.kind, FindStep::Kind::Absent);
    const ProbeStep probe = probe_step<false>(w.view(), 0, 701, w.probe_of());
    EXPECT_EQ(probe.kind, ProbeStep::Kind::Empty);
    EXPECT_EQ(probe.dist, 1U);
    sweep_all_homes_and_keys(w);
}

TEST(ProbeKernel, CompactModeFullScan) {
    // find_step_full ignores probe order entirely — compact mode refills
    // holes out of order, so only presence anywhere in the window counts;
    // a miss in a window with EMPTY cells is Absent.
    TestWindow w(16);
    w.occupy(11, 800, 0);
    w.occupy(3, 801, 0);
    for (const VertexId dst : {800U, 801U, 0xdeadbeefU}) {
        const FindStep scalar = find_step_full<false>(w.view(), dst);
        const FindStep simd = find_step_full<true>(w.view(), dst);
        EXPECT_EQ(scalar.kind, simd.kind);
        EXPECT_EQ(scalar.slot, simd.slot);
        EXPECT_EQ(scalar.scanned, w.width());
    }
    EXPECT_EQ(find_step_full<false>(w.view(), 800U).kind,
              FindStep::Kind::Found);
    EXPECT_EQ(find_step_full<false>(w.view(), 800U).slot, 11U);
    EXPECT_EQ(find_step_full<false>(w.view(), 0xdeadbeefU).kind,
              FindStep::Kind::Absent);
}

/// Straight-line reference for find_step_full: a match anywhere in the
/// window, else Absent when some cell is EMPTY, else Descend.
FindStep reference_find_full(const TestWindow& w, VertexId dst) {
    bool empty = false;
    for (std::uint32_t slot = 0; slot < w.width(); ++slot) {
        if (w.state(slot) == CellState::Occupied && w.cells[slot].dst == dst) {
            return FindStep{FindStep::Kind::Found, slot, w.width()};
        }
        empty = empty || w.state(slot) == CellState::Empty;
    }
    return FindStep{empty ? FindStep::Kind::Absent : FindStep::Kind::Descend,
                    0, w.width()};
}

TEST(ProbeKernel, FullScanAbsentNeedsAnEmptyCell) {
    // Without Robin Hood order an EMPTY cell anywhere in the window proves
    // a missed key absent below (a window that links a child is full).
    // Tombstones prove nothing, so a window of live cells and tombstones
    // descends. SIMD and scalar must agree with the reference on both.
    std::mt19937 rng(20261017);
    int absent = 0;
    int descend = 0;
    for (int round = 0; round < 400; ++round) {
        const std::uint32_t width = 1U << (2 + rng() % 5);  // 4..64
        TestWindow w(width);
        for (std::uint32_t slot = 0; slot < width; ++slot) {
            w.occupy(slot, 1 + rng() % 64, 0);
            if (rng() % 4 == 0) {
                w.bury(slot);
            }
        }
        if (rng() % 2 == 0) {
            for (std::uint32_t k = 1 + rng() % 3; k > 0; --k) {
                const std::uint64_t bit = 1ULL << (rng() % width);
                w.occ &= ~bit;
                w.tomb &= ~bit;
            }
        }
        const VertexId dst = 1 + rng() % 64;
        const FindStep ref = reference_find_full(w, dst);
        const FindStep scalar = find_step_full<false>(w.view(), dst);
        const FindStep simd = find_step_full<true>(w.view(), dst);
        for (const FindStep* step : {&scalar, &simd}) {
            ASSERT_EQ(step->kind, ref.kind) << "round " << round;
            EXPECT_EQ(step->scanned, ref.scanned) << "round " << round;
            if (ref.kind == FindStep::Kind::Found) {
                EXPECT_EQ(step->slot, ref.slot) << "round " << round;
            }
        }
        absent += ref.kind == FindStep::Kind::Absent ? 1 : 0;
        descend += ref.kind == FindStep::Kind::Descend ? 1 : 0;
    }
    EXPECT_GT(absent, 0);
    EXPECT_GT(descend, 0);
}

TEST(ProbeKernel, RandomizedPropertySweep) {
    std::mt19937 rng(20260806);
    for (int round = 0; round < 200; ++round) {
        const std::uint32_t width = 1U << (2 + rng() % 5);  // 4..64
        TestWindow w(width);
        for (std::uint32_t slot = 0; slot < width; ++slot) {
            const std::uint32_t roll = rng() % 10;
            if (roll < 5) {
                w.occupy(slot, 1 + rng() % 32,
                         static_cast<std::uint32_t>(rng() % width));
            } else if (roll < 7) {
                w.occupy(slot, 1 + rng() % 32, 0);
                w.bury(slot);
            }
        }
        const std::uint32_t home = rng() % width;
        const VertexId dst = 1 + rng() % 32;  // often collides with residents
        expect_find_agreement(w, home, dst);
        expect_probe_agreement(w, home, dst);
    }
}

}  // namespace
}  // namespace gt::core

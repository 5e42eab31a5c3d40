// Central registry of fail-point site names.
//
// Every GT_FAILPOINT("<name>") in the tree must name an entry here, and
// every entry must be exercised by at least one test — both directions are
// enforced by tools/gt_lint.py (rule: failpoint-registry). The registry
// exists so a fail point can't silently rot: renaming a site without
// updating its tests, or adding an injection hook nobody ever fires, fails
// the lint run instead of shipping dead error-handling paths.
//
// Keep the list sorted. The comment after each name says where the site
// lives and what failure it simulates.
#pragma once

#include <array>
#include <string_view>

namespace gt::fail {

inline constexpr std::array<std::string_view, 13> kKnownSites = {
    "cal.grow",    // src/core/cal.cpp — CAL block allocation during append
    "eba.grow",    // src/core/edgeblock_array.cpp — edgeblock pool growth
    "net.client.drop_frame",  // src/net/client.cpp — a decoded reply frame
                              // vanishes (lost response; resend path)
    "net.connect.stall",      // src/net/io.cpp — connect to a host that
                              // never answers the SYN (deadline path)
    "net.recv.eintr",         // src/net/io.cpp — EINTR storm inside recv
    "net.recv.reset",         // src/net/io.cpp — ECONNRESET on recv
    "net.recv.stall",         // src/net/io.cpp — peer accepts then goes
                              // silent mid-frame (deadline path)
    "net.send.eintr",         // src/net/io.cpp — EINTR storm inside send
    "net.send.reset",         // src/net/io.cpp — ECONNRESET on send
    "net.send.short",         // src/net/io.cpp — kernel takes one byte
                              // (partial-send reassembly)
    "txn.preflight",  // src/core/graphtinker.cpp — a batch's scratch
                      // reservation, before the log stages the batch
    "wal.commit",  // src/recover/wal.cpp — commit-record write/fsync
    "wal.stage",   // src/recover/wal.cpp — payload staging write
};

}  // namespace gt::fail

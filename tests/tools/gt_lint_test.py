#!/usr/bin/env python3
"""Tests for tools/gt_lint.py — every rule proven on golden fixtures.

Each test builds a throwaway mini-tree (src/ + tests/) under a tempdir,
runs the linter's library entry point against it, and asserts on the rule
names that fire. The last test runs the linter over the real repository
and requires a clean bill — the same invocation CI's static-analysis job
makes. Wired through CTest (tests/CMakeLists.txt, test name `gt_lint_py`);
also runnable directly: python3 tests/tools/gt_lint_test.py.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gt_lint  # noqa: E402


def lint_tree(files: dict[str, str]) -> list[gt_lint.Diagnostic]:
    """Materializes {relpath: content} into a temp tree and lints it."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        (root / "src").mkdir()
        (root / "tests").mkdir()
        for rel, content in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content)
        return gt_lint.run(root)


def rules_fired(diags: list[gt_lint.Diagnostic]) -> set[str]:
    return {d.rule for d in diags}


class RawMutexRule(unittest.TestCase):
    def test_flags_std_mutex_outside_wrapper(self):
        diags = lint_tree({
            "src/core/foo.cpp": "#include <mutex>\nstd::mutex m;\n",
        })
        self.assertEqual(rules_fired(diags), {"raw-mutex"})
        self.assertEqual(len(diags), 2)  # the include and the declaration

    def test_wrapper_header_is_exempt(self):
        diags = lint_tree({
            "src/util/mutex.hpp": "#include <mutex>\nstd::mutex raw_;\n",
        })
        self.assertEqual(diags, [])

    def test_mentions_in_comments_and_strings_ignored(self):
        diags = lint_tree({
            "src/core/foo.cpp":
                "// std::mutex is banned here\n"
                'const char* s = "std::lock_guard";\n',
        })
        self.assertEqual(diags, [])

    def test_suppression_with_reason_waives(self):
        diags = lint_tree({
            "src/core/foo.cpp":
                "std::mutex m;  "
                "// gt-lint: allow(raw-mutex) FFI needs the raw type\n",
        })
        self.assertEqual(diags, [])

    def test_suppression_without_reason_is_a_finding(self):
        diags = lint_tree({
            "src/core/foo.cpp":
                "std::mutex m;  // gt-lint: allow(raw-mutex)\n",
        })
        self.assertEqual(rules_fired(diags), {"suppression-needs-reason"})

    def test_oneshot_rendezvous_primitives_flagged(self):
        diags = lint_tree({
            "src/core/foo.cpp":
                "#include <latch>\n"
                "std::counting_semaphore<4> slots(4);\n"
                "std::future<int> f = std::async(work);\n"
                "std::barrier sync(3);\n",
        })
        self.assertEqual(rules_fired(diags), {"raw-mutex"})
        self.assertEqual(len(diags), 4)

    def test_wrapper_header_exempt_from_extended_ban(self):
        diags = lint_tree({
            "src/util/mutex.hpp": "#include <semaphore>\nstd::latch l(2);\n",
        })
        self.assertEqual(diags, [])


class TxnNoThrowRule(unittest.TestCase):
    def test_flags_resize_inside_mutation_window(self):
        diags = lint_tree({
            "src/core/txn.cpp":
                "void f() {\n"
                "    // gt-txn: first-mutation\n"
                "    journal_.resize(10);\n"
                "    // gt-txn: commit\n"
                "}\n",
        })
        self.assertEqual(rules_fired(diags), {"txn-no-throw"})

    def test_preflight_tag_waives(self):
        diags = lint_tree({
            "src/core/txn.cpp":
                "void f() {\n"
                "    // gt-txn: first-mutation\n"
                "    j_.resize(10);  // gt-txn: preflight capacity reserved\n"
                "    // gt-txn: commit\n"
                "}\n",
        })
        self.assertEqual(diags, [])

    def test_rethrow_is_not_a_throwing_construct(self):
        diags = lint_tree({
            "src/core/txn.cpp":
                "void f() {\n"
                "    // gt-txn: first-mutation\n"
                "    try { g(); } catch (...) { undo(); throw; }\n"
                "    // gt-txn: commit\n"
                "}\n",
        })
        self.assertEqual(diags, [])

    def test_throw_expression_flagged(self):
        diags = lint_tree({
            "src/core/txn.cpp":
                "void f() {\n"
                "    // gt-txn: first-mutation\n"
                "    throw std::runtime_error(\"boom\");\n"
                "    // gt-txn: commit\n"
                "}\n",
        })
        self.assertEqual(rules_fired(diags), {"txn-no-throw"})

    def test_unclosed_region_flagged(self):
        diags = lint_tree({
            "src/core/txn.cpp":
                "void f() {\n"
                "    // gt-txn: first-mutation\n"
                "}\n",
        })
        self.assertEqual(rules_fired(diags), {"txn-no-throw"})
        self.assertIn("never reaches", diags[0].message)


FAILPOINT_REGISTRY = (
    "#pragma once\n"
    "inline constexpr std::array<std::string_view, 1> kKnownSites = {\n"
    '    "wal.stage",  // staging write\n'
    "};\n"
)


class FailpointRegistryRule(unittest.TestCase):
    def test_unregistered_site_flagged(self):
        diags = lint_tree({
            "src/util/failpoint_registry.hpp": FAILPOINT_REGISTRY,
            "src/recover/inject.cpp": 'GT_FAILPOINT("wal.surprise");\n',
            "tests/recover/t.cpp": '"wal.stage" "wal.surprise"\n',
        })
        self.assertEqual(rules_fired(diags), {"failpoint-registry"})
        self.assertIn("wal.surprise", diags[0].message)

    def test_untested_registry_entry_flagged(self):
        diags = lint_tree({
            "src/util/failpoint_registry.hpp": FAILPOINT_REGISTRY,
            "src/recover/inject.cpp": 'GT_FAILPOINT("wal.stage");\n',
            "tests/recover/t.cpp": "// no mention of the site\n",
        })
        self.assertEqual(rules_fired(diags), {"failpoint-registry"})
        self.assertIn("never exercised", diags[0].message)

    def test_registered_and_tested_is_clean(self):
        diags = lint_tree({
            "src/util/failpoint_registry.hpp": FAILPOINT_REGISTRY,
            "src/recover/inject.cpp": 'GT_FAILPOINT("wal.stage");\n',
            "tests/recover/t.cpp": 'fail::enable("wal.stage");\n',
        })
        self.assertEqual(diags, [])

    def test_tree_without_failpoints_needs_no_registry(self):
        diags = lint_tree({"src/core/foo.cpp": "int x;\n"})
        self.assertEqual(diags, [])


class ObsHotLookupRule(unittest.TestCase):
    def test_per_call_lookup_flagged(self):
        diags = lint_tree({
            "src/core/hot.cpp": 'r.counter("gt.ops").inc();\n',
        })
        self.assertEqual(rules_fired(diags), {"obs-hot-lookup"})

    def test_handle_bind_is_clean(self):
        diags = lint_tree({
            "src/core/hot.cpp":
                'ops_ = &r.counter("gt.ops");\n'
                'lat_ =\n'
                '    &registry->histogram("gt.lat");\n',
        })
        self.assertEqual(diags, [])

    def test_gauges_and_obs_layer_are_exempt(self):
        diags = lint_tree({
            # Gauges: set only on the cold telemetry() pull path.
            "src/core/cold.cpp": 'r.gauge("gt.edges").set(1.0);\n',
            # The registry implementation itself may name its own methods.
            "src/obs/metrics.cpp": 'row = counter(name); x.counter("n");\n',
        })
        self.assertEqual(diags, [])


def wal_fixture(record_hdr: str, magic: str) -> dict[str, str]:
    return {
        "src/recover/wal.cpp":
            "constexpr std::size_t kRecordHeaderBytes =\n"
            f"    {record_hdr};\n"
            "constexpr std::size_t kFileHeaderBytes = "
            "sizeof(std::uint32_t) * 2;\n",
        "src/recover/wal.hpp":
            f"inline constexpr std::uint32_t kWalMagic = {magic};\n"
            "inline constexpr std::uint32_t kWalVersion = 1;\n",
        "tests/recover/wal_golden_test.cpp":
            "    append_u32(expected, 0x4754574CU);  // magic\n"
            "    append_u32(expected, 1);            // version\n",
    }


class WalLayoutRule(unittest.TestCase):
    def test_matching_layout_is_clean(self):
        diags = lint_tree(wal_fixture(
            "sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) + 1",
            "0x4754574C"))
        self.assertEqual(diags, [])

    def test_record_header_drift_flagged(self):
        diags = lint_tree(wal_fixture(
            "sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t)",  # 16 != 17
            "0x4754574C"))
        self.assertEqual(rules_fired(diags), {"wal-layout"})
        self.assertIn("kRecordHeaderBytes", diags[0].message)

    def test_magic_drift_flagged(self):
        diags = lint_tree(wal_fixture(
            "sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) + 1",
            "0x4754574D"))
        self.assertEqual(rules_fired(diags), {"wal-layout"})
        self.assertIn("kWalMagic", diags[0].message)


def sharded_fixture(body: str) -> dict[str, str]:
    return {
        "src/core/sharded.hpp":
            "template <typename Store>\n"
            "class ShardedStore {\n"
            "public:\n"
            + body +
            "};\n",
    }


class ShardFlushBeforeReadRule(unittest.TestCase):
    def test_undrained_store_read_flagged(self):
        diags = lint_tree(sharded_fixture(
            "    EdgeCount num_edges() const {\n"
            "        EdgeCount total = 0;\n"
            "        for (const auto& sh : shards_) {\n"
            "            total += sh->store->num_edges();\n"
            "        }\n"
            "        return total;\n"
            "    }\n"))
        self.assertEqual(rules_fired(diags), {"shard-flush-before-read"})
        self.assertIn("num_edges", diags[0].message)

    def test_barrier_before_read_is_clean(self):
        diags = lint_tree(sharded_fixture(
            "    EdgeCount num_edges() const {\n"
            "        drain();\n"
            "        EdgeCount total = 0;\n"
            "        for (const auto& sh : shards_) {\n"
            "            total += sh->store->num_edges();\n"
            "        }\n"
            "        return total;\n"
            "    }\n"
            "    Store& shard(std::size_t i) {\n"
            "        shards_[i]->queue.wait_idle();\n"
            "        return *shards_[i]->store;\n"
            "    }\n"))
        self.assertEqual(diags, [])

    def test_barrier_after_read_still_flagged(self):
        diags = lint_tree(sharded_fixture(
            "    void telemetry() {\n"
            "        gauge_->set(shards_[0]->store->num_edges());\n"
            "        drain();\n"
            "    }\n"))
        self.assertEqual(rules_fired(diags), {"shard-flush-before-read"})

    def test_declarations_and_other_classes_ignored(self):
        diags = lint_tree({
            "src/core/sharded.hpp":
                "class ShardedStore {\n"
                "    EdgeCount num_edges() const;  // defined elsewhere\n"
                "};\n",
            # No `class ShardedStore` here: aggregate reads are fine.
            "src/core/other.cpp":
                "EdgeCount num_edges() { return store->count(); }\n",
        })
        self.assertEqual(diags, [])

    def test_suppression_with_reason_waives(self):
        diags = lint_tree(sharded_fixture(
            "    void telemetry() {\n"
            "        x_ = shards_[0]->store;  "
            "// gt-lint: allow(shard-flush-before-read) pointer only\n"
            "        drain();\n"
            "    }\n"))
        self.assertEqual(diags, [])


class RawSocketIoRule(unittest.TestCase):
    def test_raw_send_outside_io_flagged(self):
        diags = lint_tree({
            "src/net/server.cpp":
                "void f(int fd) { ::send(fd, p, n, 0); }\n",
        })
        self.assertEqual(rules_fired(diags), {"raw-socket-io"})

    def test_raw_recv_in_tests_flagged(self):
        diags = lint_tree({
            "tests/net/x_test.cpp":
                "void f(int fd) { ::recv(fd, p, n, 0); }\n",
        })
        self.assertEqual(rules_fired(diags), {"raw-socket-io"})

    def test_io_pair_is_exempt(self):
        diags = lint_tree({
            "src/net/io.cpp":
                "void f(int fd) { ::send(fd, p, n, 0); "
                "::write(fd, p, n); }\n",
        })
        self.assertEqual(diags, [])

    def test_write_inside_net_flagged_but_legal_elsewhere(self):
        diags = lint_tree({
            "src/net/server.cpp": "void f(int fd) { ::write(fd, p, 1); }\n",
            "src/recover/files.cpp":
                "void g(int fd) { ::write(fd, p, 1); }\n",
        })
        self.assertEqual(rules_fired(diags), {"raw-socket-io"})
        self.assertEqual(len(diags), 1)
        self.assertIn("net", str(diags[0].path))

    def test_qualified_wrappers_not_matched(self):
        diags = lint_tree({
            "src/net/client.cpp":
                "void f() { net::send_all(fd, buf, deadline); "
                "send_some(fd, p, n, m); }\n",
        })
        self.assertEqual(diags, [])

    def test_suppression_with_reason_waives(self):
        diags = lint_tree({
            "src/core/probe.cpp":
                "void f(int fd) { ::recv(fd, p, n, 0); "
                "// gt-lint: allow(raw-socket-io) perf probe\n}\n",
        })
        self.assertEqual(diags, [])


class DeadlineDisciplineRule(unittest.TestCase):
    def test_raw_connect_and_accept_flagged(self):
        diags = lint_tree({
            "src/net/client.cpp":
                "void f(int fd, sockaddr* a) {\n"
                "    ::connect(fd, a, sizeof *a);\n"
                "    int c = ::accept(fd, nullptr, nullptr);\n"
                "}\n",
        })
        self.assertEqual(rules_fired(diags), {"deadline-discipline"})
        self.assertEqual(len(diags), 2)
        self.assertIn("tcp_connect", diags[0].message)

    def test_unbounded_blocking_call_flagged(self):
        diags = lint_tree({
            "src/net/client.cpp":
                "void f(int fd) { (void)recv_exact(fd, p, n); }\n",
        })
        self.assertEqual(rules_fired(diags), {"deadline-discipline"})
        self.assertIn("unbounded", diags[0].message)

    def test_deadline_argument_satisfies_the_rule(self):
        diags = lint_tree({
            "src/net/client.cpp":
                "void f(int fd) {\n"
                "    (void)send_all(fd, buf, Deadline::after(ms));\n"
                "    (void)recv_exact(fd, p, n, op_deadline());\n"
                '    (void)tcp_connect("h", 1, fd, connect_timeout);\n'
                "}\n",
        })
        self.assertEqual(diags, [])

    def test_deadline_on_continuation_line_is_seen(self):
        diags = lint_tree({
            "src/net/client.cpp":
                "void f(int fd) {\n"
                "    (void)send_all(fd, buf,\n"
                "                   deadline);\n"
                "}\n",
        })
        self.assertEqual(diags, [])

    def test_io_implementation_and_non_net_code_exempt(self):
        diags = lint_tree({
            # io.cpp IS the deadline machinery; a benchmark's accept(4)
            # helper is out of scope.
            "src/net/io.cpp":
                "void f(int fd, sockaddr* a) { ::connect(fd, a, 4); }\n",
            "bench/harness.cpp":
                "void g(int fd) { ::accept(fd, nullptr, nullptr); }\n",
        })
        self.assertEqual(diags, [])

    def test_suppression_with_reason_waives(self):
        diags = lint_tree({
            "src/net/probe.cpp":
                "void f(int fd) { (void)send_all(fd, b); "
                "// gt-lint: allow(deadline-discipline) shutdown path\n"
                "}\n",
        })
        self.assertEqual(diags, [])


class RealTree(unittest.TestCase):
    def test_repository_is_clean(self):
        diags = gt_lint.run(REPO_ROOT)
        self.assertEqual(
            [d.render(REPO_ROOT) for d in diags], [],
            "the committed tree must lint clean — fix the finding or "
            "suppress it inline with a reason")


if __name__ == "__main__":
    unittest.main()

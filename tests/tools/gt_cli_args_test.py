#!/usr/bin/env python3
"""Argument checks of the gt commands.

A port past 65535 or any number that is not a plain decimal in range must
be a usage error (exit 2) before anything binds, dials, spawns or writes:
`gt ping` must not dial a truncated port, `gt serve` must not start serving
on one, `gt remote-load` must not stream empty batches forever, and a
mistyped flag must not read as a step count of 0. Each case runs with a
short timeout, so a command that starts a daemon instead fails the test
(and is killed) rather than hanging it.

Wired through CTest (tests/CMakeLists.txt, test name `gt_cli_args_py`);
also runnable directly: python3 tests/tools/gt_cli_args_test.py <path/to/gt>.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

GT = ""
TIMEOUT_S = 5


def run_gt(*args: str) -> int:
    """Runs gt; returns its exit code, or fails if it is still running."""
    proc = subprocess.Popen([GT, *args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise AssertionError(
            "gt %s still running after %d s (left serving)"
            % (" ".join(args), TIMEOUT_S))


class UsageErrors(unittest.TestCase):
    def setUp(self) -> None:
        self.root = tempfile.TemporaryDirectory()
        self.addCleanup(self.root.cleanup)
        self.edges = Path(self.root.name) / "g.el"
        self.edges.write_text("0 1\n1 2\n2 3\n")
        self.dir = str(Path(self.root.name) / "db")

    def test_generate_rmat_vertices_not_a_number(self) -> None:
        self.assertEqual(run_gt("generate", "rmat:-1:5"), 2)

    def test_audit_seed_not_a_number(self) -> None:
        self.assertEqual(run_gt("audit", "rmat:100:50", "12x"), 2)

    def test_wal_dump_limit_not_a_number(self) -> None:
        self.assertEqual(run_gt("wal-dump", self.dir, "abc"), 2)

    def test_torture_writer_flag_typo_is_not_a_step_count(self) -> None:
        self.assertEqual(run_gt("torture-writer", self.dir, "5", "--fsnyc"),
                         2)
        self.assertFalse(Path(self.dir).exists())

    def test_torture_verify_seed_not_a_number(self) -> None:
        self.assertEqual(run_gt("torture-verify", self.dir, "abc"), 2)

    def test_replicate_heartbeat_not_a_number(self) -> None:
        self.assertEqual(
            run_gt("replicate", self.root.name, "127.0.0.1:1", "g",
                   "--heartbeat-ms", "abc"),
            2)

    def test_remote_bfs_root_not_a_number(self) -> None:
        self.assertEqual(
            run_gt("remote-bfs", "127.0.0.1:1", "g", "12abc", "3"), 2)

    def test_remote_torture_write_steps_not_a_number(self) -> None:
        self.assertEqual(
            run_gt("remote-torture-write", "127.0.0.1:1", "g", "7", "x"), 2)

    def test_trace_root_not_a_number(self) -> None:
        self.assertEqual(run_gt("trace", str(self.edges), "-1"), 2)

    def test_bfs_root_not_a_number(self) -> None:
        self.assertEqual(run_gt("bfs", str(self.edges), "12abc"), 2)

    def test_pagerank_top_k_not_a_number(self) -> None:
        self.assertEqual(run_gt("pagerank", str(self.edges), "abc"), 2)

    def test_ping_port_out_of_range(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:70000"), 2)

    def test_ping_port_not_a_number(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:abc"), 2)

    def test_ping_count_not_a_number(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:1", "abc"), 2)

    def test_remote_load_batch_not_positive(self) -> None:
        for batch in ("abc", "0"):
            self.assertEqual(
                run_gt("remote-load", "127.0.0.1:1", "g", str(self.edges),
                       batch),
                2)

    def test_serve_port_out_of_range(self) -> None:
        self.assertEqual(run_gt("serve", self.root.name, "--port", "70000"),
                         2)

    def test_serve_readers_not_a_number(self) -> None:
        self.assertEqual(
            run_gt("serve", self.root.name, "--readers", "x"), 2)

    def test_serve_loops_is_gone(self) -> None:
        self.assertEqual(
            run_gt("serve", self.root.name, "--loops", "2"), 2)

    def test_replicate_port_out_of_range(self) -> None:
        self.assertEqual(
            run_gt("replicate", self.root.name, "127.0.0.1:1", "g",
                   "--port", "70000"),
            2)


class RootsPastTheVertexBound(unittest.TestCase):
    """A root the store has never seen reaches nothing and must not crash:
    2^32 - 1 used to wrap the engine's array size to 0 (SIGSEGV)."""

    def test_bfs_root_max_vertex_id(self) -> None:
        with tempfile.TemporaryDirectory() as root:
            edges = Path(root) / "g.el"
            edges.write_text("0 1\n1 2\n2 3\n")
            for command in ("bfs", "trace"):
                self.assertEqual(run_gt(command, str(edges), "4294967295"),
                                 0, command)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: gt_cli_args_test.py <path/to/gt> [unittest args]")
    GT = sys.argv.pop(1)
    unittest.main()

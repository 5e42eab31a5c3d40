#!/usr/bin/env python3
"""Argument checks of the gt network commands.

A port past 65535 or a count that is not a plain decimal must be a usage
error (exit 2) before anything binds, dials or spawns: `gt ping` must not
dial a truncated port, `gt serve` must not start serving on one, and
`gt remote-load` must not stream empty batches forever. Each
case runs with a short timeout, so a command that starts a daemon instead
fails the test (and is killed) rather than hanging it.

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

    def test_ping_port_out_of_range(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:70000"), 2)

    def test_ping_port_not_a_number(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:abc"), 2)

    def test_ping_count_not_a_number(self) -> None:
        self.assertEqual(run_gt("ping", "127.0.0.1:1", "abc"), 2)

    def test_remote_load_batch_not_positive(self) -> None:
        edges = Path(self.root.name) / "g.el"
        edges.write_text("0 1\n")
        for batch in ("abc", "0"):
            self.assertEqual(
                run_gt("remote-load", "127.0.0.1:1", "g", str(edges), batch),
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


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: gt_cli_args_test.py <path/to/gt> [unittest args]")
    GT = sys.argv.pop(1)
    unittest.main()

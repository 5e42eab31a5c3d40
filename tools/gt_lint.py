#!/usr/bin/env python3
"""GraphTinker domain linter.

Enforces repo-specific invariants that neither the compiler nor clang-tidy
can see (and that must hold even on machines without clang at all):

  raw-mutex           std::mutex / std::lock_guard / <mutex> may appear only
                      in src/util/mutex.hpp. Everything else goes through
                      the annotated gt::Mutex wrappers so Clang thread-safety
                      analysis covers every lock in the tree. The ban also
                      covers the one-shot rendezvous primitives (semaphore,
                      latch, barrier, future/promise/async): the pipelined
                      ingest model forbids ad-hoc barriers — synchronize
                      through HandoffQueue epochs or an annotated wrapper.
  txn-no-throw        between a `// gt-txn: first-mutation` marker and its
                      `// gt-txn: commit`, no throwing construct (raw `new`,
                      `.resize(`, `throw <expr>`, `.at(`) may appear unless
                      the line carries a `// gt-txn: preflight` tag. This is
                      the no-throw-after-first-mutation contract that makes
                      mid-batch failures roll-backable from the undo journal.
  failpoint-registry  every GT_FAILPOINT("<name>") site must name an entry
                      in src/util/failpoint_registry.hpp, and every registry
                      entry must be exercised by at least one test file.
  obs-hot-lookup      counter/histogram/series registry lookups in src/ must
                      bind a handle (`x_ = &reg.counter("...")`) — per-call
                      lookups take the registry lock on hot paths. Gauges are
                      exempt: they are set only on the cold telemetry() pull
                      path. src/obs/ (the registry implementation) is exempt.
  wal-layout          the WAL layout constants in src/recover/wal.cpp and
                      the magic/version in src/recover/wal.hpp must agree
                      with the byte layout the golden-file test assembles by
                      hand (tests/recover/wal_golden_test.cpp).
  shard-flush-before-read
                      in any file that defines `class ShardedStore`, the
                      aggregate read methods (num_edges, find_edge, shard,
                      telemetry, serialize, save_snapshot) must hit a
                      pipeline barrier (drain() / flush() / wait_idle())
                      before dereferencing a shard's store — reading a
                      pipelined store without draining returns data from an
                      unknown epoch.

Any finding can be waived inline with

    // gt-lint: allow(<rule>) <reason>

on the offending line; a suppression without a reason is itself an error.
Stdlib-only; run as `python3 tools/gt_lint.py` from anywhere in the repo.
Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path
from typing import Iterator


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    path: Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


_SUPPRESS_RE = re.compile(r"//\s*gt-lint:\s*allow\(([a-z0-9-]+)\)\s*(.*)$")


def _strip_code(lines: list[str]) -> list[str]:
    """Lines with string/char literals and comments blanked out.

    Good enough for pattern rules: handles // and /* */ comments, "..." and
    '...' literals with backslash escapes. Column positions are preserved.
    """
    out: list[str] = []
    in_block = False
    for line in lines:
        buf: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif line.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


@dataclasses.dataclass
class SourceFile:
    path: Path
    lines: list[str]
    code: list[str]  # literals/comments blanked, same line numbering
    # line number -> set of rule names allowed on that line
    suppressions: dict[int, set[str]]

    @classmethod
    def load(cls, path: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        suppressions: dict[int, set[str]] = {}
        for no, line in enumerate(lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                suppressions.setdefault(no, set()).add(m.group(1))
        return cls(path, lines, _strip_code(lines), suppressions)

    def suppressed(self, line_no: int, rule: str) -> bool:
        return rule in self.suppressions.get(line_no, set())


class Rule:
    """A named check. Subclasses override check() (per file) and/or
    check_tree() (cross-file)."""

    name = "rule"

    def check(self, f: SourceFile) -> Iterator[Diagnostic]:
        return iter(())

    def check_tree(self, files: dict[Path, SourceFile],
                   root: Path) -> Iterator[Diagnostic]:
        return iter(())

    def diag(self, f: SourceFile, line_no: int, msg: str) -> Diagnostic:
        return Diagnostic(f.path, line_no, self.name, msg)


class RawMutexRule(Rule):
    """std:: locking primitives live only behind src/util/mutex.hpp."""

    name = "raw-mutex"
    _exempt = Path("src/util/mutex.hpp")
    _banned = re.compile(
        r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"lock_guard|unique_lock|shared_lock|scoped_lock|"
        r"condition_variable\w*|counting_semaphore|binary_semaphore|"
        r"latch|barrier|future|shared_future|promise|packaged_task|"
        r"async)\b"
        r"|#\s*include\s*<(mutex|shared_mutex|condition_variable|"
        r"semaphore|latch|barrier|future)>")

    def check(self, f: SourceFile) -> Iterator[Diagnostic]:
        for no, code in enumerate(f.code, start=1):
            m = self._banned.search(code)
            if m is None or f.suppressed(no, self.name):
                continue
            what = m.group(0).strip()
            yield self.diag(
                f, no,
                f"raw synchronization primitive `{what}` outside "
                "src/util/mutex.hpp — use the annotated gt:: wrappers "
                "(gt::Mutex, gt::LockGuard, gt::CondVar) or the HandoffQueue "
                "epochs so thread-safety analysis sees every rendezvous")


class TxnNoThrowRule(Rule):
    """No throwing constructs between first-mutation and commit markers."""

    name = "txn-no-throw"
    _begin = re.compile(r"//\s*gt-txn:\s*first-mutation\b")
    _end = re.compile(r"//\s*gt-txn:\s*commit\b")
    _preflight = re.compile(r"//\s*gt-txn:\s*preflight\b")
    # `throw;` (rethrow during unwind) is fine — it allocates nothing.
    _throwing = re.compile(
        r"(?P<what>\bnew\b|\.resize\(|\.at\(|\bthrow\s+[^;\s])")

    def check(self, f: SourceFile) -> Iterator[Diagnostic]:
        open_since: int | None = None
        for no, raw in enumerate(f.lines, start=1):
            if self._begin.search(raw):
                if open_since is not None:
                    yield self.diag(
                        f, no,
                        "nested gt-txn: first-mutation marker (previous "
                        f"region opened at line {open_since} never hit its "
                        "commit marker)")
                open_since = no
                continue
            if self._end.search(raw):
                open_since = None
                continue
            if open_since is None:
                continue
            m = self._throwing.search(f.code[no - 1])
            if m is None:
                continue
            if self._preflight.search(raw) or f.suppressed(no, self.name):
                continue
            yield self.diag(
                f, no,
                f"throwing construct `{m.group('what').strip()}` inside the "
                f"mutation window opened at line {open_since} — an exception "
                "here strands a half-applied batch; pre-flight the "
                "allocation before the first mutation (tag the line "
                "`// gt-txn: preflight` if it provably cannot throw)")
        if open_since is not None:
            yield self.diag(
                f, open_since,
                "gt-txn: first-mutation region never reaches a "
                "`// gt-txn: commit` marker in this file")


class FailpointRegistryRule(Rule):
    """GT_FAILPOINT sites <-> registry <-> tests, all three in sync."""

    name = "failpoint-registry"
    registry_path = Path("src/util/failpoint_registry.hpp")
    _site = re.compile(r"GT_FAILPOINT(?:_HIT)?\(\s*\"([^\"]+)\"\s*\)")
    _entry = re.compile(r"^\s*\"([^\"]+)\"\s*,")

    def _sites(self, files: dict[Path, SourceFile],
               root: Path) -> Iterator[tuple[SourceFile, int, str]]:
        for f in files.values():
            if (root / "src") not in f.path.parents:
                continue
            for no, raw in enumerate(f.lines, start=1):
                m = self._site.search(raw)
                if m is None:
                    continue
                # The site name itself is a string literal, so match the raw
                # line — but require the macro token to survive comment
                # stripping, which drops doc-comment mentions of the macro.
                if "GT_FAILPOINT" not in f.code[no - 1]:
                    continue
                yield f, no, m.group(1)

    def check_tree(self, files: dict[Path, SourceFile],
                   root: Path) -> Iterator[Diagnostic]:
        sites = list(self._sites(files, root))
        reg_file = files.get(root / self.registry_path)
        if reg_file is None:
            if sites:  # a tree with no fail points needs no registry
                f, no, name = sites[0]
                yield Diagnostic(
                    root / self.registry_path, 1, self.name,
                    f"fail-point registry header is missing but "
                    f"GT_FAILPOINT(\"{name}\") exists at "
                    f"{f.path}:{no}")
            return
        registry: dict[str, int] = {}
        for no, raw in enumerate(reg_file.lines, start=1):
            m = self._entry.match(raw)
            if m:
                registry[m.group(1)] = no

        test_blob = "\n".join(
            f.path.read_text(encoding="utf-8", errors="replace")
            for f in files.values()
            if (root / "tests") in f.path.parents)

        for f, no, name in sites:
            if f.suppressed(no, self.name):
                continue
            if name not in registry:
                yield self.diag(
                    f, no,
                    f"fail point \"{name}\" is not listed in "
                    f"{self.registry_path} — register it (and add a "
                    "test that fires it)")

        for name, no in sorted(registry.items()):
            if f'"{name}"' not in test_blob:
                yield Diagnostic(
                    reg_file.path, no, self.name,
                    f"registered fail point \"{name}\" is never exercised "
                    "by any file under tests/ — a fail point nobody fires "
                    "is a dead error-handling path")


class ObsHotLookupRule(Rule):
    """Registry metric lookups in src/ must bind handles, not record."""

    name = "obs-hot-lookup"
    # `.counter("` / `->histogram("` etc. NOT preceded by `&` (handle bind).
    _lookup = re.compile(
        r"(?P<amp>&\s*)?[A-Za-z_]\w*\s*(?:\.|->)\s*"
        r"(?P<kind>counter|histogram|series)\s*\(")

    def check(self, f: SourceFile) -> Iterator[Diagnostic]:
        for no, code in enumerate(f.code, start=1):
            for m in self._lookup.finditer(code):
                if m.group("amp"):
                    continue
                # Continuation-line binds: `x_ =\n    &reg.counter(` keep
                # the & on this line, so only a truly bare lookup gets here.
                if f.suppressed(no, self.name):
                    continue
                yield self.diag(
                    f, no,
                    f"per-call registry .{m.group('kind')}() lookup — "
                    "resolve the handle once at construction "
                    "(`x_ = &registry." + m.group("kind") + "(...)`) and "
                    "record through it lock-free")


class WalLayoutRule(Rule):
    """wal.cpp layout constants must match the hand-assembled golden test."""

    name = "wal-layout"
    wal_cpp = Path("src/recover/wal.cpp")
    wal_hpp = Path("src/recover/wal.hpp")
    golden = Path("tests/recover/wal_golden_test.cpp")

    _sizeof = {
        "std::uint8_t": 1, "std::uint16_t": 2,
        "std::uint32_t": 4, "std::uint64_t": 8,
    }

    def _eval_bytes(self, expr: str) -> int | None:
        """Evaluates a `sizeof(T) * k + ...` constant expression."""
        expr = re.sub(
            r"sizeof\(\s*([:\w]+)\s*\)",
            lambda m: str(self._sizeof.get(m.group(1), 0)) or "BAD",
            expr)
        if not re.fullmatch(r"[\d\s+*()]+", expr):
            return None
        try:
            return int(eval(expr, {"__builtins__": {}}))  # noqa: S307
        except (SyntaxError, ValueError, ZeroDivisionError):
            return None

    def _const(self, f: SourceFile, name: str) -> tuple[int, int] | None:
        """(value, line) of `constexpr ... name = <expr>;` in f."""
        text = "\n".join(f.code)
        m = re.search(name + r"\s*=\s*([^;]+);", text)
        if m is None:
            return None
        value = self._eval_bytes(m.group(1))
        if value is None:
            # Hex literal (magic numbers).
            lit = re.search(r"0x[0-9A-Fa-f]+|\d+", m.group(1))
            if lit is None:
                return None
            value = int(lit.group(0), 0)
        line = text[:m.start()].count("\n") + 1
        return value, line

    def check_tree(self, files: dict[Path, SourceFile],
                   root: Path) -> Iterator[Diagnostic]:
        cpp = files.get(root / self.wal_cpp)
        hpp = files.get(root / self.wal_hpp)
        gold = files.get(root / self.golden)
        if cpp is None and hpp is None and gold is None:
            return  # tree has no WAL layer — nothing to pin
        for need, path in ((cpp, self.wal_cpp), (hpp, self.wal_hpp),
                           (gold, self.golden)):
            if need is None:
                yield Diagnostic(root / path, 1, self.name,
                                 f"{path} not found — cannot pin WAL layout")
                return

        # The golden test assembles a record as
        #   u32 crc | u32 len | u64 seq | u8 type   (= 17 bytes)
        # over an 8-byte file header; those sizes are structural in the
        # append_u32/append_u64/push_back calls, pinned here as literals.
        golden_record_header = 17
        golden_file_header = 8

        for name, expect in (("kRecordHeaderBytes", golden_record_header),
                             ("kFileHeaderBytes", golden_file_header)):
            got = self._const(cpp, name)
            if got is None:
                yield Diagnostic(cpp.path, 1, self.name,
                                 f"could not find/evaluate {name}")
                continue
            value, line = got
            if value != expect:
                yield Diagnostic(
                    cpp.path, line, self.name,
                    f"{name} = {value} but the golden test "
                    f"({self.golden}) assembles {expect}-byte headers — "
                    "the on-disk format must not drift")

        # Magic + version: wal.hpp constants vs the golden test's literal
        # header bytes (`append_u32(expected, 0x...)` then version).
        gold_text = "\n".join(gold.lines)
        m = re.search(
            r"append_u32\(expected,\s*(0x[0-9A-Fa-f]+)U?\).*?\n"
            r".*?append_u32\(expected,\s*(\d+)\)", gold_text)
        if m is None:
            yield Diagnostic(gold.path, 1, self.name,
                             "could not find the golden header bytes "
                             "(append_u32(expected, <magic>) / <version>)")
            return
        gold_magic, gold_version = int(m.group(1), 16), int(m.group(2))
        for name, expect in (("kWalMagic", gold_magic),
                             ("kWalVersion", gold_version)):
            got = self._const(hpp, name)
            if got is None:
                yield Diagnostic(hpp.path, 1, self.name,
                                 f"could not find/evaluate {name}")
                continue
            value, line = got
            if value != expect:
                yield Diagnostic(
                    hpp.path, line, self.name,
                    f"{name} = {value:#x} disagrees with the golden test's "
                    f"{expect:#x}")


class ShardFlushBeforeReadRule(Rule):
    """Aggregate reads on a pipelined sharded wrapper must drain first.

    Applies only to files that define `class ShardedStore`. Within the
    bodies of the aggregate read methods, dereferencing a shard's store
    (`->store` / `store->`) before the first pipeline barrier call
    (drain / flush / wait_idle) is a finding: with persistent shard
    workers, an un-drained read observes an arbitrary mid-pipeline epoch.
    """

    name = "shard-flush-before-read"
    _class = re.compile(r"\bclass\s+ShardedStore\b")
    _method = re.compile(
        r"\b(?P<name>num_edges|find_edge|shard|telemetry|serialize|"
        r"save_snapshot)\s*\(")
    _barrier = re.compile(r"\b(drain|flush|wait_idle)\s*\(")
    _store = re.compile(r"->\s*store\b|\bstore\s*->")

    def check(self, f: SourceFile) -> Iterator[Diagnostic]:
        if not any(self._class.search(code) for code in f.code):
            return
        i = 0
        n = len(f.code)
        while i < n:
            m = self._method.search(f.code[i])
            if m is None:
                i += 1
                continue
            body = self._body_range(f, i, m.end())
            if body is None:
                i += 1
                continue
            begin, end = body
            yield from self._check_body(f, m.group("name"), begin, end)
            i = end + 1

    def _body_range(self, f: SourceFile, line_idx: int,
                    col: int) -> tuple[int, int] | None:
        """([begin, end] 0-based line range of the method body, or None
        when the match is a declaration or a call (`;` or `)` ends it
        before any `{` opens)."""
        depth = 0
        seen_open = False
        i, j = line_idx, col
        while i < len(f.code):
            for c in f.code[i][j:]:
                if c == ";" and not seen_open:
                    return None
                if c == "{":
                    depth += 1
                    seen_open = True
                elif c == "}":
                    depth -= 1
                    if seen_open and depth == 0:
                        return line_idx, i
            i, j = i + 1, 0
        return None

    def _check_body(self, f: SourceFile, method: str, begin: int,
                    end: int) -> Iterator[Diagnostic]:
        barrier_at: int | None = None
        for i in range(begin, end + 1):
            code = f.code[i]
            if barrier_at is None and self._barrier.search(code):
                barrier_at = i
            m = self._store.search(code)
            if m is None:
                continue
            if barrier_at is not None and barrier_at <= i:
                return  # drained before the first store touch — clean
            if f.suppressed(i + 1, self.name):
                return
            yield self.diag(
                f, i + 1,
                f"{method}() dereferences a shard store before any "
                "pipeline barrier — call drain()/flush()/wait_idle() "
                "first so the read observes a settled epoch")
            return


class RawSocketIoRule(Rule):
    """Raw socket syscalls live only in src/net/io.{hpp,cpp}.

    That pair encodes the loop disciplines (EINTR retry, MSG_NOSIGNAL,
    zero-send-is-error, EAGAIN classification) exactly once; a bare
    `::send`/`::recv` anywhere else re-derives them per call site and will
    eventually drop one — the SIGPIPE and write-spin bugs both started
    that way. `::write`/`::read` are additionally banned inside src/net/
    (where every fd is a socket or the wake pipe); outside src/net/ they
    stay legal for regular-file I/O such as the WAL.
    """

    name = "raw-socket-io"
    _io_files = (Path("src/net/io.hpp"), Path("src/net/io.cpp"))
    # `::send(`/`::recv(` with nothing qualifying the `::` — matches the
    # global-namespace syscall spelling, not net::send_some etc.
    _sendrecv = re.compile(r"(?<![:\w])::\s*(?P<fn>send|recv)\s*\(")
    _readwrite = re.compile(r"(?<![:\w])::\s*(?P<fn>write|read)\s*\(")

    def check_tree(self, files: dict[Path, SourceFile],
                   root: Path) -> Iterator[Diagnostic]:
        io_paths = {root / p for p in self._io_files}
        net_dir = root / "src/net"
        for f in files.values():
            if f.path in io_paths:
                continue
            in_net = net_dir in f.path.parents
            for no, code in enumerate(f.code, start=1):
                for m in self._sendrecv.finditer(code):
                    if f.suppressed(no, self.name):
                        continue
                    yield self.diag(
                        f, no,
                        f"raw ::{m.group('fn')}() outside src/net/io.* — "
                        "route socket I/O through gt::net (send_some/"
                        "recv_some/send_all/recv_exact) so the EINTR/"
                        "MSG_NOSIGNAL/zero-return disciplines apply")
                if in_net:
                    for m in self._readwrite.finditer(code):
                        if f.suppressed(no, self.name):
                            continue
                        yield self.diag(
                            f, no,
                            f"raw ::{m.group('fn')}() inside src/net/ — "
                            "every fd here is a socket or the wake pipe; "
                            "use the io.hpp helpers")


class DeadlineDisciplineRule(Rule):
    """Every blocking socket call in src/net/ must carry a deadline.

    The failover client's liveness guarantee ("never blocks forever on a
    stalled or half-open peer") holds only if no call site quietly falls
    back to an unbounded wait. Inside src/net/ (io.* excluded — it is the
    implementation):

    * raw `::connect(` / `::accept(` are banned outright — tcp_connect
      carries the nonblocking-connect deadline machinery and accept_retry
      the EINTR loop; going around them reintroduces the kernel's
      SYN-retransmit minutes;
    * a `send_all(` / `recv_exact(` / `tcp_connect(` call whose argument
      list names nothing deadline-shaped (deadline/Deadline/timeout/
      budget) is relying on the defaulted unbounded Deadline — spell the
      bound (or pass an explicitly-constructed unbounded one) so the
      choice is visible in review.
    """

    name = "deadline-discipline"
    _io_files = (Path("src/net/io.hpp"), Path("src/net/io.cpp"))
    _banned = re.compile(r"(?<![:\w])::\s*(?P<fn>connect|accept)\s*\(")
    _bounded = re.compile(
        r"\b(?P<fn>send_all|recv_exact|tcp_connect)\s*\(")
    _deadline_token = re.compile(r"deadline|Deadline|timeout|budget")

    def check_tree(self, files: dict[Path, SourceFile],
                   root: Path) -> Iterator[Diagnostic]:
        io_paths = {root / p for p in self._io_files}
        net_dir = root / "src/net"
        for f in files.values():
            if f.path in io_paths or net_dir not in f.path.parents:
                continue
            for no, code in enumerate(f.code, start=1):
                if f.suppressed(no, self.name):
                    continue
                for m in self._banned.finditer(code):
                    yield self.diag(
                        f, no,
                        f"raw ::{m.group('fn')}() in src/net/ — use "
                        "tcp_connect (deadline-bounded nonblocking "
                        "connect) or accept_retry instead")
                if not self._bounded.search(code):
                    continue
                # The deadline argument may sit on the call line or wrap
                # onto the next one — check both before flagging.
                window = code + " " + (
                    f.code[no] if no < len(f.code) else "")
                if self._deadline_token.search(window):
                    continue
                fn = self._bounded.search(code).group("fn")
                yield self.diag(
                    f, no,
                    f"{fn}() without a deadline argument — the default "
                    "is an unbounded wait; pass a Deadline (or name the "
                    "timeout) so a stalled peer cannot wedge this path")


RULES: list[Rule] = [
    RawMutexRule(),
    TxnNoThrowRule(),
    FailpointRegistryRule(),
    ObsHotLookupRule(),
    WalLayoutRule(),
    ShardFlushBeforeReadRule(),
    RawSocketIoRule(),
    DeadlineDisciplineRule(),
]

_CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def _rule_files(root: Path, rule: Rule,
                files: dict[Path, SourceFile]) -> list[SourceFile]:
    src = root / "src"
    if isinstance(rule, RawMutexRule):
        return [f for f in files.values()
                if src in f.path.parents
                and f.path != root / RawMutexRule._exempt]
    if isinstance(rule, ObsHotLookupRule):
        return [f for f in files.values()
                if src in f.path.parents
                and (root / "src/obs") not in f.path.parents]
    if isinstance(rule, TxnNoThrowRule):
        return list(files.values())
    if isinstance(rule, ShardFlushBeforeReadRule):
        return [f for f in files.values() if src in f.path.parents]
    return []


def run(root: Path, paths: list[Path] | None = None) -> list[Diagnostic]:
    # tools/ and bench/ are scanned too: the raw-socket-io discipline
    # binds every consumer of the wire API, not just the library and its
    # tests.
    scan_dirs = [root / "src", root / "tests", root / "tools",
                 root / "bench"]
    files: dict[Path, SourceFile] = {}
    for d in scan_dirs:
        if not d.is_dir():
            continue
        for p in sorted(d.rglob("*")):
            if p.suffix in _CXX_SUFFIXES and p.is_file():
                files[p] = SourceFile.load(p)
    if paths:
        wanted = {root / p if not p.is_absolute() else p for p in paths}
        selected = {p: f for p, f in files.items() if p in wanted}
    else:
        selected = files

    diags: list[Diagnostic] = []
    # A suppression without a reason is a finding in its own right.
    for f in selected.values():
        for no, line in enumerate(f.lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m and not m.group(2).strip():
                diags.append(Diagnostic(
                    f.path, no, "suppression-needs-reason",
                    f"gt-lint: allow({m.group(1)}) must state a reason "
                    "after the closing parenthesis"))

    for rule in RULES:
        for f in _rule_files(root, rule, selected):
            diags.extend(rule.check(f))
        diags.extend(rule.check_tree(files, root))
    diags.sort(key=lambda d: (str(d.path), d.line, d.rule))
    return diags


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="limit per-file rules to these files "
                             "(tree-wide rules always run)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"gt_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    diags = run(root, args.paths or None)
    for d in diags:
        print(d.render(root))
    if diags:
        print(f"gt_lint: {len(diags)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run one perfledger workload and print the benchmark's result line.

usage (from the root of a checkout):
    python3 perfledger/run.py --workload NAME --seed N --seconds N --trace 0|1

The first run builds the measuring binary from the checkout's sources
(CMake, Release) under $CARGO_TARGET_DIR, default .bench_build. The binary's
human-readable report passes through; the last line printed is one JSON
object with the keys correct, attempted, failed and metrics. Its metrics are
the end_to_end list of BENCHMARK.json with --trace 0 and its per_layer list
with --trace 1. Full results and span files stay under the build directory.

Exit codes: 0 ok; 1 a correctness check failed; 2 bad arguments or missing
sources; 3 build failed; 4 the binary failed or its result is incomplete.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(code, msg):
    print("perfledger: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env(out_dir):
    """Environment for the build and the binary: temp files stay inside
    the build directory."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures once, then (re)builds the binary; returns its path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", cmake_dir, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=child_env(out_dir)) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(3, "build failed (log: %s)" % log_path)
    return os.path.join(cmake_dir, "perfledger")


def source_id():
    """git sha when the checkout is a repository, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die(2, "BENCHMARK.json not found at " + ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "graphtinker.hpp")):
        die(2, "GraphTinker sources (src/) not found under " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(2, "unknown workload %r (have %s)" % (args.workload, names))

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    results = os.path.join(out, "results")
    traces = os.path.join(out, "traces")
    for d in (work, results, traces):
        os.makedirs(d, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(results, tag + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--result", result_path,
           "--spans", os.path.join(traces, tag + ".spans.tsv"),
           "--source-id", source_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(out))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        die(4, "workload did not finish within %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    if not os.path.isfile(result_path):
        die(4, "the binary exited with %d and wrote no result" % code)
    with open(result_path) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    have = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got["value"] is None:
            die(4, "metric %s missing from the result" % m["name"])
        if got["unit"] != m["unit"]:
            die(4, "metric %s: unit %r, BENCHMARK.json says %r"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    line = {"correct": bool(result["correct"]) and code == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    if code != 0 or not line["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

usage (from the root of a checkout):
    python3 perfledger/spread.py [--seeds 1,2,3,4,5] [--trace 0|1]
                                 [--seconds N] [--out FILE] [--against FILE]
                                 [workload ...]

For every metric the workload measured, gated or not, prints the median of
its values across the seeds and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. Spreads of gated end-to-end metrics are compared with their
BENCHMARK.json bound; the goal is a spread below a third of the bound.

--out writes every value to FILE as JSON. --against reads such a file from
an earlier set and prints how far each gated median moved, flagging a move
for the worse by more than the bound. Exits 1 when a run fails or a gated
median moved for the worse by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

from run import build_dir

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or not med:
        return float("nan")
    q = statistics.quantiles(vs, n=4)
    return (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--against")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m for m in spec["end_to_end"]} if not args.trace else {}
    seeds = [int(s) for s in args.seeds.split(",")]
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    ok = True
    everything = {}
    for wl in workloads:
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join("perfledger", "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                ok = False
                print("%s seed %d FAILED (exit %d)\n%s%s" % (
                    wl, seed, proc.returncode, proc.stdout[-2000:],
                    proc.stderr[-2000:]))
                continue
            tag = "%s-seed%d-trace%d" % (wl, seed, args.trace)
            with open(os.path.join(build_dir(), "results",
                                   tag + ".json")) as f:
                result = json.load(f)
            for name, m in result[section].items():
                values.setdefault(name, []).append(m["value"])
        everything[wl] = values
        print("== %s (%d seeds, %ds, trace=%d)" % (wl, len(seeds), seconds,
                                                   args.trace))
        for name in sorted(values, key=lambda n: (n not in gated, n)):
            vs = values[name]
            med = statistics.median(vs)
            s = spread(vs)
            verdict = ""
            m = gated.get(name)
            if m is not None:
                verdict = ("ok" if s < m["bound"] / 3 else
                           "WITHIN" if s <= m["bound"] else "OVER")
                verdict = " bound %.2f %-6s" % (m["bound"], verdict)
                old = before.get(wl, {}).get(name)
                if old:
                    move = med / statistics.median(old) - 1
                    worse = -move if m["better"] == "higher" else move
                    flag = "MOVED" if worse > m["bound"] else "held"
                    ok = ok and worse <= m["bound"]
                    verdict += " vs earlier %+.3f %s" % (move, flag)
            elif not args.trace:
                verdict = " (not gated)"
            print("  %-36s median %-12.6g spread %6.3f%s   %s" % (
                name, med, s, verdict, " ".join("%.4g" % v for v in vs)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

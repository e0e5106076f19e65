#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the benchmark.

    python3 perfbench/ab.py --a <checkout A> --b <checkout B>
        [--workloads jet-cache,serve-mix] [--pairs 10] [--seed 1000]

Each checkout is a source tree with its own perfbench/run.py; each side
builds into its own .bench_build. For every workload the script runs
--pairs pairs (at least ten), alternating which side goes first, with
the same seed on both sides of a pair and a new seed per pair. It prints,
per end-to-end metric, each side's median and quartiles
(statistics.quantiles, n=4), the fraction of pairs B won (ties count
for neither), and the first verdict that applies (perfbench/README.md):

  unresolved  either side's spread (IQR / median) exceeds the metric's
              bound from BENCHMARK.json, unless every B run beats every
              A run (better) or loses to every A run (worse)
  better      B won >= 90% of pairs and the medians differ by more than
              A's interquartile distance
  regression  B's median is worse than A's by more than the bound
  worse       A won >= 90% of pairs, medians as for better
  same        none of the above

setup_s is reported like the others. Runs that fail their own checks
are listed and excluded. Every run lasts BENCHMARK.json's run_seconds;
the script exits with an error if the two sides declare different
values.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    """One untraced run; returns the metrics dict, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own tree
    p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """Applies the README's A/B rules to paired samples a[i], b[i]."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    win_frac = wins / len(a)
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    spread_a = (qa3 - qa1) / ma if ma else float("inf")
    spread_b = (qb3 - qb1) / mb if mb else float("inf")
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    loss = 1 - win_frac - sum(1 for x, y in zip(a, b) if x == y) / len(a)
    if spread_a > bound or spread_b > bound:
        if all_better:
            return win_frac, "better"
        if all_worse:
            return win_frac, "worse"
        return win_frac, "unresolved"
    if win_frac >= 0.9 and abs(mb - ma) > (qa3 - qa1):
        return win_frac, "better"
    if ma and sign * (mb - ma) / ma < -bound:
        return win_frac, "regression"
    if loss >= 0.9 and abs(mb - ma) > (qa3 - qa1):
        return win_frac, "worse"
    return win_frac, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline checkout root")
    ap.add_argument("--b", required=True, help="candidate checkout root")
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    bench_a, bench_b = load_benchmark(args.a), load_benchmark(args.b)
    if bench_a["end_to_end"] != bench_b["end_to_end"]:
        print("warning: the two sides declare different end-to-end metrics",
              file=sys.stderr)
    if bench_a["run_seconds"] != bench_b["run_seconds"]:
        print(f"ab.py: run_seconds differs: A {bench_a['run_seconds']}, "
              f"B {bench_b['run_seconds']}", file=sys.stderr)
        return 2
    seconds = bench_a["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench_a["workloads"]])

    for wl in workloads:
        samples = {"a": [], "b": []}
        failed = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            pair = {}
            for side in order:
                root = args.a if side == "a" else args.b
                pair[side] = run_once(root, wl, seed, seconds)
            if pair["a"] is None or pair["b"] is None:
                failed.append((i, seed, [s for s in "ab" if pair[s] is None]))
                continue
            samples["a"].append(pair["a"])
            samples["b"].append(pair["b"])
            print(f"[{wl}] pair {i + 1}/{args.pairs} seed {seed} "
                  f"first={order[0]}", file=sys.stderr, flush=True)

        print(f"\n== {wl}: {len(samples['a'])} pairs, "
              f"{seconds:g} s per run, alternating first side")
        for i, seed, sides in failed:
            print(f"  pair {i} (seed {seed}) failed on side(s) "
                  f"{','.join(sides)}; excluded")
        if not samples["a"]:
            continue
        print(f"  {'metric':<14} {'side':<4} {'q1':>14} {'median':>14} "
              f"{'q3':>14}  {'B wins':>7}  verdict")
        for m in bench_a["end_to_end"]:
            name = m["name"]
            a = [s[name] for s in samples["a"]]
            b = [s[name] for s in samples["b"]]
            win_frac, v = verdict(a, b, m["better"], m["bound"])
            for side, vals in (("A", a), ("B", b)):
                q1, med, q3 = quartiles(vals)
                tail = (f"  {win_frac:7.0%}  {v} (bound {m['bound']:g}, "
                        f"{m['better']} is better)") if side == "B" else ""
                print(f"  {name:<14} {side:<4} {q1:14.6g} {med:14.6g} "
                      f"{q3:14.6g}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares two checkouts.

A set runs every workload once per seed through run.py, untraced, and
prints each end-to-end metric's median, quartiles and quartile spread
(IQR / median) per workload:

    python3 fms_benchmark/sets.py --seeds 1-10 --out set1.jsonl

A comparison alternates runs of a parent checkout and this checkout, pair
by pair (the parent goes first in even pairs), each pair on its own seed,
and prints both medians, the parent's IQR and the change's win rate:

    python3 fms_benchmark/sets.py --compare PARENT_CHECKOUT --seeds 1-10

Both checkouts must hold the same fms_benchmark/ directory. A change counts
as a gain on a metric only when it wins at least 9 of 10 pairs and the
medians differ by more than the parent's IQR.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = SPEC["end_to_end"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed):
    cmd = [sys.executable, "fms_benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return {m: v["value"] for m, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def print_set(rows):
    print(f"{'workload':14} {'metric':20} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for w in WORKLOADS:
        for m in METRICS:
            values = [r[m["name"]] for r in rows if r["workload"] == w]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            print(f"{w:14} {m['name']:20} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread(values):8.4f} {m['bound']:6.3f}")


def print_comparison(pairs):
    print(f"{'workload':14} {'metric':20} {'parent':>12} {'change':>12} "
          f"{'parent iqr':>11} {'wins':>6}  verdict")
    for w in WORKLOADS:
        for m in METRICS:
            name = m["name"]
            both = [(p[name], c[name]) for wl, p, c in pairs if wl == w]
            if not both:
                continue
            parent = [p for p, _ in both]
            change = [c for _, c in both]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for p, c in both if sign * (c - p) > 0)
            pq1, pm, pq3 = quartiles(parent)
            cm = statistics.median(change)
            if wins >= 0.9 * len(both) and abs(cm - pm) > pq3 - pq1:
                verdict = "gain"
            elif sign * (cm - pm) < -m["bound"] * abs(pm):
                verdict = "REGRESSION"
            elif pq3 - pq1 > m["bound"] * abs(pm):
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "within bound"
            print(f"{w:14} {name:20} {pm:12.6g} {cm:12.6g} {pq3 - pq1:11.4g} "
                  f"{wins:3d}/{len(both):<2d}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", metavar="PARENT_CHECKOUT")
    ap.add_argument("--out", help="append every run as a JSON line")
    args = ap.parse_args()
    change = HERE.parent
    parent = pathlib.Path(args.compare).resolve() if args.compare else None
    rows = []
    pairs = []
    out = open(args.out, "a") if args.out else None
    for i, seed in enumerate(seeds(args.seeds)):
        for w in WORKLOADS:
            if parent:
                sides = [parent, change] if i % 2 == 0 else [change, parent]
                got = {side: run(side, w, seed) for side in sides}
                pairs.append((w, got[parent], got[change]))
                record = {"workload": w, "seed": seed,
                          "parent": got[parent], "change": got[change]}
            else:
                record = {"workload": w, "seed": seed,
                          **run(change, w, seed)}
                rows.append(record)
            if out:
                out.write(json.dumps(record) + "\n")
                out.flush()
    if parent:
        print_comparison(pairs)
    else:
        print_set(rows)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compares two result sets of the benchmark: a parent and a change.

Collect alternated pairs (both checkouts must carry the same perfbench/):

    python3 perfbench/compare.py run --parent DIR --change DIR \
        --out RESULTS_DIR [--pairs 10] [--workloads a,b] [--trace 0]

Pair i runs both sides on seed --seed + i, each for BENCHMARK.json's
run_seconds; the parent goes first in even pairs and the change in odd
ones. Every run's JSON result is appended to
RESULTS_DIR/parent.jsonl and RESULTS_DIR/change.jsonl as
{"workload", "seed", "pair", "returncode", "result"}.

Report on them:

    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl \
        [--benchmark BENCHMARK.json]

For every metric, one row per workload: each side's median and quartiles,
the change's relative delta, the share of pairs the change won (ties count
for neither side) and a verdict:
  improved    the change won at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the parent's
              own spread (the distance between its quartiles);
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound, and the parent's spread is within
              the bound (or every change run beat every parent run);
  worse       the change's median is worse by more than the bound;
  unresolved  fewer than 10 pairs, or the parent's spread is wider than the
              bound, so the data cannot tell.
Metrics without a bound (per-layer ones) get "improved" or "-". A gain is
not claimable when the change failed more jobs than the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_side(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def cmd_run(args, bench):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                rc, result = run_side(sides[side], workload, seed, seconds,
                                      args.trace)
                record = {"workload": workload, "seed": seed, "pair": pair,
                          "returncode": rc, "result": result}
                with open(os.path.join(args.out, side + ".jsonl"), "a") as f:
                    f.write(json.dumps(record) + "\n")
                print("pair %d %s %s rc=%d" % (pair, workload, side, rc),
                      flush=True)


def load(path):
    """{workload: {pair: record}} from a .jsonl result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["pair"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, change_failed_more):
    lower = better == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    win_share = wins / len(pairs) if pairs else 0.0
    gain = (p_med - c_med) if lower else (c_med - p_med)
    improved = (len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE
                and gain > p_q3 - p_q1)
    if improved:
        text = "improved" + (" (not claimable: more failures)"
                             if change_failed_more else "")
    elif bound is None:
        text = "-"
    elif len(pairs) < MIN_PAIRS:
        text = "unresolved (%d < %d pairs)" % (len(pairs), MIN_PAIRS)
    else:
        worse_by = -gain / p_med if p_med else 0.0
        spread = (p_q3 - p_q1) / p_med if p_med else 0.0
        every_run_better = all(
            (c < p if lower else c > p) for c in change for p in parent)
        if spread > bound and not every_run_better:
            text = "unresolved (spread %.1f%% > bound)" % (100 * spread)
        elif worse_by > bound:
            text = "worse"
        else:
            text = "no worse"
    return win_share, text


def cmd_report(args, bench):
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    rows = {}
    for workload in sorted(set(parent) & set(change)):
        pairs = sorted(set(parent[workload]) & set(change[workload]))
        p_recs = [parent[workload][i] for i in pairs]
        c_recs = [change[workload][i] for i in pairs]
        failed = [sum((r["result"] or {}).get("failed", 1) for r in recs)
                  for recs in (p_recs, c_recs)]
        print("%s: %d pairs; failed jobs parent %d, change %d" %
              (workload, len(pairs), failed[0], failed[1]))
        ok = [i for i, (p, c) in enumerate(zip(p_recs, c_recs))
              if p["result"] and c["result"]]
        for name, (better, bound) in specs.items():
            pv = [p_recs[i]["result"]["metrics"].get(name, {}).get("value")
                  for i in ok]
            cv = [c_recs[i]["result"]["metrics"].get(name, {}).get("value")
                  for i in ok]
            keep = [(p, c) for p, c in zip(pv, cv)
                    if p is not None and c is not None]
            if not keep:
                continue
            pv, cv = [p for p, _ in keep], [c for _, c in keep]
            win_share, text = verdict(pv, cv, better, bound,
                                      failed[1] > failed[0])
            rows.setdefault(name, []).append(
                (workload, quartiles(pv), quartiles(cv), win_share, text))
    for name, metric_rows in rows.items():
        better, bound = specs[name]
        print("\n%s (%s is better%s)" % (
            name, better, ", bound %.0f%%" % (100 * bound) if bound else ""))
        print("  %-20s %-34s %-34s %8s %6s  %s" % (
            "workload", "parent median [q1, q3]", "change median [q1, q3]",
            "delta", "wins", "verdict"))
        for workload, p, c, win_share, text in metric_rows:
            delta = (c[1] - p[1]) / p[1] * 100 if p[1] else float("nan")
            print("  %-20s %-34s %-34s %7.2f%% %5.0f%%  %s" % (
                workload, "%.6g [%.6g, %.6g]" % (p[1], p[0], p[2]),
                "%.6g [%.6g, %.6g]" % (c[1], c[0], c[2]), delta,
                100 * win_share, text))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="collect alternated pairs")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--workloads", default="")
    report = sub.add_parser("report", help="compare two result sets")
    report.add_argument("parent")
    report.add_argument("change")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    (cmd_run if args.cmd == "run" else cmd_report)(args, bench)


if __name__ == "__main__":
    main()

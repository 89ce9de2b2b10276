#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised.

    python3 tools/perfbench_pairs.py --parent DIR --change DIR \\
        --workload paper-ports --seed 1 --pairs 10 --seconds 10 [--trace 0|1]

Each pair runs `python3 perfbench/run.py --trace T` once in each
checkout, the parent first in even pairs and the change first in odd
ones, so host drift falls on both sides alike.  For every metric that
BENCHMARK.json declares for that mode (the end-to-end metrics with
--trace 0, the default; the per-layer metrics with --trace 1), it
prints the per-pair values, each side's median and quartiles, how many
pairs the change won, and whether the gap between the medians exceeds
the parent's interquartile range.  The summary also includes the OCaml
runtime's GC totals per attempted job (`v=0x400` in OCAMLRUNPARAM
prints them when the benchmark exits).  Exits 1 if any run fails,
reports "correct": false or prints no GC totals.

Standard library only; it reads perfbench's output and changes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


GC_STATS = ("major_words", "major_collections", "minor_words", "promoted_words")


def gc_env():
    """The environment with the runtime's exit statistics (v=0x400) on."""
    env = dict(os.environ)
    param = env.get("OCAMLRUNPARAM", "")
    env["OCAMLRUNPARAM"] = param + ",v=0x400" if param else "v=0x400"
    return env


def gc_stats(stderr):
    """The runtime's exit totals printed on stderr (the last value of
    each name), or None unless it printed all of GC_STATS."""
    stats = {}
    for line in stderr.splitlines():
        name, sep, value = line.partition(":")
        if sep and name.strip() in GC_STATS:
            try:
                stats[name.strip()] = float(value)
            except ValueError:
                pass
    return stats if len(stats) == len(GC_STATS) else None


def run_once(checkout, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=gc_env())
    result = None
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "metrics" in obj:
            result = obj
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, None
    return result, gc_stats(proc.stderr)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def declared_metrics(checkout, trace):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["better"]) for m in declared]


def summarise(name, better, par, chg):
    """Print one metric's per-pair values, medians, quartiles and wins."""
    pairs = len(par)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    gap = cmed - pmed
    beyond = abs(gap) > pq3 - pq1
    verdict = "better" if sign * gap > 0 else "worse" if gap != 0 else "equal"
    print("%s (%s is better)" % (name, better))
    print("  parent " + " ".join("%.4g" % x for x in par))
    print("  change " + " ".join("%.4g" % x for x in chg))
    print("  median %.4g -> %.4g (%+.1f%%), parent IQR %.4g (q1 %.4g, q3 %.4g),"
          " change q1 %.4g q3 %.4g"
          % (pmed, cmed, 100.0 * gap / pmed if pmed else 0.0, pq3 - pq1, pq1, pq3,
             cq1, cq3))
    print("  change won %d/%d pairs; median gap %s the parent IQR (%s)"
          % (wins, pairs, "exceeds" if beyond else "within", verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, summarising the per-layer metrics")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    gc = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, stats = run_once(sides[side], args)
            if result is None or result.get("correct") is not True:
                print("pair %d: %s run failed or reported correct: false" % (i + 1, side))
                ok = False
            metrics = result["metrics"] if result else {}
            values[side].append({k: v["value"] for k, v in metrics.items()})
            if result is not None:
                if stats is None:
                    print("pair %d: %s run printed no GC statistics" % (i + 1, side))
                    ok = False
                else:
                    jobs = max(1, result.get("attempted", 0))
                    gc[side].append({k: v / jobs for k, v in stats.items()})
        print("pair %d done (%s first)" % (i + 1, order[0]), file=sys.stderr, flush=True)

    print("%s seed %d, %d pairs of %g-s %s runs; parent %s, change %s"
          % (args.workload, args.seed, args.pairs, args.seconds,
             "traced" if args.trace else "untraced", args.parent, args.change))
    for name, better in declared_metrics(args.change, args.trace):
        par = [v[name] for v in values["parent"] if name in v]
        chg = [v[name] for v in values["change"] if name in v]
        if len(par) != args.pairs or len(chg) != args.pairs:
            print("%s: missing from some runs" % name)
            continue
        summarise(name, better, par, chg)
    if len(gc["parent"]) == len(gc["change"]) == args.pairs:
        for name in GC_STATS:
            summarise("gc.%s per attempted job" % name, "lower",
                      [v[name] for v in gc["parent"]], [v[name] for v in gc["change"]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

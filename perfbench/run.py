#!/usr/bin/env python3
"""Privateer end-to-end benchmark.

Run from the root of a Privateer checkout:

    python3 perfbench/run.py --workload paper-ports --seed 1 --seconds 25 --trace 0

Builds the benchmark executable (perfbench/perfbench.ml) from source
with dune, runs one workload for --seconds, and passes its output
through: a context line, then one JSON result line with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  A traced run also writes
its spans to .perfbench/trace-<workload>-<seed>.json.

--regenerate-goldens rewrites the golden simulated surface
(perfbench/goldens.tsv) for the given workload and seed; nothing else
ever writes it.  See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper-ports", "misspec-eager", "serve-corpus")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
GOLDENS = os.path.join("perfbench", "goldens.tsv")
TRACE_DIR = ".perfbench"
# The executable must finish inside the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of the program sources: identifies what was measured
    where no git metadata is available."""
    h = hashlib.md5()
    paths = ["dune-project"]
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    # Only a checkout's own .git: never let git search parent directories.
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate-goldens", action="store_true",
                    help="rewrite the goldens of this workload and seed")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        log("run from the root of a Privateer checkout (no dune-project, lib/ or bin/ here)")
        return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(build.stdout)
        log("build failed")
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", GOLDENS, "--commit", git_commit(),
           "--source-digest", source_digest()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.regenerate_goldens:
        cmd.append("--regenerate")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

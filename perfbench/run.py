#!/usr/bin/env python3
"""MTC benchmark: history file -> verdict and stream -> verdict.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload batch_clean --seed 1 --seconds 30 --trace 0

Builds the checker and the benchmark program from source with dune (build
directory .bench_build/dune), runs the program's self-test, then one run
of the workload.  The program prints the result as one JSON object on the
last line of standard output.  Workloads and metrics are listed in
BENCHMARK.json.  Traced runs also append their exact counts to a ledger
(.bench_build/perfbench/exact_counts.json) and fail when a count differs
from an earlier run of the same source tree, workload, seed and --seconds.
Counts are expected to change when the source changes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
BENCH = "perfbench/ocaml/perfbench.exe"
MTC = "bin/mtc_cli.exe"

# Counts that must read exactly the same on every run of one seed.
EXACT = ("history.ops", "index.vertices", "deps.edges",
         "online.words_per_txn", "server.wal_bytes", "server.gc_runs")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin/mtc_cli.ml", "perfbench/ocaml/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("run me from the root of an MTC source checkout (no %s here)" % need)
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_BUILD_DIR=os.path.join(BUILD, "dune"))
    cmd = ["dune", "build", "--root", ROOT, BENCH, MTC]
    try:
        p = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        die("build failed (dune exit %d)" % p.returncode)
    out = os.path.join(BUILD, "dune", "default")
    return os.path.join(out, BENCH), os.path.join(out, MTC)


def source_hash():
    """A digest of every file of the checkout outside the build trees."""
    skip = {".bench_build", "_build", ".git"}
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in skip)
        for name in sorted(files):
            path = os.path.join(top, name)
            if name.endswith(".install") or not os.path.isfile(path):
                continue
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def check_ledger(workload, seed, seconds, metrics):
    """Compare this run's exact counts with earlier runs of the same
    source tree, workload, seed and --seconds."""
    path = os.path.join(WORK, "exact_counts.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = "%s/%s/%d/%g" % (source_hash(), workload, seed, seconds)
    now = {k: v["value"] for k, v in metrics.items()
           if k in EXACT or k.endswith(".minor_words")}
    bad = [k for k, v in ledger.get(key, {}).items() if k in now and now[k] != v]
    for k in bad:
        print("perfbench: exact count %s changed: %r before, %r now"
              % (k, ledger[key][k], now[k]), file=sys.stderr)
    if not bad:
        ledger[key] = now
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))

    bench, mtc = build()
    if subprocess.run([bench, "selftest"], stdout=sys.stderr).returncode != 0:
        die("self-test of the benchmark's arithmetic failed")

    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, "run-" + args.workload)
    cmd = [bench, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--mtc", mtc]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("the run did not finish in time")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("the benchmark program failed (exit %d)" % p.returncode)
    result = json.loads(lines[-1])

    # The program's metrics must be exactly the ones BENCHMARK.json names.
    table = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        die("metrics differ from BENCHMARK.json: %s"
            % sorted(set(want.items()) ^ set(got.items())))

    if args.trace:
        bad = check_ledger(args.workload, args.seed, args.seconds,
                           result["metrics"])
        if bad:
            result["correct"] = False
            result["failed"] += len(bad)
            result["attempted"] += len(bad)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

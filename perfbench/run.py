#!/usr/bin/env python3
"""Build the benchmark in release mode and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/, and
traced runs write their spans to .bench_build/spans/.  The last line of
standard output is the run's JSON result; the exit code is non-zero
when the build fails or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["protocol-run", "chaos-campaign", "defense-campaign", "attack-sweep"]
OUT_DIR = ".bench_build"
BUILD_DIR = os.path.join(OUT_DIR, "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a full checkout (no dune-project or lib/ here)")

    # dune wants an absolute build directory whose parent exists.
    os.makedirs(OUT_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result line")
    # The metrics must be exactly the ones BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(expected.items())))
    if run.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check the benchmark's seed handling and its timed-vs-traced outcomes.

    python3 perfbench/selfcheck.py [--seconds S] [SEED SEED]

For every workload and each of two seeds (default 1 and 2), runs one
timed and one traced run.  Passes when every run is correct, the timed
and traced runs of a seed print the same outcome digest, and the two
seeds give different outcomes where the seed picks the inputs' content
(all workloads but attack-sweep, whose seed only orders its searches).
"""

import argparse
import re
import subprocess
import sys

WORKLOADS = ["protocol-run", "chaos-campaign", "defense-campaign", "attack-sweep"]


def digest(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    m = re.search(r"^outcome_digest=(\w+)$", out.stdout, re.M)
    if out.returncode != 0 or m is None:
        sys.stdout.write(out.stdout + out.stderr)
        sys.exit(f"selfcheck: {workload} seed {seed} trace {trace} failed")
    return m.group(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("seeds", nargs="*", default=["1", "2"])
    args = ap.parse_args()
    ok = True
    for w in WORKLOADS:
        per_seed = []
        for seed in args.seeds:
            timed = digest(w, seed, args.seconds, 0)
            traced = digest(w, seed, args.seconds, 1)
            print(f"{w:17} seed {seed:>4}: timed {timed} traced {traced}", flush=True)
            ok &= timed == traced
            per_seed.append(timed)
        if w != "attack-sweep" and len(set(per_seed)) != len(per_seed):
            print(f"{w}: seeds give identical outcomes")
            ok = False
    print("selfcheck:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

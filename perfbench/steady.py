#!/usr/bin/env python3
"""Steadiness check: two independent sets of untraced runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]

Run from the repository root. Each run is a fresh process, as the
benchmark command runs it. Set A uses seeds 1..runs and set B seeds
runs+1..2*runs. For every end-to-end metric of every workload it prints
each set's median and quartiles (Python's statistics.quantiles(n=4)), the
quartile spread as a share of the median, and the shift of set B's median
from set A's, against the metric's bound in BENCHMARK.json. The two sets
of a workload agree when:

  spread  every metric's spread is within its bound in both sets
          (setup_s excepted: only its shift is held to the bound);
  shift   set B's median is no worse than set A's by more than the bound;
  failed  the share of failed packets is the same, and every check passed.

The exit code is 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own build-and-run wrapper)


def one_run(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    binary = run.build()
    if binary is None:
        print("steady: build failed", file=sys.stderr)
        return 2
    all_ok = True
    for w in workloads:
        sets = [[one_run(binary, w, seed, args.seconds)
                 for seed in range(first, first + args.runs)]
                for first in (1, args.runs + 1)]
        ok = True
        print(f"\n{w}: {args.runs} runs per set, {args.seconds} s each")
        print(f"  {'metric':<20} {'A median':>12} {'A q1..q3':>23} {'A spr':>6}"
              f" {'B median':>12} {'B spr':>6} {'shift':>7} {'bound':>5}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            (am, aq1, aq3, aspr), (bm, _, _, bspr) = (
                summary([r["metrics"][name]["value"] for r in rs]) for rs in sets)
            worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
            verdict = []
            if name != "setup_s" and max(aspr, bspr) > bound:
                verdict.append("SPREAD")
            if worse > bound:
                verdict.append("SHIFT")
            ok &= not verdict
            print(f"  {name:<20} {am:12.6g} {aq1:11.6g}..{aq3:<11.6g} {aspr:6.1%}"
                  f" {bm:12.6g} {bspr:6.1%} {worse:+7.1%} {bound:5.2f}  "
                  f"{' '.join(verdict) or 'ok'}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= shares[0] == shares[1] and correct
        print(f"  failed share A {shares[0]:.6g}, B {shares[1]:.6g}; "
              f"every run correct: {correct}; {'AGREE' if ok else 'DISAGREE'}")
        all_ok &= ok
    print("\nevery workload agrees" if all_ok else "\nsome workloads disagree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

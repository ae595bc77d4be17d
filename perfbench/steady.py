#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds, one process per run,
and reports each end-to-end metric's median, quartiles and spread (the
distance between the first and third quartile as a share of the median),
next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--out FILE.json]

Run from the repository root; builds through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for wl in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout else ""
            try:
                res = json.loads(last)
            except json.JSONDecodeError:
                sys.exit(f"{wl} seed {seed}: no result\n{out.stderr}")
            if out.returncode != 0 or not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: incorrect result {last}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"{wl}:")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ok = "" if name == "setup_s" else (
                "ok" if spread <= bound / 3 else
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {name:16s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:6.3f}  bound {bound}  {ok}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
        report[wl] = rows
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the benchmark driver
measures it: N runs of each workload, each with another seed; per metric the
distance between the first and third quartile of the N values
(statistics.quantiles(values, n=4)) as a share of their median, beside the
bound BENCHMARK.json gives the metric.

    python3 bench/tools/spread.py [--runs 10] [--first-seed 101] [--workload NAME]...

A spread above a third of its bound is flagged `wide`, above the bound `OVER`
(`setup_s` is exempt from the spread rule and only listed). Exits 1 on OVER.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    over = False
    for name in names:
        values = {}
        for k in range(args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(args.first_seed + k),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {args.first_seed + k}: {result}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"  {name} run {k + 1}/{args.runs} done", file=sys.stderr)
        print(f"== {name} ({args.runs} runs) ==")
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
                over |= spread > bound
            shown = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {metric:<38} median {med:>14.6f}  spread {100 * spread:6.2f}%  {shown:<10} {flag}"
                  f"   min {min(vs):.6f} max {max(vs):.6f}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()

"""Run workloads over several seeds and print median, quartiles and spread.

Usage, from the repository root::

    python3 perfbench/reference.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

For every workload it runs ``perfbench/run.py`` once per seed, one run at a
time, and prints a Markdown table per workload: each metric's median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` that ``BENCHMARK.json``'s bounds are judged against.
This is how the reference figures in ``perfbench/README.md`` were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import declaration  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=str(HERE.parent), timeout=300,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n### {workload} ({len(next(iter(values.values()), []))} seeds, "
              f"failed share {sorted(shares)})\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            print(f"| {name} | {spec['units'][name]} | {mid:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} | {'' if bound is None else bound} |")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())

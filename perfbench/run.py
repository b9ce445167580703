"""Run one workload of the serving-stack benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gateway-fleet --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run whose calls into each layer are timed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units are those of
``BENCHMARK.json``.  The program is imported from ``src/`` of the same
checkout; nothing needs to be installed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, declaration, scratch_dir, use_program  # noqa: E402

MODULES = {
    "gateway-fleet": "gateway_fleet",
    "wide-backfill": "wide_backfill",
    "durable-restart": "durable_restart",
}
#: Whole-run limit; a run that gets here is cut and reported as failed.
RUN_LIMIT_S = 170


def _timeout(signum, frame):
    raise BenchError(f"the run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    workdir = None
    try:
        spec = declaration()
        seconds = args.seconds or spec["run_seconds"]
        use_program()
        workload = importlib.import_module(MODULES[args.workload])
        workdir = scratch_dir()
        outcome = workload.run(args.seed, seconds, bool(args.trace), workdir)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass

    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        values = {name: outcome["per_layer"].get(name, 0.0) for name in names}
    else:
        names = [metric["name"] for metric in spec["end_to_end"]]
        values = outcome["end_to_end"]
    for name in names:
        print(f"{args.workload:16s} {name:34s} {values[name]:14.6g} {spec['units'][name]}")
    for name, value in outcome["counts"].items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} (info)")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": spec["units"][name]}
            for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Plumbing shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SERVE = Path(__file__).resolve().parent / "serve.py"

#: Longest wait for one message from a child before the run gives up.
CHILD_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot run or a check failed to run."""


def declaration() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    path = ROOT / "BENCHMARK.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path.name}: {error}") from error
    document["units"] = {
        metric["name"]: metric["unit"]
        for metric in document["end_to_end"] + document["per_layer"]
    }
    return document


def use_program() -> None:
    """Put the checkout's ``src`` first on the import path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def scratch_dir() -> Path:
    """A fresh per-run directory inside the checkout (removed by the caller)."""
    path = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Child:
    """A serving process started from ``serve.py``, talking JSON lines."""

    def __init__(self, role: str, config: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(SERVE.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(SERVE), role, json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
            bufsize=0,
            start_new_session=True,  # its own process group: see kill()
        )
        self._buffer = b""

    def receive(self, timeout: float = CHILD_TIMEOUT) -> dict:
        """The next JSON message; raises if the child dies or stays silent."""
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("a serving process stayed silent too long")
            readable, _, _ = select.select([fd], [], [], min(remaining, 1.0))
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(
                    f"a serving process ended early (exit {self.process.wait()})"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        if "error" in message:
            raise BenchError(f"serving process failed: {message['error']}")
        return message

    def send(self, command: str) -> None:
        self.process.stdin.write(command.encode() + b"\n")

    def finish(self, timeout: float = 30.0) -> None:
        """Close stdin and wait for a clean exit; kill on timeout."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        """SIGKILL the child's whole process group and wait until it is gone.

        The group includes processes the child forked (a cluster's
        workers), which a plain kill of the child would leave running.
        """
        group = self.process.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


def child_main(handler) -> None:
    """Run ``handler(config, say, listen)`` in a child; report errors as JSON."""
    config = json.loads(sys.argv[2])

    def say(**message) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    def listen() -> str:
        return sys.stdin.readline().strip()

    try:
        handler(config, say, listen)
    except BaseException as error:  # report, then exit non-zero
        say(error=f"{type(error).__name__}: {error}")
        raise


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def rmse(errors: Sequence[float]) -> float:
    errors = np.asarray(errors, dtype=np.float64)
    return float(np.sqrt(np.mean(errors * errors)))


def span_mean(totals: Dict[str, dict], name: str, per: str = "calls") -> float:
    """Mean seconds per call (or per row) of one span name; 0 when absent."""
    entry = totals.get(name)
    if not entry or not entry[per]:
        return 0.0
    return entry["seconds"] / entry[per]


def bit_equal(a: float, b: float) -> bool:
    """Same float64 bits (NaN included)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def flatten(results: Dict[str, List]) -> Dict[tuple, tuple]:
    """``{(station, tick, series): (value, method)}`` of TickResult lists."""
    flat = {}
    for station, ticks in results.items():
        for tick in ticks:
            for series, estimate in tick.estimates.items():
                flat[(station, tick.index, series)] = (estimate.value, estimate.method)
    return flat


def same_results(a: Dict[tuple, tuple], b: Dict[tuple, tuple]) -> List[str]:
    """Differences between two flattened result sets (empty when identical)."""
    problems = []
    if a.keys() != b.keys():
        missing = sorted(set(b) - set(a))[:3]
        extra = sorted(set(a) - set(b))[:3]
        problems.append(f"result keys differ: missing {missing}, extra {extra}")
        return problems
    for key, (value, method) in a.items():
        other_value, other_method = b[key]
        if method != other_method or not bit_equal(value, other_value):
            problems.append(
                f"{key}: {value!r}/{method} != {other_value!r}/{other_method}"
            )
            if len(problems) >= 3:
                break
    return problems


"""``gateway-fleet``: 200 narrow stations over TCP into a 1-worker cluster.

The benchmark process is the load generator: one asyncio loop, two TCP
connections, each carrying half the stations.  The gateway and its cluster
run in a serving process of their own (``serve.py gateway``).

After set-up and a warm-up, a run is :data:`ROUNDS` rounds on one gateway
instance.  Each round is

1. a *paced* window: an open loop of seeded Poisson arrivals at
   :data:`RATE` records/s.  Each imputed record's latency runs from the
   moment it was due to the moment its RESULT frame was decoded, so a
   stalled generator or server charges every record queued behind the
   stall;
2. an *unpaced* chunk: the next rows pushed back to back, ended by a flush
   barrier; only the gateway's backpressure slows the generator;
3. a *cold restart*: a second gateway process is spawned, every session is
   re-created and re-primed on it, one row per station is pushed and
   flushed, and the process is stopped.

Interleaving the three spreads each metric's samples over the whole run,
so a slow stretch of the host moves one sample of each, not all samples of
one.  Every record is then replayed in-process through
``ImputationService.push`` in sending order; the wire results must be
bit-identical to that replay.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import Counter
from typing import Dict, List

import numpy as np

import checks
import tracing
from common import (
    BenchError, Child, flatten, median, percentile, same_results, span_mean,
)
from inputs import FleetShape, interleave, make_fleet, poisson_due_times

SHAPE = FleetShape(
    stations=200, series=3, window=144, pattern=12, anchors=3, references=2,
    period=48, target_dropout=0.5,
)
#: Offered rate of the paced windows, records/s.
RATE = 400.0
#: Rounds per run: paced window, unpaced chunk, cold restart.
ROUNDS = 5
#: Paced seconds per round, per second of ``--seconds``.  Percentiles are
#: medians over the rounds' windows, and each window must hold 1000
#: latency samples (about half the records are imputed).
PACED_SECONDS_PER_SECOND = 0.6
#: Unpaced rows per station per round, per second of ``--seconds``.
UNPACED_PER_SECOND = 3
#: Connections opened by the generator (at most the host's CPUs).
CONNECTIONS = 2
#: Data plane between coordinator and worker.  Behind the gateway, the
#: default shared-memory rings hand the coordinator an empty result frame
#: in most runs (``ClusterError: previous frame not released`` on the next
#: flush, which closes the client connection), also with every coordinator
#: call made on the gateway's own event loop; so this workload runs on the
#: pickled pipe transport until that is mended.  See CHANGES.md.
TRANSPORT = "pipe"
#: Leading rows per station pushed (paced, then flushed) before timing.
WARMUP = 2
#: Imputations checked by the oracle per run.
ORACLE_SAMPLES = 40
#: Server counters summed per phase, as paths into the ``stats`` reply.
COUNTERS = {
    "records_in": ("gateway", "records_in"),
    "flushes": ("gateway", "flushes"),
    "pause_events": ("gateway", "pause_events"),
    "records_routed": ("cluster", "records_routed"),
    "blocks_executed": ("cluster", "blocks_executed"),
    "push_seconds": ("cluster", "push_seconds"),
    "pipe_bytes": ("cluster", "transport", "bytes_via_pipe"),
}

_clock = time.perf_counter


class _Loadgen:
    """Two gateway connections and the bookkeeping around them."""

    def __init__(self, fleet, port: int) -> None:
        self.fleet = fleet
        self.port = port
        self.clients = []
        self.owner: List[int] = [i * CONNECTIONS // len(fleet) for i in range(len(fleet))]
        self.received: Dict[tuple, float] = {}
        self.results: Dict[str, list] = {station.name: [] for station in fleet}

    async def open(self) -> None:
        from repro.gateway.client import AsyncGatewayClient

        for _ in range(CONNECTIONS):
            client = await AsyncGatewayClient.connect("127.0.0.1", self.port)
            client.result_hook = self._on_results
            self.clients.append(client)
        for index, station in enumerate(self.fleet):
            client = self.clients[self.owner[index]]
            await client.create_session(
                station.name, series_names=station.series_names, **station.params
            )
            await client.prime(station.name, station.history)

    def _on_results(self, station: str, results) -> None:
        now = _clock()
        for result in results:
            self.received[(station, result.index)] = now

    async def push(self, index: int, ordinal: int) -> None:
        station = self.fleet[index]
        await self.clients[self.owner[index]].push(station.name, station.rows[ordinal])

    async def flush(self) -> None:
        for client in self.clients:
            for station, ticks in (await client.flush()).items():
                self.results[station].extend(ticks)

    def refused(self) -> int:
        return sum(len(c.shed) + len(c.errors) + len(c.unavailable) for c in self.clients)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


class _WireBytes:
    """Counts PUSH and RESULT frame bytes on the generator's side."""

    def __init__(self) -> None:
        self.bytes = 0
        self._originals = []

    def install(self) -> None:
        from repro.gateway import protocol

        encode, decode = protocol.encode_frame, protocol.decode_result_payload
        counter = self

        def encode_frame(kind, payload=b""):
            frame = encode(kind, payload)
            if kind in (protocol.FRAME_PUSH, protocol.FRAME_PUSH_BLOCK):
                counter.bytes += len(frame)
            return frame

        def decode_result_payload(payload):
            counter.bytes += len(payload) + 9  # frame header
            return decode(payload)

        self._originals = [("encode_frame", encode), ("decode_result_payload", decode)]
        protocol.encode_frame = encode_frame
        protocol.decode_result_payload = decode_result_payload

    def remove(self) -> None:
        from repro.gateway import protocol

        for name, original in self._originals:
            setattr(protocol, name, original)
        self._originals = []


def _stats(child: Child) -> dict:
    child.send("stats")
    return child.receive()


def _delta(after: dict, before: dict, *path) -> float:
    for key in path[:-1]:
        after, before = after[key], before[key]
    return float(after[path[-1]]) - float(before[path[-1]])


def _count(total: Counter, after: dict, before: dict) -> None:
    for name, path in COUNTERS.items():
        total[name] += _delta(after, before, *path)


class _Plan:
    """Rows of the fleet each phase of each round pushes."""

    def __init__(self, seconds: int, trace: bool) -> None:
        self.paced_s = PACED_SECONDS_PER_SECOND * max(seconds, 10)
        self.paced = int(round(RATE * self.paced_s / SHAPE.stations))
        self.unpaced = UNPACED_PER_SECOND * seconds
        # A traced run alternates an untraced and a traced unpaced chunk.
        self.chunks = 2 if trace else 1
        self.per_round = self.paced + self.chunks * self.unpaced
        self.total = WARMUP + ROUNDS * self.per_round

    def paced_rows(self, number: int):
        start = WARMUP + number * self.per_round
        return start, start + self.paced

    def unpaced_rows(self, number: int, chunk: int):
        start = WARMUP + number * self.per_round + self.paced + chunk * self.unpaced
        return start, start + self.unpaced


async def _paced(fleet, loadgen, rows, seed: int, number: int):
    """One paced window: latencies from due times and generator lateness."""
    events = interleave(fleet, *rows)
    due = poisson_due_times(len(events), RATE, seed, stream=number)
    lateness = np.empty(len(events))
    start = _clock() + 0.05
    due_at = {}
    for i, ((index, ordinal), offset) in enumerate(zip(events, due)):
        when = start + float(offset)
        delay = when - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness[i] = _clock() - when
        due_at[(fleet[index].name, SHAPE.window + ordinal)] = when
        await loadgen.push(index, ordinal)
    await loadgen.flush()
    latencies = [
        loadgen.received[key] - when for key, when in due_at.items()
        if key in loadgen.received
    ]
    return latencies, lateness, _clock() - start


async def _unpaced(fleet, loadgen, rows) -> float:
    """One unpaced chunk; returns its records per second."""
    events = interleave(fleet, *rows)
    began = _clock()
    for index, ordinal in events:
        await loadgen.push(index, ordinal)
    await loadgen.flush()
    return len(events) / (_clock() - began)


async def _measured(fleet, child: Child, plan: _Plan, seed: int, trace: bool):
    """Set-up, warm-up and the rounds on one gateway instance."""
    hello = child.receive()
    loadgen = _Loadgen(fleet, hello["port"])
    out = {"windows": [], "lateness": [], "rates": [], "restarts": []}
    paced, unpaced = Counter(), Counter()
    paced_recorder, chunk_recorder = tracing.Recorder(), tracing.Recorder()
    wire = _WireBytes()
    untraced, traced = [], []
    paced_s = 0.0
    try:
        await loadgen.open()
        out["setup_s"] = _clock() - child.started
        # The generator's own garbage collector must not stall the schedule.
        gc.collect()
        gc.freeze()
        gc.disable()
        # Warm-up at the paced rate, so the gateway's backlog high-water mark
        # (never reset) stays that of paced traffic until the first window.
        await _paced(fleet, loadgen, (0, WARMUP), seed, ROUNDS)
        before = _stats(child)
        for number in range(ROUNDS):
            installed = tracing.install(paced_recorder) if trace else None
            try:
                latencies, lateness, wall = await _paced(
                    fleet, loadgen, plan.paced_rows(number), seed, number
                )
            finally:
                if installed is not None:
                    installed.remove()
            out["windows"].append(latencies)
            out["lateness"].append(lateness)
            paced_s += wall
            after = _stats(child)
            _count(paced, after, before)
            if number == 0:
                # A lifetime high-water mark: read it before any unpaced chunk.
                out["pending_peak"] = float(after["gateway"]["pending_records_peak"])
            before = after

            for chunk in range(plan.chunks):
                installed = None
                if chunk:
                    installed = tracing.install(chunk_recorder)
                    wire.install()
                try:
                    rate = await _unpaced(fleet, loadgen, plan.unpaced_rows(number, chunk))
                finally:
                    if installed is not None:
                        installed.remove()
                        wire.remove()
                (traced if chunk else untraced).append(1.0 / rate)
                if not chunk:
                    out["rates"].append(rate)
            after = _stats(child)
            _count(unpaced, after, before)
            before = after

            restart = Child("gateway", {"transport": TRANSPORT})
            try:
                out["restarts"].append(await _restart(fleet, restart))
            finally:
                restart.kill()
        out["flush_spans"] = paced_recorder.totals().get("client.flush")
        if trace:
            out["overhead"] = tracing.overhead(untraced, traced)
            out["wire_bytes_per_record"] = wire.bytes / (
                ROUNDS * plan.unpaced * len(fleet)
            )
        out["paced"], out["unpaced"], out["paced_s"] = paced, unpaced, paced_s
        out["refused"] = loadgen.refused()
        out["results"] = loadgen.results
    finally:
        gc.enable()
        gc.unfreeze()
        await loadgen.close()
    child.send("stop")
    rss = child.receive()
    out["rss_mb"] = rss["rss_mb"] + rss["children_rss_mb"]
    child.finish()
    return out


async def _restart(fleet, child: Child):
    """Cold restart: sessions re-created and re-primed, one row each answered."""
    hello = child.receive()
    loadgen = _Loadgen(fleet, hello["port"])
    try:
        await loadgen.open()
        primed = _clock()
        for index in range(len(fleet)):
            await loadgen.push(index, 0)
        await loadgen.flush()
        answered = _clock()
        refused = loadgen.refused()
        results = loadgen.results
    finally:
        await loadgen.close()
    child.send("stop")
    child.receive()
    child.finish()
    return primed - child.started, answered - hello["ready"], results, refused


def _replay(fleet, order, trace: bool):
    """In-process reference: every record through ``ImputationService.push``."""
    from repro.service import ImputationService

    service = ImputationService()
    for station in fleet:
        service.create_session(station.name, series_names=station.series_names, **station.params)
        service.prime(station.name, station.history)
    results = {station.name: [] for station in fleet}
    half = len(order) // 2 if trace else len(order)
    recorder = tracing.Recorder()
    installed = None
    began = _clock()
    floor = None
    for i, (index, ordinal) in enumerate(order):
        if i == half:
            floor = (_clock() - began) / half
            installed = tracing.install(recorder)
        station = fleet[index]
        results[station.name].extend(service.push(station.name, station.rows[ordinal]))
    if installed is not None:
        installed.remove()
    if floor is None:
        floor = (_clock() - began) / len(order)
    return results, floor, recorder.totals()


def run(seed: int, seconds: int, trace: bool, workdir) -> dict:
    plan = _Plan(seconds, trace)
    fleet = make_fleet(SHAPE, seed, plan.total)
    problems: List[str] = []

    first = Child("gateway", {"transport": TRANSPORT})
    try:
        measured = asyncio.run(_measured(fleet, first, plan, seed, trace))
    finally:
        first.kill()
    restarts = measured["restarts"]
    setups = [measured["setup_s"]] + [setup for setup, *_ in restarts]
    refused = measured["refused"] + sum(lost for *_, lost in restarts)

    order = interleave(fleet, 0, plan.total)
    reference, floor, replay_spans = _replay(fleet, order, trace)
    flat_reference = flatten(reference)
    problems += same_results(flatten(measured["results"]), flat_reference)
    first_row = {k: v for k, v in flat_reference.items() if k[1] == SHAPE.window}
    for _, _, results, _ in restarts:
        problems += same_results(flatten(results), first_row)
    quality = checks.check_fleet(
        fleet, SHAPE, checks.compact(reference, SHAPE.window),
        0, plan.total, seed, ORACLE_SAMPLES, problems,
    )
    if refused:
        problems.append(f"{refused} pushes were refused by the gateway")

    windows = measured["windows"]
    fewest = min(len(w) for w in windows)
    if fewest < 1000:
        raise BenchError(f"a latency window holds only {fewest} samples; p99 needs 1000")
    end_to_end = {
        "setup_s": median(setups),
        "throughput_rps": median(measured["rates"]),
        "recovery_s": median([recovery for _, recovery, *_ in restarts]),
        "imputation_rmse": quality["rmse"],
        "peak_rss_mb": measured["rss_mb"],
    }
    paced, unpaced = measured["paced"], measured["unpaced"]
    lateness = np.concatenate(measured["lateness"])
    flush_spans = measured["flush_spans"] or {"seconds": 0.0, "calls": 0}
    per_layer = {
        "loadgen.lateness_p99_ms": 1e3 * percentile(lateness, 99),
        "protocol.bytes_per_record": measured.get("wire_bytes_per_record", 0.0),
        "gateway.records_per_flush": paced["records_in"] / max(1.0, paced["flushes"]),
        "gateway.flush_rtt_ms": 1e3 * flush_spans["seconds"] / max(1, flush_spans["calls"]),
        "gateway.pending_peak": measured["pending_peak"],
        "gateway.pause_events": unpaced["pause_events"],
        "cluster.rows_per_block": paced["records_routed"]
        / max(1.0, paced["blocks_executed"]),
        "cluster.rows_per_block_unpaced": unpaced["records_routed"]
        / max(1.0, unpaced["blocks_executed"]),
        "cluster.worker_us_per_record": 1e6 * unpaced["push_seconds"]
        / max(1.0, unpaced["records_routed"]),
        "cluster.worker_busy_share": paced["push_seconds"] / measured["paced_s"],
        "cluster.pipe_bytes_per_record": unpaced["pipe_bytes"]
        / max(1.0, unpaced["records_routed"]),
        "service.floor_us_per_record": 1e6 * floor,
        "trace.overhead_pct": measured.get("overhead", {}).get("pct", 0.0),
    }
    per_layer.update(_core_layer(replay_spans))
    counts = {
        "latency_samples": sum(len(w) for w in windows),
        "latency_windows": len(windows),
        "fewest_window_samples": fewest,
        "latency_p50_ms": 1e3 * median([percentile(w, 50) for w in windows]),
        "latency_p99_ms": 1e3 * median([percentile(w, 99) for w in windows]),
        "loadgen_lateness_p99_ms": per_layer["loadgen.lateness_p99_ms"],
        "paced_records": int(paced["records_in"]),
        "unpaced_records": int(unpaced["records_in"]),
        "baseline_rmse": quality["baseline_rmse"],
        "imputations": quality["imputations"],
        **tracing.overhead_counts(measured.get("overhead", {})),
    }
    return {
        "attempted": len(order) + len(restarts) * len(fleet),
        "failed": refused,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": counts,
    }


def _core_layer(spans: dict) -> Dict[str, float]:
    """Service and core figures from spans of an in-process replay."""
    return {
        "service.push_us_per_record": 1e6 * span_mean(spans, "service.push"),
        "core.observe_us_per_row": 1e6 * span_mean(spans, "core.observe"),
        "core.observe_batch_us_per_row": 1e6 * span_mean(spans, "core.observe_batch", "rows"),
        "core.select_anchors_us": 1e6 * span_mean(spans, "core.select_anchors"),
        "core.imputations": float(spans.get("core.select_anchors", {}).get("calls", 0)),
    }

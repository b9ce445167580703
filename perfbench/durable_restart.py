"""``durable-restart``: 64 narrow stations into a durable service, killed and recovered.

Each station has 4 series (target, a lossy top candidate, two clean ones;
``d=2`` of 3 ranked candidates), so reference selection has to skip the
top candidate whenever it is missing.  The ingest process
(``serve.py ingest``) pushes one record at a time with a producer
timestamp; the store checkpoints every :data:`CHECKPOINT_EVERY` records per
session.  Pushes go round-robin over the stations, so each timed window of
one checkpoint period (stations x :data:`CHECKPOINT_EVERY` pushes) holds
exactly one checkpoint of every session, and the window medians behind
``throughput_rps`` and ``latency_*`` carry the checkpoint cost.  After its
last push returns the process is killed with SIGKILL.  A fresh process
(``serve.py recover``) recovers :data:`SPARES` copies of the crashed store
one after another, then the store itself, each answering one push per
station; ``recovery_s`` is the median of these recoveries.  The last one
then serves the held-back tail.

The store lives in the run's scratch directory inside the checkout, since
the benchmark writes nowhere else; its numbers therefore include the
filesystem the checkout is on.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from typing import List

import numpy as np

import checks
import tracing
from common import Child, median, percentile, span_mean
from inputs import FleetShape, interleave, make_fleet

SHAPE = FleetShape(
    stations=64, series=4, window=144, pattern=12, anchors=3, references=2,
    period=48, target_dropout=0.5, candidate_dropout=0.1, rank_all=True,
)
#: Records per session between checkpoints; one timed window per period.
CHECKPOINT_EVERY = 64
#: WAL appends per fsync; 0 turns the WAL's batched fsync off.  The store
#: must live inside the checkout, which here is a shared virtual disk whose
#: fsync latency swings run to run; the workload measures the program's
#: encoding and framing, not that disk.  Checkpoint writes still fsync.
FSYNC_EVERY = 0
#: Leading records per station pushed before the timed windows.
WARMUP = 8
#: Records per station pushed after the timed windows, before the kill;
#: with :data:`WARMUP` they leave 56 records per session in the WAL tail.
AFTER = 48
#: Held-back records per station, pushed after recovery.
HELD_BACK = 64
ORACLE_SAMPLES = 40
SETUPS = 3
#: Copies of the crashed store recovered before the store itself.
SPARES = 2


def _store_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


def run(seed: int, seconds: int, trace: bool, workdir) -> dict:
    windows = max(4, seconds)
    ingest = WARMUP + CHECKPOINT_EVERY * windows + AFTER
    records = ingest + HELD_BACK
    store = str(workdir / "store")
    base = {
        "shape": SHAPE.__dict__, "seed": seed, "records": records, "ingest": ingest,
        "checkpoint_every": CHECKPOINT_EVERY, "fsync_every": FSYNC_EVERY,
        "trace": trace, "warmup": WARMUP, "windows": windows,
        "oracle_samples": ORACLE_SAMPLES,
    }
    problems: List[str] = []

    setups = []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        path = store if last else f"{store}-{attempt}"
        child = Child("ingest", {**base, "store": path, "out": str(workdir / "ingest.pkl")})
        try:
            ready = child.receive()
            setups.append(ready["ready"] - child.started - ready["inputs_s"])
            if last:
                child.send("go")
                child.receive()
            else:
                child.finish()
        finally:
            child.kill()  # after the last push returned: the crash
        if not last:
            shutil.rmtree(path)
    with open(workdir / "ingest.pkl", "rb") as handle:
        ingested = pickle.load(handle)
    disk_bytes = _store_bytes(store)
    copies = [f"{store}-copy{number}" for number in range(SPARES)]
    for copy in copies:
        shutil.copytree(store, copy)

    child = Child("recover", {
        **base, "store": store, "copies": copies, "out": str(workdir / "recover.pkl"),
    })
    try:
        child.receive()
        child.send("go")
        child.receive()
        child.finish()
    finally:
        child.kill()
    with open(workdir / "recover.pkl", "rb") as handle:
        recovered = pickle.load(handle)

    fleet = make_fleet(SHAPE, seed, records)
    names = {station.name: station.series_names for station in fleet}
    ingested_results = checks.expand(ingested["results"], names)
    recovered_results = checks.expand(recovered["results"], names)
    reference, floor = _reference(fleet, records)
    served = checks.merge(ingested_results, recovered_results)
    for name, part, lo, hi in (
        ("ingest", ingested_results, 0, ingest),
        ("recovered tail", recovered_results, ingest, records),
    ):
        want = _values(reference, lo, hi)
        if _values(part, lo, hi) != want:
            problems.append(f"{name} results differ from the uninterrupted reference")
    want = _values(reference, ingest, ingest + 1)
    for spare in recovered["spare_results"]:
        if _values(checks.expand(spare, names), ingest, ingest + 1) != want:
            problems.append("a recovered copy of the store answered differently")
    expected_replay = SHAPE.stations * (ingest % CHECKPOINT_EVERY)
    if set(recovered["records_replayed"]) != {expected_replay}:
        problems.append(
            f"recoveries replayed {recovered['records_replayed']} records, "
            f"the checkpoint policy implies {expected_replay}"
        )
    if recovered["sessions"] != SHAPE.stations:
        problems.append(f"recovered {recovered['sessions']} of {SHAPE.stations} sessions")
    quality = checks.check_fleet(
        fleet, SHAPE, served, 0, records, seed, ORACLE_SAMPLES, problems
    )

    per_window = CHECKPOINT_EVERY * SHAPE.stations
    latencies = ingested["latencies"].reshape(windows, per_window)
    window_s = np.asarray(ingested["window_s"])
    # Untraced windows only: all of them, or the even ones of a traced run.
    plain = slice(None, None, 2) if trace else slice(None)
    spans = ingested["spans"]
    recover_spans = recovered["spans"]
    before, after = ingested["counters_before"], ingested["counters"]
    wal_records = after["wal_records"] - before["wal_records"]
    end_to_end = {
        "setup_s": median(setups),
        "throughput_rps": per_window / median(window_s[plain]),
        "recovery_s": median(recovered["recovery_s"]),
        "imputation_rmse": quality["rmse"],
        "peak_rss_mb": max(ingested["rss_mb"], recovered["rss_mb"]),
    }
    cost = tracing.overhead(window_s[0::2], window_s[1::2]) if trace else {}
    per_layer = {
        "service.push_us_per_record": 1e6 * span_mean(spans, "service.push"),
        "service.floor_us_per_record": 1e6 * floor,
        "core.observe_us_per_row": 1e6 * span_mean(spans, "core.observe"),
        "core.observe_batch_us_per_row": 0.0,
        "core.select_anchors_us": 1e6 * span_mean(spans, "core.select_anchors"),
        "core.imputations": float(spans.get("core.select_anchors", {}).get("calls", 0)),
        "durability.wal_append_us": 1e6 * span_mean(spans, "durability.wal_append"),
        "durability.wal_bytes_per_record": (after["wal_bytes"] - before["wal_bytes"])
        / max(1, wal_records),
        "durability.checkpoint_ms": 1e3 * span_mean(spans, "durability.checkpoint_write"),
        "durability.checkpoints": float(
            after["checkpoints_written"] - before["checkpoints_written"]
        ),
        "durability.checkpoint_read_ms": 1e3 * span_mean(
            recover_spans, "durability.checkpoint_read"
        ),
        "durability.replay_records_per_s": recovered["records_replayed"][-1]
        / max(1e-9, recovered["replay_seconds"]),
        "durability.records_replayed": float(recovered["records_replayed"][-1]),
        "durability.disk_bytes_per_record": disk_bytes / (ingest * SHAPE.stations),
        "trace.overhead_pct": cost.get("pct", 0.0),
    }
    return {
        "attempted": records * SHAPE.stations,
        "failed": 0,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": {
            "latency_samples": latencies[plain].size,
            "latency_p50_ms": 1e3 * median([percentile(w, 50) for w in latencies[plain]]),
            "latency_p99_ms": 1e3 * median([percentile(w, 99) for w in latencies[plain]]),
            "latency_windows": len(window_s[plain]),
            "store_bytes": disk_bytes,
            **tracing.overhead_counts(cost),
            "baseline_rmse": quality["baseline_rmse"],
            "imputations": quality["imputations"],
        },
    }


def _values(results: dict, lo: int, hi: int) -> dict:
    """``{(station, ordinal, series): float64 bits + method}`` in [lo, hi)."""
    return {
        (station, ordinal, series): (cell[0].hex(), cell[1])
        for station, cells in results.items()
        for ordinal, per_series in cells.items()
        if lo <= ordinal < hi
        for series, cell in per_series.items()
    }


def _reference(fleet, records: int):
    """Uninterrupted in-memory service fed the whole stream with timestamps."""
    from repro.service import ImputationService

    service = ImputationService()
    for station in fleet:
        service.create_session(station.name, series_names=station.series_names, **station.params)
        service.prime(station.name, station.history)
    results = {station.name: [] for station in fleet}
    order = interleave(fleet, 0, records)
    began = time.perf_counter()
    for index, ordinal in order:
        station = fleet[index]
        results[station.name].extend(
            service.push(station.name, station.rows[ordinal], timestamp=float(ordinal))
        )
    floor = (time.perf_counter() - began) / len(order)
    return checks.compact(results, SHAPE.window), floor

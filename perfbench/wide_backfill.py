"""``wide-backfill``: 16 wide stations through ``push_block`` in one process.

32 series per station, so the target's expert ranking holds 31
candidates; TKCM with ``d=3, L=1440, l=36, k=5``.  The serving process
(``serve.py backfill``) pushes the stream in 288-row blocks, station after
station, with no network and no disk.  Latency is the time of one
``push_block`` call, from submitting a block to holding its results.

Three more processes are cold restarts: no durable store exists here, so a
restart re-creates and re-primes every session from history and pushes the
first block of every station.  ``recovery_s`` runs from the restarted
process being ready (program imported, inputs at hand) until every
station's first block is answered; process start and import are in
``setup_s``.
"""

from __future__ import annotations

import pickle
from typing import List

import numpy as np

import checks
import tracing
from common import Child, median, percentile, span_mean
from inputs import FleetShape, make_fleet

SHAPE = FleetShape(
    stations=16, series=32, window=1440, pattern=36, anchors=5, references=3,
    period=288, target_dropout=0.25,
)
BLOCK = 288
#: Blocks per station, per second of ``--seconds``.
BLOCKS_PER_SECOND = 3.0
#: Cold restarts per run (each also gives a set-up sample).
RESTARTS = 3
ORACLE_SAMPLES = 30


def run(seed: int, seconds: int, trace: bool, workdir) -> dict:
    records = BLOCK * (1 + max(2, int(round(BLOCKS_PER_SECOND * seconds))))
    config = {
        "shape": SHAPE.__dict__, "seed": seed, "records": records,
        "block": BLOCK, "trace": trace, "out": str(workdir / "backfill.pkl"),
        "oracle_samples": ORACLE_SAMPLES,
    }
    problems: List[str] = []
    child = Child("backfill", config)
    try:
        ready = child.receive()
        setups = [ready["ready"] - child.started - ready["inputs_s"]]
        child.send("go")
        child.receive()
        child.finish()
    finally:
        child.kill()
    with open(config["out"], "rb") as handle:
        measured = pickle.load(handle)

    recoveries, restart_values = [], []
    for _ in range(RESTARTS):
        child = Child("backfill", {**config, "restart": True})
        try:
            ready = child.receive()
            child.finish()
        finally:
            child.kill()
        setups.append(ready["primed"] - child.started - ready["inputs_s"])
        recoveries.append(ready["ready"] - ready["began"])
        restart_values.append(ready["results"])

    fleet = make_fleet(SHAPE, seed, records)
    results = checks.expand(
        measured["results"], {station.name: station.series_names for station in fleet}
    )
    quality = checks.check_fleet(
        fleet, SHAPE, results, 0, records, seed, ORACLE_SAMPLES, problems
    )
    expected = sorted(
        [station, ordinal, series, cell[0], cell[1]]
        for station, cells in results.items()
        for ordinal, per_series in cells.items()
        if ordinal < BLOCK
        for series, cell in per_series.items()
    )
    for values in restart_values:
        if sorted(values) != expected:
            problems.append("a cold restart answered its first block differently")

    rows = records * SHAPE.stations
    spans = measured["spans"]
    # One round is a block of every station; throughput is the median
    # round's, so one slow stretch of the host does not decide the run.
    by_round = np.asarray(measured["latencies"]).reshape(-1, SHAPE.stations)
    round_s = by_round.sum(axis=1)
    # Untraced rounds only: all of them, or the even ones of a traced run.
    plain = slice(None, None, 2) if trace else slice(None)
    round_rows = BLOCK * SHAPE.stations
    end_to_end = {
        "setup_s": median(setups),
        "throughput_rps": round_rows / median(round_s[plain]),
        "recovery_s": median(recoveries),
        "imputation_rmse": quality["rmse"],
        "peak_rss_mb": measured["rss_mb"],
    }
    cost = tracing.overhead(round_s[0::2], round_s[1::2]) if trace else {}
    per_layer = {
        "service.push_us_per_record": 1e6 * span_mean(spans, "service.push_block", "rows"),
        "service.floor_us_per_record": 1e6 * median(round_s[plain]) / round_rows,
        "core.observe_us_per_row": 0.0,
        "core.observe_batch_us_per_row": 1e6 * span_mean(spans, "core.observe_batch", "rows"),
        "core.select_anchors_us": 1e6 * span_mean(spans, "core.select_anchors"),
        "core.imputations": float(spans.get("core.select_anchors", {}).get("calls", 0)),
        "trace.overhead_pct": cost.get("pct", 0.0),
    }
    return {
        "attempted": rows + RESTARTS * SHAPE.stations * BLOCK,
        "failed": 0,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": {
            "latency_samples": by_round[plain].size,
            # Per round, then the median over rounds: a host stall of a few
            # hundred milliseconds spoils one round, not the run.
            "latency_p50_ms": 1e3 * median([percentile(r, 50) for r in by_round[plain]]),
            "latency_p99_ms": 1e3 * median([percentile(r, 99) for r in by_round[plain]]),
            "latency_rounds": len(round_s[plain]),
            "timed_rows": by_round.size * BLOCK,
            **tracing.overhead_counts(cost),
            "baseline_rmse": quality["baseline_rmse"],
            "imputations": quality["imputations"],
        },
    }

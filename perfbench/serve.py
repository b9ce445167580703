"""Serving processes of the benchmark, one role per invocation.

``python3 perfbench/serve.py <role> '<json config>'`` — started by the
workloads through :class:`common.Child`, never by hand.  Each role builds
its inputs from the seed in the config, reports ``{"ready": ...}`` on
stdout once its fleet is primed, then follows commands read from stdin.

Roles:

``gateway``
    A 1-worker cluster behind a ``GatewayServer``; answers ``stats`` with
    the gateway and cluster counters, ``stop`` ends it.
``backfill``
    An in-process ``ImputationService`` of wide stations: ``go`` pushes the
    stream in 288-row blocks (``restart`` config: the first block of every
    station only).
``ingest``
    A durable ``ImputationService``: ``go`` pushes the ingest part of the
    stream one record at a time, timed in windows of one checkpoint
    period, then it waits to be killed.
``recover``
    Recovers copies of the crashed store, then the store itself, each
    answering one push per station, then pushes the held-back tail.
"""

from __future__ import annotations

import asyncio
import pickle
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import child_main, peak_rss_mb, use_program  # noqa: E402

use_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from checks import Collector, compact, oracle_picks  # noqa: E402
from inputs import FleetShape, interleave, make_fleet  # noqa: E402

_clock = time.perf_counter


def _fleet(config):
    started = _clock()
    shape = FleetShape(**config["shape"])
    fleet = make_fleet(shape, config["seed"], config["records"])
    for station in fleet:
        station.truth = None  # the serving side never sees the hidden truth
    return shape, fleet, _clock() - started


def _collector(config, shape, fleet) -> Collector:
    picks = oracle_picks(fleet, config["seed"], config.get("oracle_samples", 0))
    return Collector(fleet, shape.window, picks)


def _dump(path, payload) -> None:
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _create(service, fleet) -> None:
    for station in fleet:
        service.create_session(
            station.name, series_names=station.series_names, **station.params
        )
        service.prime(station.name, station.history)


# --------------------------------------------------------------------------- #
def gateway(config, say, listen) -> None:
    from repro.cluster.coordinator import ClusterCoordinator

    with ClusterCoordinator(num_workers=1, transport=config["transport"]) as cluster:
        asyncio.run(_serve_gateway(cluster, say, listen))
    say(rss_mb=peak_rss_mb(), children_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN))


async def _serve_gateway(cluster, say, listen) -> None:
    """Serve on this loop; commands run on it too.

    The gateway calls the coordinator from its event loop, and the
    coordinator is not thread-safe, so ``stats`` is answered on the same
    loop (stdin is read on a helper thread), never from another thread.
    """
    from repro.gateway.server import GatewayServer

    server = GatewayServer(cluster)
    await server.start()
    loop = asyncio.get_running_loop()
    try:
        say(ready=_clock(), port=server.port, inputs_s=0.0)
        while True:
            command = await loop.run_in_executor(None, listen)
            if command == "stats":
                say(gateway=server.stats(), cluster=cluster.stats()["cluster"])
            elif command in ("stop", ""):
                break
    finally:
        await server.stop()


def _values(results: dict) -> list:
    """``[[station, ordinal, series, value, method]]`` for a JSON message."""
    return [
        [station, ordinal, series, cell[0], cell[1]]
        for station, cells in results.items()
        for ordinal, per_series in cells.items()
        for series, cell in per_series.items()
    ]


# --------------------------------------------------------------------------- #
def backfill(config, say, listen) -> None:
    from repro.service import ImputationService

    shape, fleet, inputs_s = _fleet(config)
    began = _clock()
    service = ImputationService()
    _create(service, fleet)
    if config.get("restart"):
        primed = _clock()
        results = {
            station.name: service.push_block(station.name, station.rows[:config["block"]])
            for station in fleet
        }
        say(began=began, primed=primed, ready=_clock(), inputs_s=inputs_s,
            results=_values(compact(results, shape.window)))
        return
    say(ready=_clock(), inputs_s=inputs_s)
    if listen() != "go":
        return
    block = config["block"]
    results = _collector(config, shape, fleet)
    # Warm-up: the first block of every station is pushed untimed.
    for station in fleet:
        results.add(station.name, service.push_block(station.name, station.rows[:block]))
    # One round is a block of every station.  With tracing, odd rounds are
    # traced and even ones not, so the overhead is read from neighbours.
    recorder = tracing.Recorder()
    latencies = []
    for number, start in enumerate(range(block, config["records"], block)):
        installed = tracing.install(recorder) if config["trace"] and number % 2 else None
        for station in fleet:
            t0 = _clock()
            ticks = service.push_block(station.name, station.rows[start: start + block])
            latencies.append(_clock() - t0)
            results.add(station.name, ticks)
        if installed is not None:
            installed.remove()
    _dump(config["out"], {
        "results": results.export(),
        "latencies": latencies,
        "spans": recorder.totals(),
        "rss_mb": peak_rss_mb(),
    })
    say(done=True)


# --------------------------------------------------------------------------- #
def _durable(config, store=None):
    from repro.durability.journal import DurabilityConfig, DurabilityPolicy
    from repro.service import ImputationService

    policy = DurabilityPolicy(
        checkpoint_every=config["checkpoint_every"], fsync_every=config["fsync_every"]
    )
    return ImputationService(durability=DurabilityConfig(store or config["store"], policy))


def ingest(config, say, listen) -> None:
    shape, fleet, inputs_s = _fleet(config)
    service = _durable(config)
    _create(service, fleet)
    say(ready=_clock(), inputs_s=inputs_s)
    if listen() != "go":
        service.close()
        return
    results = _collector(config, shape, fleet)
    latencies = []

    def push(lo: int, hi: int) -> None:
        for index, ordinal in interleave(fleet, lo, hi):
            station = fleet[index]
            t0 = _clock()
            ticks = service.push(station.name, station.rows[ordinal], timestamp=float(ordinal))
            latencies.append(_clock() - t0)
            results.add(station.name, ticks)

    warmup, period = config["warmup"], config["checkpoint_every"]
    push(0, warmup)
    del latencies[:]
    # Timed windows of one checkpoint period each: every window holds one
    # checkpoint per session.  With tracing, odd windows are traced and
    # even ones not, so the overhead is read from neighbouring windows.
    recorder = tracing.Recorder()
    counters_before = dict(service.durability_stats())
    window_s = []
    for window in range(config["windows"]):
        lo = warmup + window * period
        installed = tracing.install(recorder) if config["trace"] and window % 2 else None
        began = _clock()
        push(lo, lo + period)
        window_s.append(_clock() - began)
        if installed is not None:
            installed.remove()
    counters = service.durability_stats()
    timed = len(latencies)
    push(warmup + config["windows"] * period, config["ingest"])
    _dump(config["out"], {
        "results": results.export(),
        "latencies": np.asarray(latencies[:timed]),
        "window_s": window_s,
        "spans": recorder.totals(),
        "counters_before": counters_before,
        "counters": counters,
        "rss_mb": peak_rss_mb(),
    })
    say(done=True)
    listen()  # the benchmark kills this process here, mid-period


def recover(config, say, listen) -> None:
    shape, fleet, inputs_s = _fleet(config)
    recorder = tracing.Recorder()
    installed = tracing.install(recorder) if config["trace"] else None
    say(ready=_clock(), inputs_s=inputs_s)
    if listen() != "go":
        return
    first = config["ingest"]

    def recover_one(store, results):
        """Open a crashed store, recover it and answer one push per station."""
        began = _clock()
        service = _durable(config, store)
        report = service.recover()
        for station in fleet:
            results.add(
                station.name,
                service.push(station.name, station.rows[first], timestamp=float(first)),
            )
        return service, report, _clock() - began

    # Copies of the crashed store are recovered first, one after another,
    # each answering its first pushes; the original is recovered last and
    # serves the held-back tail.
    timings, replayed, spare_results = [], [], []
    for store in config["copies"]:
        results = _collector(config, shape, fleet)
        service, report, seconds = recover_one(store, results)
        service.close()
        timings.append(seconds)
        replayed.append(report.records_replayed)
        spare_results.append(results.export())
    results = _collector(config, shape, fleet)
    service, report, seconds = recover_one(config["store"], results)
    timings.append(seconds)
    replayed.append(report.records_replayed)
    for index, ordinal in interleave(fleet, first + 1, config["records"]):
        station = fleet[index]
        results.add(
            station.name,
            service.push(station.name, station.rows[ordinal], timestamp=float(ordinal)),
        )
    if installed is not None:
        installed.remove()
    counters = service.durability_stats()
    service.close()
    _dump(config["out"], {
        "results": results.export(),
        "spare_results": spare_results,
        "recovery_s": timings,
        "records_replayed": replayed,
        "replay_seconds": report.replay_seconds,
        "sessions": len(report.sessions),
        "counters": counters,
        "spans": recorder.totals(),
        "rss_mb": peak_rss_mb(),
    })
    say(done=True)


if __name__ == "__main__":
    roles = {"gateway": gateway, "backfill": backfill, "ingest": ingest, "recover": recover}
    child_main(roles[sys.argv[1]])

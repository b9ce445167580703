"""Output checks shared by the workloads.

Program results are reduced to a compact, picklable form,
``{station: {ordinal: {series: (value, method, detail)}}}`` with ``detail``
``(references, anchors, anchor values, dissimilarities)`` when the result
carried one.  :func:`check_fleet` then holds them against the generated
inputs and the hidden truth.

Serving processes keep what they receive in a :class:`Collector` instead:
plain arrays plus the details of the oracle's picks only, so results the
benchmark holds neither grow the serving process's memory nor its garbage
collector's work.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from common import rmse
from inputs import FleetShape, Station
from oracle import Imputation, check_imputation, filled_matrix


def compact(results: Dict[str, List], history: int) -> dict:
    """Reduce ``{station: [TickResult]}`` to plain tuples keyed by ordinal."""
    out: Dict[str, Dict[int, dict]] = {}
    for station, ticks in results.items():
        per_station = out.setdefault(station, {})
        for tick in ticks:
            cells = per_station.setdefault(tick.index - history, {})
            for series, estimate in tick.estimates.items():
                cells[series] = (estimate.value, estimate.method, _detail(estimate.detail))
    return out


def _detail(detail):
    return None if detail is None else (
        tuple(detail.reference_names),
        tuple(detail.anchor_indices),
        tuple(detail.anchor_values),
        tuple(detail.dissimilarities),
    )


def oracle_picks(fleet: Sequence[Station], seed: int, count: int) -> set:
    """A seeded sample of ``(station, ordinal)`` target holes for the oracle."""
    holes = [
        (station.name, int(ordinal))
        for station in fleet
        for ordinal in np.flatnonzero(np.isnan(station.rows[:, 0]))
    ]
    rng = np.random.default_rng([int(seed), 15485863])
    chosen = rng.choice(len(holes), size=min(count, len(holes)), replace=False)
    return {holes[int(i)] for i in chosen}


class Collector:
    """Served results as arrays, with details kept for the oracle's picks."""

    def __init__(self, fleet: Sequence[Station], history: int, picks: set) -> None:
        self.history = history
        self.picks = picks
        self.column = {
            name: j for station in fleet for j, name in enumerate(station.series_names)
        }
        self.values = {s.name: np.full(s.rows.shape, np.nan) for s in fleet}
        self.methods = {s.name: np.zeros(s.rows.shape, dtype=np.int8) for s in fleet}
        self.method_names = [None]
        self.details = {}

    def add(self, station: str, ticks) -> None:
        values, methods = self.values[station], self.methods[station]
        for tick in ticks:
            ordinal = tick.index - self.history
            for series, estimate in tick.estimates.items():
                j = self.column[series]
                values[ordinal, j] = estimate.value
                if estimate.method not in self.method_names:
                    self.method_names.append(estimate.method)
                methods[ordinal, j] = self.method_names.index(estimate.method)
                if j == 0 and (station, ordinal) in self.picks:
                    self.details[(station, ordinal)] = _detail(estimate.detail)

    def export(self) -> dict:
        return {
            "values": self.values, "methods": self.methods,
            "method_names": self.method_names, "details": self.details,
        }


def expand(exported: dict, names: Dict[str, List[str]]) -> dict:
    """:meth:`Collector.export` output back in the compact form."""
    out: Dict[str, Dict[int, dict]] = {}
    for station, methods in exported["methods"].items():
        values = exported["values"][station]
        cells = out.setdefault(station, {})
        for ordinal, j in zip(*np.nonzero(methods)):
            cells.setdefault(int(ordinal), {})[names[station][j]] = (
                float(values[ordinal, j]),
                exported["method_names"][methods[ordinal, j]],
                exported["details"].get((station, int(ordinal))) if j == 0 else None,
            )
    return out


def merge(*parts: dict) -> dict:
    out: Dict[str, Dict[int, dict]] = {}
    for part in parts:
        for station, cells in part.items():
            out.setdefault(station, {}).update(cells)
    return out


def window_mean_errors(station: Station, window: int, ordinals, column: int) -> List[float]:
    """Errors of the trivial predictor: mean of the observed window values."""
    past = station.history[station.series_names[column]]
    series = np.concatenate([past, station.rows[:, column]])
    observed = ~np.isnan(series)
    prefix_sum = np.concatenate([[0.0], np.cumsum(np.where(observed, series, 0.0))])
    prefix_count = np.concatenate([[0], np.cumsum(observed)])
    errors = []
    for ordinal in ordinals:
        end = len(past) + ordinal  # the hole itself is excluded
        start = end - (window - 1)
        count = prefix_count[end] - prefix_count[start]
        mean = (prefix_sum[end] - prefix_sum[start]) / count
        errors.append(mean - station.truth[ordinal, column])
    return errors


def check_fleet(
    fleet: Sequence[Station],
    shape: FleetShape,
    results: dict,
    start: int,
    stop: int,
    seed: int,
    samples: int,
    problems: List[str],
) -> Dict[str, float]:
    """Check every hole in rows [start, stop) of every station.

    Each hole must carry one finite TKCM imputation and nothing else may be
    reported.  A seeded sample of target imputations goes through the
    oracle.  Returns the TKCM and window-mean RMSE over the holes and the
    number of imputations; problems are appended to ``problems``.
    """
    errors: List[float] = []
    baseline: List[float] = []
    sampled = []
    for station in fleet:
        cells = results.get(station.name, {})
        holes = np.isnan(station.rows[start:stop])
        reported = {o for o in cells if start <= o < stop}
        expected = {start + int(o) for o in np.flatnonzero(holes.any(axis=1))}
        if reported != expected:
            problems.append(
                f"{station.name}: imputed ticks {sorted(reported ^ expected)[:5]} "
                f"do not match the holes"
            )
            continue
        for column in range(len(station.series_names)):
            ordinals = start + np.flatnonzero(holes[:, column])
            name = station.series_names[column]
            for ordinal in ordinals:
                value, method, detail = cells[int(ordinal)].get(name, (np.nan, None, None))
                if method != "tkcm" or not np.isfinite(value):
                    problems.append(f"{station.name}@{ordinal}/{name}: {method} {value!r}")
                    continue
                errors.append(value - station.truth[ordinal, column])
                if column == 0 and detail is not None:
                    sampled.append((station, int(ordinal), value, detail))
            baseline.extend(window_mean_errors(station, shape.window, ordinals, column))
    if not errors:
        problems.append("no imputations to check")
        return {"rmse": float("nan"), "baseline_rmse": float("nan"), "imputations": 0}
    tkcm_rmse, trivial_rmse = rmse(errors), rmse(baseline)
    if not tkcm_rmse < trivial_rmse:
        problems.append(
            f"TKCM RMSE {tkcm_rmse:.4f} is not below the window-mean RMSE {trivial_rmse:.4f}"
        )
    problems.extend(oracle_sample(sampled, results, shape, seed, samples))
    return {
        "rmse": tkcm_rmse,
        "baseline_rmse": trivial_rmse,
        "imputations": len(errors),
    }


def oracle_sample(sampled, results, shape: FleetShape, seed: int, samples: int) -> List[str]:
    """Run the oracle on a seeded sample of target imputations."""
    if not sampled:
        return ["no imputation details to check with the oracle"]
    rng = np.random.default_rng([int(seed), 15485863])
    picks = rng.choice(len(sampled), size=min(samples, len(sampled)), replace=False)
    problems = []
    filled_cache: Dict[str, np.ndarray] = {}
    for pick in sorted(int(p) for p in picks):
        station, ordinal, value, detail = sampled[pick]
        filled = filled_cache.get(station.name)
        if filled is None:
            column = {n: j for j, n in enumerate(station.series_names)}
            imputed = {
                (o, column[series]): cell[0]
                for o, cells in results[station.name].items()
                for series, cell in cells.items()
            }
            filled = filled_matrix(station.history, station.series_names, station.rows, imputed)
            filled_cache[station.name] = filled
        target = station.series_names[0]
        ranking = station.rankings[target]
        available = {
            name: not np.isnan(station.rows[ordinal, station.series_names.index(name)])
            for name in ranking
        }
        found = check_imputation(
            Imputation(value, *detail),
            filled,
            station.series_names,
            ranking,
            available,
            position=shape.window + ordinal,
            window=shape.window,
            pattern=shape.pattern,
            anchors=shape.anchors,
            references=shape.references,
        )
        problems.extend(f"oracle {station.name}@{ordinal}: {p}" for p in found)
    return problems


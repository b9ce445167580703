"""Seeded inputs for every workload, generated apart from the program.

A fleet is a list of :class:`Station` objects.  Each station has ``S``
phase-shifted sinusoids (two periods each, per-series amplitude, phase and
noise), split into ``L`` priming rows and ``N`` streamed rows.  Amplitudes,
noise levels and the period depend on the station index only; the seed
draws the phases, the noise and the holes.  The first
series is the imputation target; the rest are its candidate references,
ranked best first by the generator's own knowledge of their noise level
(the "expert ranking" of the paper's Sec. 3).

The same ``(workload, seed, records)`` always yields the same arrays.
``missing=False`` regenerates the fleet without its holes: that is the
hidden truth the imputations are scored against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class FleetShape:
    """Size and TKCM configuration of one workload's fleet."""

    stations: int
    series: int
    window: int  # L, also the priming length
    pattern: int  # l
    anchors: int  # k
    references: int  # d
    period: int  # main period of the sinusoids, in ticks
    target_dropout: float  # per-tick loss probability of the target
    candidate_dropout: float = 0.0  # per-tick loss of the top candidate
    rank_all: bool = False  # give every lossy series an expert ranking


@dataclass
class Station:
    """One station: priming history, streamed rows and its session params."""

    name: str
    series_names: List[str]
    history: Dict[str, np.ndarray]
    rows: np.ndarray  # (N, S) float64, NaN marks a missing value
    truth: np.ndarray  # (N, S) float64 without holes
    rankings: Dict[str, List[str]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def make_fleet(
    shape: FleetShape, seed: int, records: int, missing: bool = True
) -> List[Station]:
    """Materialise ``shape.stations`` stations of ``records`` streamed rows."""
    fleet = []
    for index in range(shape.stations):
        # The make-up of a station (amplitudes, noise levels, period) is the
        # same for every seed, so work and attainable accuracy do not drift
        # between seeds; the seed draws phases, noise and holes.
        layout = np.random.default_rng([7919, index])
        amplitude = layout.uniform(0.6, 1.4, shape.series)
        second = layout.uniform(0.1, 0.4, shape.series)
        noise = layout.uniform(0.02, 0.12, shape.series)
        period = shape.period * layout.uniform(0.95, 1.05)
        rng = np.random.default_rng([int(seed), 7919, index])
        total = shape.window + records
        ticks = np.arange(total, dtype=np.float64)
        phase = rng.uniform(0.0, 2.0 * np.pi, shape.series)
        second_phase = rng.uniform(0.0, 2.0 * np.pi, shape.series)
        matrix = (
            amplitude * np.sin(2.0 * np.pi * ticks[:, None] / period + phase)
            + second
            * np.sin(2.0 * np.pi * ticks[:, None] / (period / 3.0) + second_phase)
            + noise * rng.standard_normal((total, shape.series))
        )
        # Draw the holes unconditionally so missing=False reuses the same
        # random stream and yields exactly the same values.
        target_holes = rng.random(records) < shape.target_dropout
        candidate_holes = rng.random(records) < shape.candidate_dropout
        name = f"st{index:04d}"
        names = [f"{name}/s{j}" for j in range(shape.series)]
        # Expert ranking: candidates by their noise level, quietest first.
        candidates = sorted(range(1, shape.series), key=lambda j: noise[j])
        rankings = {names[0]: [names[j] for j in candidates]}
        if shape.rank_all:
            top = candidates[0]
            others = [j for j in range(shape.series) if j != top]
            rankings[names[top]] = [names[j] for j in sorted(others, key=lambda j: noise[j])]
        truth = matrix[shape.window:].copy()
        rows = truth.copy()
        if missing:
            rows[target_holes, 0] = np.nan
            rows[candidate_holes, candidates[0]] = np.nan
        history = {n: matrix[: shape.window, j].copy() for j, n in enumerate(names)}
        params = dict(
            window_length=shape.window,
            pattern_length=shape.pattern,
            num_anchors=shape.anchors,
            num_references=shape.references,
            reference_rankings=rankings,
        )
        fleet.append(Station(name, names, history, rows, truth, rankings, params))
    return fleet


def interleave(fleet: Sequence[Station], start: int, stop: int) -> List[tuple]:
    """Round-robin ``(station index, ordinal)`` order over rows [start, stop)."""
    return [
        (index, ordinal)
        for ordinal in range(start, stop)
        for index in range(len(fleet))
    ]


def poisson_due_times(count: int, rate: float, seed: int, stream: int = 0) -> np.ndarray:
    """Seeded open-loop send times (seconds from phase start).

    ``stream`` numbers independent schedules of one seed (one per window).
    """
    rng = np.random.default_rng([int(seed), 104729, int(stream)])
    return np.cumsum(rng.exponential(1.0 / rate, count))

"""Tests of the benchmark's own checks: the TKCM oracle and the quality gate.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from common import use_program  # noqa: E402

use_program()

import checks  # noqa: E402
from inputs import FleetShape, make_fleet  # noqa: E402
from oracle import Imputation, best_total_dp, check_imputation, distances  # noqa: E402

SHAPE = FleetShape(
    stations=2, series=4, window=60, pattern=6, anchors=3, references=2,
    period=20, target_dropout=0.4, candidate_dropout=0.2, rank_all=True,
)
RECORDS = 80


@pytest.fixture(scope="module")
def served():
    """A small fleet pushed record by record through the program."""
    from repro.service import ImputationService

    fleet = make_fleet(SHAPE, seed=5, records=RECORDS)
    service = ImputationService()
    results = {}
    for station in fleet:
        service.create_session(station.name, series_names=station.series_names, **station.params)
        service.prime(station.name, station.history)
        results[station.name] = [
            tick for row in station.rows for tick in service.push(station.name, row)
        ]
    return fleet, checks.compact(results, SHAPE.window)


def _target_cases(fleet, results):
    for station in fleet:
        target = station.series_names[0]
        for ordinal, cells in sorted(results[station.name].items()):
            if target in cells:
                yield station, ordinal, cells[target]


def _check(station, ordinal, imputation, results):
    column = {n: j for j, n in enumerate(station.series_names)}
    imputed = {
        (o, column[s]): cell[0]
        for o, cells in results[station.name].items()
        for s, cell in cells.items()
    }
    filled = checks.filled_matrix(station.history, station.series_names, station.rows, imputed)
    ranking = station.rankings[station.series_names[0]]
    available = {
        n: not np.isnan(station.rows[ordinal, column[n]]) for n in ranking
    }
    return check_imputation(
        imputation, filled, station.series_names, ranking, available,
        position=SHAPE.window + ordinal, window=SHAPE.window, pattern=SHAPE.pattern,
        anchors=SHAPE.anchors, references=SHAPE.references,
    )


def test_dp_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, k, length = int(rng.integers(8, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        values = list(rng.random(n))
        feasible = [
            sum(values[j] for j in combo)
            for combo in itertools.combinations(range(n), k)
            if all(b - a >= length for a, b in zip(combo, combo[1:]))
        ]
        if feasible:
            assert best_total_dp(values, k, length) == pytest.approx(min(feasible))


def test_distances_are_plain_l2():
    windows = np.arange(20.0).reshape(2, 10) ** 1.5
    got = distances(windows, 3)
    for j, value in enumerate(got):
        delta = windows[:, j: j + 3] - windows[:, 7:]
        assert value == pytest.approx(np.sqrt((delta ** 2).sum()))


def test_oracle_accepts_the_programs_imputations(served):
    fleet, results = served
    cases = list(_target_cases(fleet, results))
    assert len(cases) > 20
    skipped = [c for c in cases if c[2][1] != "tkcm"]
    assert not skipped
    for station, ordinal, (value, _, detail) in cases:
        assert _check(station, ordinal, Imputation(value, *detail), results) == []


def test_the_lossy_candidate_is_skipped_sometimes(served):
    fleet, results = served
    skipped = [
        detail[0] for station, _, (_, _, detail) in _target_cases(fleet, results)
        if detail[0][0] != station.rankings[station.series_names[0]][0]
    ]
    assert skipped, "no imputation exercised the reference walk"


@pytest.mark.parametrize("perturb", [
    "value", "anchor", "overlap", "reference", "dissimilarity", "worse_selection",
])
def test_oracle_rejects_a_perturbed_imputation(served, perturb):
    fleet, results = served
    station, ordinal, (value, _, detail) = next(_target_cases(fleet, results))
    original = Imputation(value, *detail)
    if perturb == "value":
        bad = replace(original, value=value * (1 + 1e-6) + 1e-6)
    elif perturb == "anchor":
        anchors = list(original.anchors)
        anchors[0] = anchors[0] - 1 if anchors[0] > SHAPE.pattern - 1 else anchors[0] + 1
        bad = replace(original, anchors=tuple(anchors))
    elif perturb == "overlap":
        anchors = list(original.anchors)
        anchors[1] = anchors[0] + 1
        bad = replace(original, anchors=tuple(anchors))
    elif perturb == "reference":
        bad = replace(original, references=tuple(reversed(original.references)))
    elif perturb == "dissimilarity":
        bad = replace(original, dissimilarities=(original.dissimilarities[0] * 1.01,)
                      + original.dissimilarities[1:])
    else:
        bad = _worse_selection(station, ordinal, original, results)
    assert _check(station, ordinal, bad, results), f"{perturb} was not detected"


def _worse_selection(station, ordinal, original, results):
    """A feasible, self-consistent selection whose total is not the least."""
    column = {n: j for j, n in enumerate(station.series_names)}
    imputed = {
        (o, column[s]): cell[0]
        for o, cells in results[station.name].items()
        for s, cell in cells.items()
    }
    filled = checks.filled_matrix(station.history, station.series_names, station.rows, imputed)
    position = SHAPE.window + ordinal
    window = filled[position - SHAPE.window + 1: position + 1]
    refs = np.stack([window[:, column[n]] for n in original.references])
    dissimilarity = distances(refs, SHAPE.pattern)
    length = SHAPE.pattern
    for combo in itertools.combinations(range(len(dissimilarity)), SHAPE.anchors):
        if all(b - a >= length for a, b in zip(combo, combo[1:])):
            total = sum(dissimilarity[j] for j in combo)
            if total > sum(original.dissimilarities) * 1.5:
                anchors = tuple(j + length - 1 for j in combo)
                values = tuple(float(window[a, 0]) for a in anchors)
                return Imputation(
                    sum(values) / len(values), original.references, anchors, values,
                    tuple(dissimilarity[j] for j in combo),
                )
    raise AssertionError("no worse selection found")


def test_quality_gate_fails_a_trivial_imputer(served):
    fleet, results = served
    problems = []
    stats = checks.check_fleet(fleet, SHAPE, results, 0, RECORDS, 1, 5, problems)
    assert problems == [] and stats["rmse"] < stats["baseline_rmse"]
    # Replace every imputation with the window mean plus a bias.
    broken = {}
    for station in fleet:
        cells = {}
        for ordinal, per_series in results[station.name].items():
            cells[ordinal] = {}
            for series, (value, method, detail) in per_series.items():
                j = station.series_names.index(series)
                guess = checks.window_mean_errors(station, SHAPE.window, [ordinal], j)[0]
                cells[ordinal][series] = (
                    station.truth[ordinal, j] + guess + 0.1, method, None
                )
        broken[station.name] = cells
    problems = []
    checks.check_fleet(fleet, SHAPE, broken, 0, RECORDS, 1, 5, problems)
    assert any("not below the window-mean" in p for p in problems)


"""A naive, independent re-implementation of TKCM's Defs. 1-4.

Nothing here imports the program.  For one imputation at stream ordinal
``o`` of a station, the oracle rebuilds every series' window from the
generated inputs, filling earlier holes with the values the program
returned for them, and then recomputes from scratch:

* Def. 1-2: the query pattern (the last ``l`` values of the ``d``
  reference series) and the plain L2 distance of every candidate pattern
  to it, one candidate at a time;
* Def. 3: the smallest total dissimilarity of ``k`` pairwise
  non-overlapping candidates, by an ``O(k n)`` dynamic program over the
  candidates;
* Def. 4: the mean of the target's window values at the anchors.

:func:`check_imputation` compares one program imputation with these and
returns a list of problems (empty when it agrees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Relative tolerance on distances and totals.  The program assembles
#: distances from rolling norms and a matrix product, whose rounding
#: differs from the direct sum by far less than this.
DISTANCE_RTOL = 1e-7
#: Relative tolerance on the imputed value (a mean of window values).
VALUE_RTOL = 1e-9


@dataclass(frozen=True)
class Imputation:
    """What the program reported for one imputed cell."""

    value: float
    references: Tuple[str, ...]
    anchors: Tuple[int, ...]  # window indices, L - 1 is the current tick
    anchor_values: Tuple[float, ...]
    dissimilarities: Tuple[float, ...]


def filled_matrix(
    history: Dict[str, np.ndarray],
    names: Sequence[str],
    rows: np.ndarray,
    imputed: Dict[Tuple[int, int], float],
) -> np.ndarray:
    """History plus streamed rows, holes replaced by the program's values."""
    stream = np.array(rows, dtype=np.float64, copy=True)
    for (ordinal, column), value in imputed.items():
        stream[ordinal, column] = value
    past = np.stack([np.asarray(history[n], dtype=np.float64) for n in names], axis=1)
    return np.concatenate([past, stream])


def distances(references: np.ndarray, pattern: int) -> List[float]:
    """L2 distance of every candidate pattern to the query (Defs. 1-2).

    ``references`` is the ``(d, L)`` window matrix.  Candidate ``j`` covers
    window columns ``j .. j + l - 1``; the query covers the last ``l``.
    """
    width = references.shape[1]
    query = references[:, width - pattern:]
    out = []
    for j in range(width - 2 * pattern + 1):
        delta = references[:, j: j + pattern] - query
        out.append(math.sqrt(float(np.sum(delta * delta))))
    return out


def best_total_dp(dissimilarity: Sequence[float], k: int, pattern: int) -> float:
    """Least sum of ``k`` candidates pairwise at least ``l`` apart (Def. 3).

    ``table[i][j]`` is the least sum of ``i`` picks among candidates
    ``0 .. j``: skip ``j`` (``table[i][j - 1]``) or take it on top of
    ``i - 1`` picks that end at least ``l`` earlier.
    """
    n = len(dissimilarity)
    inf = float("inf")
    previous = [0.0] * n  # zero picks cost nothing anywhere
    for i in range(1, k + 1):
        current = [inf] * n
        for j in range(n):
            skip = current[j - 1] if j else inf
            if i == 1:
                before = 0.0
            else:
                before = previous[j - pattern] if j - pattern >= 0 else inf
            take = dissimilarity[j] + before
            current[j] = take if take < skip else skip
        previous = current
    return previous[n - 1]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_imputation(
    result: Imputation,
    filled: np.ndarray,
    names: Sequence[str],
    ranking: Sequence[str],
    available: Dict[str, bool],
    position: int,
    window: int,
    pattern: int,
    anchors: int,
    references: int,
) -> List[str]:
    """Problems with one program imputation of ``names[0]`` (empty when right).

    ``filled`` is :func:`filled_matrix`'s output, ``position`` the row of the
    imputed tick in it, and ``available`` tells which candidates had a
    value at that tick.
    """
    problems = []
    expected_refs = [name for name in ranking if available.get(name, False)][:references]
    if list(result.references) != expected_refs:
        problems.append(
            f"references {list(result.references)} are not the first {references} "
            f"available ranked candidates {expected_refs}"
        )
        return problems
    column = {name: j for j, name in enumerate(names)}
    start = position - window + 1
    windows = filled[start: position + 1]
    ref_windows = np.stack([windows[:, column[name]] for name in expected_refs])
    dissimilarity = distances(ref_windows, pattern)
    optimum = best_total_dp(dissimilarity, anchors, pattern)

    picked = list(result.anchors)
    if len(picked) != anchors:
        problems.append(f"{len(picked)} anchors, expected {anchors}")
    if picked != sorted(picked):
        problems.append(f"anchors {picked} are not in time order")
    if any(b - a < pattern for a, b in zip(picked, picked[1:])):
        problems.append(f"anchors {picked} overlap (pattern length {pattern})")
    if any(a < pattern - 1 or a > window - pattern - 1 for a in picked):
        problems.append(f"anchors {picked} leave the candidate range")
    if problems:
        return problems

    candidates = [a - (pattern - 1) for a in picked]
    ours = [dissimilarity[j] for j in candidates]
    for mine, theirs in zip(ours, result.dissimilarities):
        if not _close(mine, theirs, DISTANCE_RTOL):
            problems.append(f"dissimilarity {theirs!r} differs from {mine!r}")
            break
    if not _close(sum(ours), optimum, DISTANCE_RTOL):
        problems.append(
            f"selection total {sum(ours)!r} is not the least total {optimum!r}"
        )
    target = windows[:, 0]
    values = [float(target[a]) for a in picked]
    if not all(_close(v, w, VALUE_RTOL) for v, w in zip(values, result.anchor_values)):
        problems.append(f"anchor values {result.anchor_values} differ from {values}")
    mean = sum(values) / len(values)
    if not _close(mean, result.value, VALUE_RTOL):
        problems.append(f"imputed value {result.value!r} is not the anchor mean {mean!r}")
    return problems

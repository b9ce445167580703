"""In-memory timing spans around the program's public entry points.

The traced run wraps each entry point below with a recorder that keeps
``(name, parent, start, end, count)`` in memory; nothing is written until
the run ends.  The wrappers live here, in the benchmark's own files, and
are installed by assignment on the class or module, so the program's
source is never edited.  :func:`install` returns the handle that removes
them again, so one process can time an untraced stretch and a traced one.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


class Recorder:
    """Spans of one process: name, parent span, start, end and a row count."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Optional[int], float, float, int]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, func: Callable, rows: Callable = None, is_async=False):
        """A wrapper of ``func`` that records one span per call."""
        recorder = self

        if is_async:
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                start = _clock()
                try:
                    return await func(*args, **kwargs)
                finally:
                    recorder.spans.append(
                        (name, None, start, _clock(), rows(args) if rows else 1)
                    )
            return traced

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append((name, parent, 0.0, 0.0, 0))
            index = recorder._stack[-1]
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = _clock()
                recorder._stack.pop()
                recorder.spans[index] = (
                    name, parent, start, end, rows(args) if rows else 1
                )
        return traced

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, rows, total and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, _, start, end, rows) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "rows": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            entry["calls"] += 1
            entry["rows"] += rows
            entry["seconds"] += end - start
            entry["self_seconds"] += end - start - child_time[i]
        return out

    def clear(self) -> None:
        self.spans.clear()


def _targets():
    """``(owner, attribute, span name, row counter, async)`` for every entry point."""
    from repro.core import tkcm
    from repro.durability.store import CheckpointStore
    from repro.durability.wal import WriteAheadLog
    from repro.gateway.client import AsyncGatewayClient
    from repro.service.service import ImputationService

    return [
        (AsyncGatewayClient, "push", "client.push", None, True),
        (AsyncGatewayClient, "flush", "client.flush", None, True),
        (ImputationService, "push", "service.push", None, False),
        (ImputationService, "push_block", "service.push_block",
         lambda args: len(args[2]), False),
        (tkcm.TKCMImputer, "observe_batch", "core.observe_batch",
         lambda args: int(args[1].shape[0]), False),
        (tkcm.TKCMImputer, "observe", "core.observe", None, False),
        (tkcm, "select_anchors", "core.select_anchors", None, False),
        (WriteAheadLog, "append_block", "durability.wal_append", None, False),
        (CheckpointStore, "write_checkpoint", "durability.checkpoint_write", None, False),
        (CheckpointStore, "read_checkpoint", "durability.checkpoint_read", None, False),
        (ImputationService, "recover", "service.recover", None, False),
    ]


class Installed:
    """Handle of installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, originals) -> None:
        self._originals = originals

    def remove(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals = []


def install(recorder: Recorder) -> Installed:
    """Wrap every public entry point with ``recorder``'s spans."""
    originals = []
    for owner, attribute, name, rows, is_async in _targets():
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(name, original, rows, is_async))
    return Installed(originals)


def overhead(untraced: Sequence[float], traced: Sequence[float]) -> Dict[str, float]:
    """Tracing overhead in percent from alternating stretches of one run.

    Stretch ``i`` of ``traced`` ran right after stretch ``i`` of
    ``untraced`` and did the same amount of work, so their ratio is free of
    the drift between early and late parts of a run.  The overhead is the
    median ratio minus one; it counts as resolved only when the ratios'
    first and third quartile lie on the same side of zero, that is when
    the spans cost more than neighbouring stretches differ anyway.
    """
    ratios = [100.0 * (t / u - 1.0) for u, t in zip(untraced, traced)]
    if len(ratios) >= 2:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
    else:
        q1 = q3 = ratios[0]
    return {
        "pct": statistics.median(ratios),
        "q1_pct": q1,
        "q3_pct": q3,
        "resolved": float(q1 > 0 or q3 < 0),
    }


def overhead_counts(cost: Dict[str, float]) -> Dict[str, float]:
    """The quartiles and verdict of :func:`overhead` as printed counts."""
    if not cost:
        return {}
    return {
        "trace_overhead_q1_pct": cost["q1_pct"],
        "trace_overhead_q3_pct": cost["q3_pct"],
        "trace_overhead_resolved": cost["resolved"],
    }

"""Timing, percentiles, memory and the in-memory span recorder."""

from __future__ import annotations

import json
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

clock = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` (0..1) quantile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_call(
    fn: Callable[[], Any],
    budget_s: float,
    batch: int = 1,
    min_samples: int = 3,
    max_samples: int = 200,
    prepare: Optional[Callable[[], Any]] = None,
) -> float:
    """Median host seconds of one ``fn()`` call.

    Takes samples of ``batch`` back-to-back calls until ``budget_s`` is
    spent (at least ``min_samples``).  ``prepare`` runs untimed before
    each sample (e.g. clearing a cache so every call is cold).
    """
    samples: List[float] = []
    deadline = clock() + budget_s
    while len(samples) < min_samples or (
        clock() < deadline and len(samples) < max_samples
    ):
        if prepare is not None:
            prepare()
        start = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - start) / batch)
    return statistics.median(samples)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


class Tracer:
    """Spans recorded in memory around the harness's calls into each layer.

    A span is ``(id, name, start, end, parent, trace)``; spans of one
    operation share ``trace`` (for a campaign job, its fingerprint).
    Nothing is written until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace: str,
        parent: Optional[int] = None,
    ) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "trace": trace,
                }
            )
        return span_id

    @contextmanager
    def span(
        self, name: str, trace: str, parent: Optional[int] = None
    ) -> Iterator[int]:
        """Record the enclosed block; yields the span id for children."""
        span_id = self.add(name, clock(), 0.0, trace, parent)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = clock()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus child cover.

        Children of one parent never overlap here (each is a sequential
        step), so child cover is the plain sum of child durations.
        """
        child_cover: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_cover[span["parent"]] = child_cover.get(
                    span["parent"], 0.0
                ) + (span["end"] - span["start"])
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_cover.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(0.0, own)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"spans": self.spans, "self_time_s": self.self_times()},
                sort_keys=True,
            )
        )

"""Trace-driven traffic: replay a finite list of timed packet injections.

Used by the application workload models (PARSEC / Rodinia substitutes):
a workload is a fixed amount of communication work; "application
runtime" is the cycle at which the network drains the whole trace, and
"application throughput" is work over runtime.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence, Tuple, Union

from repro.traffic.base import PacketSpec, TrafficGenerator
from repro.utils.serialize import write_json_atomic

TraceEvent = Tuple[int, int, int, int, int]  # (cycle, src, dst, vnet, size)

#: On-disk trace format version (bump on incompatible layout changes).
TRACE_FORMAT_VERSION = 1


class TraceTraffic(TrafficGenerator):
    """Replays ``(cycle, src, dst, vnet, size)`` events in cycle order."""

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events: List[TraceEvent] = sorted(events, key=lambda e: e[0])
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.events)

    def total_flits(self) -> int:
        return sum(e[4] for e in self.events)

    def last_cycle(self) -> int:
        return self.events[-1][0] if self.events else 0

    def packets_at(self, now: int) -> Iterable[PacketSpec]:
        while self._cursor < len(self.events) and self.events[self._cursor][0] <= now:
            _, src, dst, vnet, size = self.events[self._cursor]
            self._cursor += 1
            yield (src, dst, vnet, size)

    def exhausted(self, now: int) -> bool:
        return self._cursor >= len(self.events)

    def reset(self) -> "TraceTraffic":
        """Rewind (traces are replayed across schemes for fair comparison)."""
        self._cursor = 0
        return self

    def save(self, path: Union[str, os.PathLike]) -> None:
        return save_trace(self, path)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "TraceTraffic":
        return load_trace(path)


def save_trace(trace: TraceTraffic, path: Union[str, os.PathLike]) -> None:
    """Persist a trace as JSON: ``{"version", "events": [[c,s,d,v,size]..]}``.

    Events are written in the trace's (cycle-sorted) replay order, so a
    loaded trace injects the *identical* sequence — same cycles, same
    destinations, same sizes — which is what makes recorded workloads a
    sound cache/service payload.  Atomic write (temp + rename): a killed
    recorder never leaves a torn trace.
    """
    payload = {
        "version": TRACE_FORMAT_VERSION,
        "events": [list(event) for event in trace.events],
    }
    write_json_atomic(path, payload, separators=(",", ":"))


def load_trace(path: Union[str, os.PathLike]) -> TraceTraffic:
    """Inverse of :func:`save_trace`."""
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    events = []
    for event in payload["events"]:
        if len(event) != 5:
            raise ValueError(f"malformed trace event: {event!r}")
        events.append(tuple(int(v) for v in event))
    return TraceTraffic(events)

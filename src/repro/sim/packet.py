"""Packets.

The simulator works at packet granularity with virtual cut-through flow
control (exactly the abstraction the paper's own walk-through uses); a
packet's flit count still matters for link serialization and energy.
"""

from __future__ import annotations

from typing import Optional

from repro.core.turns import Port
from repro.routing.paths import Route


class Packet:
    """One packet in flight.

    ``route`` is the source route embedded at injection (Section II-D),
    a ``bytes`` string of output ports; ``hop`` indexes the next one to
    take.  A packet diverted into
    the escape layer sets ``is_escape`` and thereafter ignores ``route``,
    following the per-router escape tables instead.  Under an adaptive
    scheme the stamped route is likewise advisory: the router re-chooses
    among all minimal next hops each cycle and caches its current
    preference in ``adapt_out``.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "vnet",
        "size",
        "route",
        "hop",
        "injected_at",
        "ejected_at",
        "is_escape",
        "created_at",
        "adapt_out",
    )

    def __init__(
        self,
        pid: int,
        src: int,
        dst: int,
        vnet: int,
        size: int,
        route: Route,
        created_at: int,
    ) -> None:
        self.pid = pid
        self.src = src
        self.dst = dst
        self.vnet = vnet
        self.size = size
        self.route = route
        self.hop = 0
        self.injected_at: Optional[int] = None
        self.ejected_at: Optional[int] = None
        self.is_escape = False
        self.created_at = created_at
        # Outport preference cached by the adaptive allocation scan; -1
        # when no choice has been made at the current router.  Only
        # meaningful under an adaptive scheme — deterministic schemes
        # never read it.
        self.adapt_out = -1

    def next_port(self) -> Port:
        """Next output port per the embedded source route."""
        return self.route[self.hop]

    @property
    def latency(self) -> Optional[int]:
        if self.injected_at is None or self.ejected_at is None:
            return None
        return self.ejected_at - self.injected_at

    @property
    def queueing_latency(self) -> Optional[int]:
        if self.injected_at is None:
            return None
        return self.injected_at - self.created_at

    def __repr__(self) -> str:
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, vnet={self.vnet},"
            f" size={self.size}, hop={self.hop}, escape={self.is_escape})"
        )

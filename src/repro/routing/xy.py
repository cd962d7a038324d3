"""Dimension-ordered XY routing (deadlock-free on a fault-free mesh).

Included as the conventional regular-mesh baseline the paper contrasts
against (Section II-A): route all the way in X (East/West) first, then in
Y (North/South).  XY is *not* applicable once the topology is irregular —
the tests demonstrate that it fails to deliver packets across faults,
which is the paper's motivation.
"""

from __future__ import annotations

from typing import List

from repro.core.turns import Port
from repro.routing.paths import Route
from repro.topology.mesh import Topology


def xy_route(topo: Topology, src: int, dst: int) -> Route:
    """The XY route from src to dst on the underlying full mesh."""
    sx, sy = topo.coords(src)
    dx, dy = topo.coords(dst)
    ports: List[Port] = []
    step_x = Port.EAST if dx > sx else Port.WEST
    ports.extend([step_x] * abs(dx - sx))
    step_y = Port.NORTH if dy > sy else Port.SOUTH
    ports.extend([step_y] * abs(dy - sy))
    ports.append(Port.LOCAL)
    return bytes(ports)


def xy_route_is_usable(topo: Topology, src: int, dst: int) -> bool:
    """True iff the XY route only uses active links/routers."""
    node = src
    for port in xy_route(topo, src, dst)[:-1]:
        nxt = topo.neighbor(node, port)
        if nxt is None or not topo.link_is_active(node, nxt):
            return False
        node = nxt
    return topo.node_is_active(dst)

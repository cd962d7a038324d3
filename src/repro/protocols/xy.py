"""XY dimension-ordered routing as a scheme (regular-mesh reference).

The conventional deadlock-avoidance baseline for *healthy* meshes
(Section II-A): X first, then Y; the Y->X turns are forbidden, which
breaks all channel-dependency cycles.  Included as the reference the
paper contrasts against — it is provably deadlock-free on a full mesh
and provably *unusable* on irregular topologies (destinations whose XY
route crosses a fault become unreachable even when healthy paths exist;
the routing tables simply omit them and the NI drops such packets).
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.base import DeadlockScheme
from repro.routing.table import RoutingTable
from repro.routing.xy import xy_route, xy_route_is_usable
from repro.sim.config import SimConfig
from repro.topology.mesh import Topology


class XyRouting(DeadlockScheme):
    """Dimension-ordered XY source routing."""

    name = "xy"

    def build_tables(
        self, topo: Topology, config: SimConfig
    ) -> Dict[int, RoutingTable]:
        if topo.kind != "mesh":
            raise ValueError(f"xy routing needs a 2D mesh, not {topo.kind}")
        tables = {node: RoutingTable(node) for node in topo.active_nodes()}
        for src in topo.active_nodes():
            for dst in topo.active_nodes():
                if src == dst:
                    continue
                if xy_route_is_usable(topo, src, dst):
                    tables[src].add_route(dst, xy_route(topo, src, dst))
        return tables

    def unreachable_pairs(self, topo: Topology) -> int:
        """How many (src, dst) pairs XY cannot serve on this topology."""
        count = 0
        for src in topo.active_nodes():
            for dst in topo.active_nodes():
                if src != dst and not xy_route_is_usable(topo, src, dst):
                    count += 1
        return count

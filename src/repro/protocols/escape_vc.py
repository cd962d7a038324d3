"""Deadlock recovery with escape VCs (baseline 2).

Models the Router Parking / NoRD style (Section V-B): packets normally
follow minimal, deadlock-prone routes in the regular VCs; every input
port additionally carries one reserved *escape* VC per vnet.  A packet
whose head-of-VC wait exceeds a detection threshold is diverted into the
escape layer, which routes hop-by-hop over a spanning tree (per-router
escape tables) — deadlock-free but non-minimal.  Once in the escape
layer a packet stays there until ejection.

Costs modelled, as in Table I: one extra VC per vnet per input port at
*every* router (vs. Static Bubble's one buffer at a few routers), and
throughput loss from the permanently reserved VC.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.protocols.base import DeadlockScheme
from repro.routing.table import (
    RoutingTable,
    build_minimal_tables,
    escape_next_hop_tables,
)
from repro.sim.config import SimConfig
from repro.sim.router import NEVER
from repro.topology.base import BaseTopology as Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network


class EscapeVcRecovery(DeadlockScheme):
    """Minimal routes + per-router spanning-tree escape VCs."""

    name = "escape-vc"

    def __init__(self, reserve_existing: bool = True) -> None:
        #: ``reserve_existing``: the paper's model — one of the router's
        #: VCs per vnet per port is permanently reserved as the escape VC
        #: (this is where the throughput loss vs. Static Bubble comes
        #: from).  Set False to *add* escape VCs on top instead.
        self.reserve_existing = reserve_existing
        self.escape_tables: Dict[int, Dict[int, int]] = {}
        self._t_detect = 34
        #: Port layout of the last topology tables were built for
        #: (2D-mesh defaults before the first ``build_tables``).
        self._local = 4
        self._num_ports = 5

    def build_tables(
        self, topo: Topology, config: SimConfig
    ) -> Dict[int, RoutingTable]:
        self._t_detect = config.escape_t_detect
        self._local = topo.local_port
        self._num_ports = topo.num_ports
        # Escape layer: pure tree routing per component (shared with every
        # scheme instance on this topology; never written through here).
        self.escape_tables = escape_next_hop_tables(topo)
        return build_minimal_tables(topo, config.max_minimal_routes)

    def setup(self, network: "Network") -> None:
        if self.reserve_existing and network.config.vcs_per_vnet < 2:
            raise ValueError(
                "escape-VC reservation needs >= 2 VCs per vnet per port"
            )
        for router in network.active_routers():
            router.add_escape_vcs(reserve_existing=self.reserve_existing)
            router._escape_lookup = self._lookup

    def _lookup(self, node: int, dst: int) -> int:
        table = self.escape_tables.get(node)
        if table is None or dst not in table:
            # Destination unreachable from the escape layer (different
            # component after a topology change): eject-and-drop is the
            # only sane hardware behaviour; route tables prevent this in
            # practice because minimal routes exist iff the tree covers.
            return self._local
        return table[dst]

    def on_topology_changed(self, network, added, removed, now):
        # ``build_tables`` (already re-run by the network) rebuilt the
        # escape tables for the new topology; restored routers just need
        # their escape layer provisioned like ``setup`` did.
        for node in added:
            router = network.routers[node]
            router.add_escape_vcs(reserve_existing=self.reserve_existing)
            router._escape_lookup = self._lookup
        return {}

    def on_cycle(self, network: "Network", now: int) -> None:
        """Divert packets stalled beyond the detection threshold.

        The per-VC timer models Router Parking's deadlock-detection
        timeout.  Diversion is a mode flip on the packet: from the next
        allocation on it requests the escape output port and an escape VC.
        """
        threshold = self._t_detect
        # Diversions commute (a flag flip and a counter), so the occupied
        # set is walked in whatever order it iterates.
        routers = network.routers
        for node in network._active_nodes:
            router = routers[node]
            if not router._occupancy or now - router._ready_floor < threshold:
                continue  # nobody here can have waited long enough yet
            floor = NEVER
            for vc in router.residents():
                packet = vc.packet
                if packet.is_escape:
                    continue
                if now - vc.ready_at < threshold:
                    if vc.ready_at < floor:
                        floor = vc.ready_at
                    continue
                packet.is_escape = True
                network.stats.escape_diversions += 1
                # The mode flip changes which output/VC class this
                # buffered packet requests: a sleeping router must
                # reconsider it.
                router.wake()
            # Every resident was just read: the bound is exact again.
            router._ready_floor = floor

    def extra_vcs_per_router(self, node: int, config: SimConfig) -> int:
        # One escape VC per vnet per input port (incl. local), Table I.
        return self._num_ports * config.vnets

    def verify(self, topo: Topology, config: SimConfig):
        """Certify the escape layer, which carries the freedom claim.

        The normal VCs run deadlock-prone minimal routes by design;
        recovery works because the escape layer (per-router spanning-tree
        next hops) is acyclic and always admits a diverted packet.
        """
        from repro.verify.cdg import cdg_from_next_hops
        from repro.verify.certify import certify_acyclic

        self.build_tables(topo, config)  # refresh escape tables for topo
        return certify_acyclic(
            cdg_from_next_hops(topo, self.escape_tables),
            scheme=self.name,
            layer="escape",
        )

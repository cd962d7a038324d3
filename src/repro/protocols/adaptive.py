"""Adaptive congestion-aware minimal routing over a recovery substrate.

The paper frames Static Bubble as a *substrate*: any routing function is
deadlock-free as long as the placement's cycle cover holds, because
recovery — not the routing function — carries the freedom claim.  Every
other scheme in this repo routes deterministically, so that claim is only
ever exercised by faults.  This module adds the standard stress test
(FT-ADR / DBR style): minimal-adaptive routing, which deliberately
creates path diversity and congestion-driven route churn on top of a
safety net.

Selection model (Garnet-style adaptive minimal routing):

* The candidate set at a router is the set of first hops over *all*
  minimal routes installed in the NI routing tables — topology-agnostic,
  no coordinate math, so irregular (faulted) graphs work unchanged.
* Candidates are scored by the downstream credit signal
  (:meth:`repro.sim.router.Router.downstream_credits`): the count of
  immediately free non-escape VCs of the packet's vnet behind each
  outport.  Highest credit count wins; ties break on a per-input-port
  round-robin pointer that advances only on grants.
* When no candidate can be granted, the packet simply stalls — and the
  recovery substrate (static bubble, or the escape layer in the variant)
  resolves any resulting deadlock exactly as it does for faults.

Why the CDG certificate still holds: adaptive-minimal never takes a
u-turn (a minimal first hop never reverses), and the Static Bubble
cycle-cover certificate is computed over the *turn-closure* CDG — every
non-u-turn hop over active links — which over-approximates any
u-turn-free routing function, adaptive ones included.  The escape
variant's claim is likewise routing-independent: the escape layer stays
acyclic no matter what the normal VCs do.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.protocols.escape_vc import EscapeVcRecovery
from repro.protocols.static_bubble import StaticBubbleScheme
from repro.routing.table import RoutingTable
from repro.sim.config import SimConfig
from repro.topology.base import BaseTopology as Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network


class AdaptiveSelectionMixin:
    """Adds table-derived candidate sets + router lookup installation.

    Mix in before a recovery scheme; ``super()`` calls thread through to
    it, so table construction, augmentation, and reconciliation all keep
    the substrate's behaviour.
    """

    #: node -> dst -> ascending tuple of minimal first-hop outports.
    _next_hops: Dict[int, Dict[int, Tuple[int, ...]]]
    #: The sole candidate once the destination is reached (ejection);
    #: rebound to the topology's local port by ``build_tables``.
    _local_only: Tuple[int, ...] = (4,)

    def build_tables(
        self, topo: Topology, config: SimConfig
    ) -> Dict[int, RoutingTable]:
        tables = super().build_tables(topo, config)
        self._local_only = (topo.local_port,)
        next_hops: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        for node, table in tables.items():
            hops: Dict[int, Tuple[int, ...]] = {}
            for dst in table.destinations():
                hops[dst] = tuple(
                    sorted({route[0] for route in table.routes(dst)})
                )
            next_hops[node] = hops
        self._next_hops = next_hops
        return tables

    def candidate_outports(self, node: int, dst: int) -> Tuple[int, ...]:
        """Minimal outport candidates at ``node`` toward ``dst``.

        Installed on every router as ``_adaptive_lookup``.  Empty when
        the destination is unreachable (transient mid-reconfiguration
        state; the salvage pass drops such packets).
        """
        if dst == node:
            return self._local_only
        hops = self._next_hops.get(node)
        if hops is None:
            return ()
        return hops.get(dst, ())

    def setup(self, network: "Network") -> None:
        super().setup(network)
        for router in network.active_routers():
            router._adaptive_lookup = self.candidate_outports

    def on_topology_changed(self, network, added, removed, now):
        # ``build_tables`` (already re-run by the network) refreshed
        # ``_next_hops`` in place; restored routers additionally need the
        # lookup installed, like ``setup`` did.
        summary = super().on_topology_changed(network, added, removed, now)
        for node in added:
            network.routers[node]._adaptive_lookup = self.candidate_outports
        return summary or {}


class AdaptiveMinimalScheme(AdaptiveSelectionMixin, StaticBubbleScheme):
    """Adaptive minimal routing, static-bubble recovery (the tentpole).

    Inherits the Static Bubble placement, FSMs, and — crucially — its
    ``verify()``: the turn-closure cycle-cover certificate is valid for
    *any* u-turn-free routing function (see module docstring), so the
    same machine-checked claim covers the adaptive selection.
    """

    name = "adaptive"


class AdaptiveEscapeScheme(AdaptiveSelectionMixin, EscapeVcRecovery):
    """Variant: adaptive minimal routing over escape-VC recovery.

    Packets stalled past the detection threshold divert into the (acyclic
    spanning-tree) escape layer exactly as under ``escape-vc``; the
    inherited ``verify()`` certifies that layer, which is independent of
    how the normal VCs route.
    """

    name = "adaptive-escape"

"""Cycle-cover and acyclicity certificates over channel-dependency graphs.

Two machine-checked claims back the schemes' deadlock stories:

* **Acyclic** (spanning-tree up*/down*, escape layer, XY): the CDG of the
  installed routing function contains no cycle at all — the classic
  Dally & Seitz sufficient condition for deadlock freedom.
* **Cycle cover** (Static Bubble, Section III lemma): every CDG cycle
  passes through at least one covered (static-bubble) router.  Checking
  this does *not* require enumerating cycles: delete every channel whose
  buffer sits at a covered router; an uncovered cycle exists iff the
  restricted graph still has one.  One SCC pass decides it exactly, and
  a concrete cycle in the restricted graph is a minimal witness that the
  cover fails.

Both emit a serializable :class:`Certificate` — success carries the
graph statistics and a content fingerprint; failure carries a concrete
counterexample cycle (shortest in the restricted graph).  The graph
algorithms — Tarjan's SCC, the cyclic-SCC filter, the shortest cycle
and a bounded cycle enumerator for diagnostics — live in
:mod:`repro.topology.graph`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.topology.base import BaseTopology as Topology
from repro.topology.graph import cyclic_components, shortest_cycle
from repro.verify.cdg import Channel, ChannelDependencyGraph, describe_channel


@dataclass
class Certificate:
    """Serializable outcome of one certification run."""

    kind: str  # "cycle-cover" | "acyclic"
    scheme: str
    ok: bool
    width: int
    height: int
    faulty_links: int
    faulty_routers: int
    source: str  # CDG derivation ("tables" | "turns" | "next_hops")
    channels: int
    edges: int
    cyclic_sccs: int
    #: Human-readable topology description ("8x8 mesh", "C(11; 2,5)"...).
    #: ``width``/``height`` stay for 2D-mesh compatibility and are 0 for
    #: topologies without grid dimensions.
    topology: str = ""
    #: Routers the cover claim relies on (cycle-cover only).
    cover_routers: List[int] = field(default_factory=list)
    #: Failure witness: a dependency cycle as (node, port-name, layer)
    #: triples, shortest in the (restricted) graph.
    counterexample: Optional[List[Tuple[int, str, int]]] = None
    #: Human-readable rendering of the counterexample channels.
    counterexample_text: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "kind": self.kind,
            "scheme": self.scheme,
            "ok": self.ok,
            "topology": self.topology,
            "width": self.width,
            "height": self.height,
            "faulty_links": self.faulty_links,
            "faulty_routers": self.faulty_routers,
            "source": self.source,
            "channels": self.channels,
            "edges": self.edges,
            "cyclic_sccs": self.cyclic_sccs,
            "cover_routers": list(self.cover_routers),
            "counterexample": self.counterexample,
            "counterexample_text": self.counterexample_text,
            "detail": self.detail,
        }
        payload["fingerprint"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str)

    def describe(self) -> str:
        topology = self.topology or f"{self.width}x{self.height} mesh"
        lines = [
            f"certificate: {self.kind} [{self.scheme}] -> "
            + ("OK" if self.ok else "FAIL"),
            f"  topology: {topology}, "
            f"{self.faulty_links} faulty links, "
            f"{self.faulty_routers} faulty routers",
            f"  CDG ({self.source}): {self.channels} channels, "
            f"{self.edges} edges, {self.cyclic_sccs} cyclic SCC(s)",
        ]
        if self.kind == "cycle-cover":
            lines.append(
                f"  cover: {len(self.cover_routers)} static-bubble router(s)"
            )
        for key, value in sorted(self.detail.items()):
            lines.append(f"  {key}: {value}")
        if not self.ok and self.counterexample_text:
            lines.append("  uncovered dependency cycle:")
            lines.append(f"    {self.counterexample_text}")
        return "\n".join(lines)


def _witness(
    topo: Topology, cycle: Sequence[Channel]
) -> Tuple[List[Tuple[int, str, int]], str]:
    triples = [
        (node, topo.port_name(port), layer) for node, port, layer in cycle
    ]
    text = " -> ".join(describe_channel(topo, c) for c in cycle)
    text += f" -> {describe_channel(topo, cycle[0])}"
    return triples, text


def certify_acyclic(
    cdg: ChannelDependencyGraph, scheme: str, **detail: object
) -> Certificate:
    """Certificate that the CDG contains no dependency cycle at all."""
    adj = cdg.adjacency()
    cyclic = cyclic_components(adj)
    cycle = shortest_cycle(adj) if cyclic else None
    topo = cdg.topo
    cert = Certificate(
        kind="acyclic",
        scheme=scheme,
        ok=not cyclic,
        topology=topo.describe(),
        width=getattr(topo, "width", 0),
        height=getattr(topo, "height", 0),
        faulty_links=topo.num_faulty_links(),
        faulty_routers=topo.num_faulty_nodes(),
        source=cdg.source,
        channels=cdg.num_channels,
        edges=cdg.num_edges,
        cyclic_sccs=len(cyclic),
        detail=dict(detail),
    )
    if cycle is not None:
        cert.counterexample, cert.counterexample_text = _witness(topo, cycle)
    return cert


def certify_cycle_cover(
    cdg: ChannelDependencyGraph,
    cover_routers: Iterable[int],
    scheme: str,
    **detail: object,
) -> Certificate:
    """Certificate that every CDG cycle passes through a covered router.

    Exact via the restriction argument: channels buffered at covered
    routers are removed; the cover holds iff the remaining graph is
    acyclic.  On failure the counterexample is a shortest cycle of the
    restricted graph — a concrete dependency chain no static bubble can
    ever break.
    """
    cover = set(cover_routers)
    full_cyclic = cyclic_components(cdg.adjacency())
    restricted = cdg.restricted_adjacency(cover)
    uncovered_cyclic = cyclic_components(restricted)
    cycle = shortest_cycle(restricted) if uncovered_cyclic else None
    topo = cdg.topo
    cert = Certificate(
        kind="cycle-cover",
        scheme=scheme,
        ok=not uncovered_cyclic,
        topology=topo.describe(),
        width=getattr(topo, "width", 0),
        height=getattr(topo, "height", 0),
        faulty_links=topo.num_faulty_links(),
        faulty_routers=topo.num_faulty_nodes(),
        source=cdg.source,
        channels=cdg.num_channels,
        edges=cdg.num_edges,
        cyclic_sccs=len(full_cyclic),
        cover_routers=sorted(cover),
        detail=dict(detail),
    )
    cert.detail["uncovered_cyclic_sccs"] = len(uncovered_cyclic)
    if cycle is not None:
        cert.counterexample, cert.counterexample_text = _witness(topo, cycle)
    return cert

"""Topology-agnostic graph interface shared by every generator.

The original reproduction hardcoded a faulted 2D mesh everywhere: node
ids were ``y*width + x``, ports were the compass :class:`Port` enum, and
the opposite-port relation was the global ``OPPOSITE_PORT`` table.  The
paper, however, frames Static Bubble as a framework for *irregular*
topologies, so the core now operates on :class:`BaseTopology` — an
adjacency-list graph with per-node port lists — and the mesh is just one
generator among several (see :mod:`repro.topology.generators`).

Port model
----------

Every topology has a fixed *radix* ``r``: ports ``0..r-1`` are network
ports (each either unwired or leading to exactly one neighbor over a
bidirectional link) and port ``r`` is the local ejection/injection port
(``local_port``).  For the 2D mesh ``r == 4`` and the network ports
coincide numerically with the legacy compass enum, which keeps the
mesh's ``% 5`` port arithmetic — and therefore its cycle-exact
behaviour — unchanged.  A source route is a ``bytes`` string of ports,
so every port, the local one included, must fit in a byte: the radix is
at most :data:`MAX_RADIX` (255), and a generator that would exceed it
raises ``ValueError`` when it builds the topology.

The opposite-port relation is per *edge*, not global:
``arrival_port(u, p)`` answers "a packet leaving ``u`` on port ``p``
arrives at the neighbor on which input port?".  On the mesh that is the
classic ``OPPOSITE_PORT`` table; on a full mesh (where each node ranks
its neighbors) the answer genuinely depends on both endpoints.

Probe hop codec
---------------

Static Bubble probes record their path one hop at a time in a fixed
128-bit flit.  On the mesh a hop is a *turn* relative to the travel
direction (2 bits, 59 hops per probe — the paper's encoding).  General
graphs have no global travel frame, so they record the absolute output
port per hop (``ceil(log2(radix))`` bits).  ``encode_hop`` /
``decode_hop`` / ``probe_hop_capacity`` abstract the codec; the protocol
precomputes the encode table per topology at setup.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

Link = FrozenSet[int]

#: Largest radix a topology may have: ports ``0..radix`` must each fit
#: in one byte of a source route (``repro.routing.paths.Route``).
MAX_RADIX = 255

#: Bits available for the recorded path in one 128-bit probe flit after
#: the fixed header (message type, sender id, travel port).  With the
#: mesh's 2-bit turn encoding this yields the paper's 59-hop capacity.
_PROBE_PATH_BITS = 118


class BaseTopology:
    """Adjacency-list graph with per-node port lists and fault state.

    Subclasses must provide ``num_nodes``, ``radix``, and the adjacency
    (:meth:`neighbor`, :meth:`port_between`), and must initialise the
    activation state ``_node_active`` (list of bools) and
    ``_link_active`` (dict ``frozenset{u, v} -> bool`` over the
    underlying links).  Links are bidirectional: deactivating one
    removes both channel directions.
    """

    #: Spec tag dispatched by :func:`topology_from_spec`.
    kind: str = "base"

    num_nodes: int
    #: Network ports per node (excluding the local port).
    radix: int
    _node_active: List[bool]
    _link_active: Dict[Link, bool]

    # -- port model ------------------------------------------------------

    @property
    def local_port(self) -> int:
        """The injection/ejection port index (always ``radix``)."""
        return self.radix

    @property
    def num_ports(self) -> int:
        """Ports per router including the local port."""
        return self.radix + 1

    def port_name(self, port: int) -> str:
        """Human-readable port label (observability / certificates)."""
        if port == self.radix:
            return "LOCAL"
        return f"P{port}"

    def describe_node(self, node: int) -> str:
        """Human-readable node label (observability / certificates)."""
        return str(node)

    def describe(self) -> str:
        """One-line topology description for certificates and logs."""
        return f"{self.kind}({self.num_nodes} nodes)"

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.describe()}, "
            f"faulty_nodes={self.num_faulty_nodes()}, "
            f"faulty_links={self.num_faulty_links()})"
        )

    # -- adjacency (subclass responsibility) -----------------------------

    def neighbor(self, node: int, port: int) -> Optional[int]:
        """Neighbor behind ``port`` on the *underlying* graph (or None)."""
        raise NotImplementedError

    def port_between(self, u: int, v: int) -> int:
        """Output port at ``u`` leading to adjacent node ``v``."""
        raise NotImplementedError

    def arrival_port(self, node: int, out_port: int) -> int:
        """Input port at the neighbor for traffic leaving on ``out_port``.

        This is the per-edge generalization of the mesh's global
        ``OPPOSITE_PORT`` table.  Raises if ``out_port`` is unwired.
        """
        other = self.neighbor(node, out_port)
        if other is None:
            raise ValueError(f"node {node} has no neighbor on port {out_port}")
        return self.port_between(other, node)

    def active_neighbors(self, node: int) -> List[Tuple[int, int]]:
        """Active ``(port, neighbor)`` pairs reachable over active links."""
        if not self._node_active[node]:
            return []
        result = []
        for port in range(self.radix):
            other = self.neighbor(node, port)
            if other is not None and self.link_is_active(node, other):
                result.append((port, other))
        return result

    def all_nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def all_links(self) -> Iterator[Link]:
        return iter(self._link_active)

    # -- activation state ------------------------------------------------

    def node_is_active(self, node: int) -> bool:
        return self._node_active[node]

    def link_is_active(self, u: int, v: int) -> bool:
        """True iff the u-v link and both endpoints are active."""
        link = frozenset((u, v))
        if link not in self._link_active:
            return False
        return (
            self._link_active[link]
            and self._node_active[u]
            and self._node_active[v]
        )

    def deactivate_node(self, node: int) -> None:
        self._node_active[node] = False

    def activate_node(self, node: int) -> None:
        self._node_active[node] = True

    def deactivate_link(self, u: int, v: int) -> None:
        link = frozenset((u, v))
        if link not in self._link_active:
            raise ValueError(f"no link between {u} and {v}")
        self._link_active[link] = False

    def activate_link(self, u: int, v: int) -> None:
        link = frozenset((u, v))
        if link not in self._link_active:
            raise ValueError(f"no link between {u} and {v}")
        self._link_active[link] = True

    def active_nodes(self) -> List[int]:
        return [n for n in self.all_nodes() if self._node_active[n]]

    def active_links(self) -> List[Link]:
        return [
            link
            for link, on in self._link_active.items()
            if on and all(self._node_active[n] for n in link)
        ]

    def num_faulty_links(self) -> int:
        """Links explicitly deactivated (not counting router-induced loss)."""
        return sum(1 for on in self._link_active.values() if not on)

    def num_faulty_nodes(self) -> int:
        return sum(1 for on in self._node_active if not on)

    # -- probe hop codec -------------------------------------------------

    def encode_hop(self, in_port: int, out_port: int) -> int:
        """Record one probe hop (default: the absolute output port)."""
        return out_port

    def decode_hop(self, travel: int, code: int) -> int:
        """Recover the output port from a recorded hop.

        ``travel`` is the output port the message took at the *previous*
        node; the absolute-port codec ignores it, the mesh turn codec
        rotates it.
        """
        return code

    def probe_hop_capacity(self) -> int:
        """Maximum hops recordable in one 128-bit probe flit."""
        bits = max(2, (max(self.radix, 2) - 1).bit_length())
        return max(4, _PROBE_PATH_BITS // bits)

    # -- static bubble placement -----------------------------------------

    def bubble_placement(self) -> List[int]:
        """Static-bubble node ids covering every u-turn-free cycle.

        The default is a greedy feedback-vertex-set style cover of the
        *underlying* graph (stable under faults and live reconfiguration);
        the mesh overrides this with the paper's closed-form placement.
        Callers certify the result post-hoc with
        :func:`repro.verify.certify.certify_cycle_cover`.
        """
        from repro.core.placement import greedy_cycle_cover

        return greedy_cycle_cover(self)

    # -- canonical serialization -----------------------------------------

    def _fault_spec(self) -> Dict[str, object]:
        """The shared fault-deviation portion of :meth:`to_spec`."""
        return {
            "inactive_nodes": [
                n for n in self.all_nodes() if not self._node_active[n]
            ],
            "inactive_links": sorted(
                sorted(link) for link, on in self._link_active.items() if not on
            ),
        }

    def _apply_fault_spec(self, spec: Dict[str, object]) -> None:
        for node in spec.get("inactive_nodes", ()):
            self.deactivate_node(int(node))
        for u, v in spec.get("inactive_links", ()):
            self.deactivate_link(int(u), int(v))

    def to_spec(self) -> Dict[str, object]:
        raise NotImplementedError

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "BaseTopology":
        raise NotImplementedError


# -- spec registry --------------------------------------------------------

#: kind -> constructor-from-spec.  Generators register themselves at
#: import; :func:`topology_from_spec` is the single dispatch point used
#: by the serializer, the ResultStore, and the campaign server.
_SPEC_REGISTRY: Dict[str, Callable[[Dict[str, object]], BaseTopology]] = {}


def register_topology(kind: str, from_spec: Callable[..., BaseTopology]) -> None:
    _SPEC_REGISTRY[kind] = from_spec


def topology_kinds() -> List[str]:
    return sorted(_SPEC_REGISTRY)


def topology_from_spec(spec: Dict[str, object]) -> BaseTopology:
    """Rebuild any registered topology from its :meth:`to_spec` output.

    Specs without a ``kind`` field are legacy 2D-mesh specs (every blob
    stored before the generalization).  Unknown kinds raise ``ValueError``
    with the known alternatives, so stale ResultStore blobs and
    cross-version ``repro submit`` payloads fail with a clear error
    instead of a ``KeyError`` mid-construction.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"topology spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind", "mesh")
    builder = _SPEC_REGISTRY.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown topology kind {kind!r}; known kinds: {', '.join(topology_kinds())}"
        )
    return builder(spec)


def _require_spec_fields(
    spec: Dict[str, object], kind: str, required: Tuple[str, ...], optional: Tuple[str, ...]
) -> None:
    """Shared shape validation for every generator's ``from_spec``.

    Rejects missing required fields and unrecognized fields up front so a
    malformed or cross-version spec fails with a clear error rather than
    a ``KeyError`` (or silent misconstruction) partway through.
    """
    spec_kind = spec.get("kind", "mesh")
    if spec_kind != kind:
        raise ValueError(f"expected topology kind {kind!r}, got {spec_kind!r}")
    missing = [f for f in required if f not in spec]
    if missing:
        raise ValueError(f"{kind} spec missing fields: {', '.join(missing)}")
    known = set(required) | set(optional) | {"kind", "inactive_nodes", "inactive_links"}
    unknown = [f for f in spec if f not in known]
    if unknown:
        raise ValueError(f"{kind} spec has unrecognized fields: {', '.join(sorted(unknown))}")

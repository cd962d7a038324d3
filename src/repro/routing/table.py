"""Source-routing tables held at each network interface (Section II-D).

The paper leverages prior reconfiguration work: on every topology change,
software/hardware identifies connectivity and populates a routing table
at every source NI; each packet is injected carrying its full route.  We
model the populated tables directly (reconfiguration cost is assumed zero
for the baselines too, matching Section V-B).

Builders:

* :func:`build_minimal_tables` — up to ``max_paths`` minimal routes per
  destination (Static Bubble / escape-VC normal path / unprotected).
* :func:`build_updown_tables` — single up*/down* route per destination
  (spanning-tree avoidance baseline).

Both, and the spanning trees and escape next-hop tables the escape-VC
baseline needs (:func:`cached_spanning_trees`,
:func:`escape_next_hop_tables`), are derived in one pass each over one
adjacency snapshot and memoized together, one entry per topology.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.routing.paths import Adjacency, Route, active_adjacency, minimal_routes_to
from repro.routing.spanning_tree import (
    SpanningTree,
    build_spanning_trees,
    tree_next_hop_tables,
    updown_routes_from,
)
from repro.topology.mesh import Topology


#: One source's routes by destination id (``RoutingTable._by_dst``).
Row = List[Optional[Tuple[Route, ...]]]


class RoutingTable:
    """Routes from one source node to every reachable destination.

    ``_by_dst[dst]`` is the tuple of routes to ``dst``, or ``None`` where
    ``dst`` is unreachable (or is the source itself): one list slot per
    node id, so a lookup is an index, not a hash.
    """

    __slots__ = ("source", "_by_dst")

    def __init__(self, source: int) -> None:
        self.source = source
        self._by_dst: Row = []

    def add_route(self, dst: int, route: Sequence[int]) -> None:
        by_dst = self._by_dst
        if dst >= len(by_dst):
            by_dst.extend([None] * (dst + 1 - len(by_dst)))
        by_dst[dst] = (by_dst[dst] or ()) + (bytes(route),)

    def destinations(self) -> List[int]:
        return [dst for dst, options in enumerate(self._by_dst) if options is not None]

    def has_route(self, dst: int) -> bool:
        return self._options(dst) is not None

    def routes(self, dst: int) -> Tuple[Route, ...]:
        return self._options(dst) or ()

    def pick_route(self, dst: int, rng: random.Random) -> Optional[Route]:
        """Uniformly random choice among the stored routes (paper fn. 1)."""
        options = self._options(dst)
        if options is None:
            return None
        if len(options) == 1:
            return options[0]
        return options[rng.randrange(len(options))]

    def _options(self, dst: int) -> Optional[Tuple[Route, ...]]:
        by_dst = self._by_dst
        return by_dst[dst] if dst < len(by_dst) else None


def _tables(rows: Dict[int, Row]) -> Dict[int, RoutingTable]:
    """One :class:`RoutingTable` per source over its filled row."""
    tables = {}
    for node, row in rows.items():
        table = tables[node] = RoutingTable(node)
        table._by_dst = row
    return tables


class _Derived:
    """What has been derived so far from one topology state.

    Everything here is a pure function of the topology spec and is shared
    read-only by every caller that asks for the same topology.
    """

    __slots__ = ("adjacency", "minimal", "updown", "trees", "escape")

    def __init__(self, adjacency: Adjacency) -> None:
        self.adjacency = adjacency
        #: ``max_paths`` -> minimal tables.
        self.minimal: Dict[int, Dict[int, RoutingTable]] = {}
        self.updown: Optional[Dict[int, RoutingTable]] = None
        self.trees: Optional[List[SpanningTree]] = None
        self.escape: Optional[Dict[int, Dict[int, int]]] = None


#: Per-process memo: canonical topology spec -> :class:`_Derived`.
#: Campaign workers run many cells that differ only in scheme/rate/seed
#: on one sampled topology, so one pass per topology serves them all.  A
#: rebuild is tens of ms at 8x8, so the bound only has to cover the
#: topologies a caller alternates between; beyond that it is memory.
_MEMO_MAX = 8
_memo: "OrderedDict[str, _Derived]" = OrderedDict()


def clear_table_cache() -> None:
    """Forget every topology's tables, trees and escape next-hop tables."""
    _memo.clear()


def _derived(topo: Topology) -> _Derived:
    # ``to_spec`` records only sorted deviations from the healthy
    # topology, so equal post-fault states key identically regardless of
    # the fault order that produced them.
    key = json.dumps(topo.to_spec(), sort_keys=True)
    entry = _memo.get(key)
    if entry is not None:
        _memo.move_to_end(key)
        return entry
    entry = _memo[key] = _Derived(active_adjacency(topo))
    while len(_memo) > _MEMO_MAX:
        _memo.popitem(last=False)
    return entry


def build_minimal_tables(
    topo: Topology, max_paths: int = 4
) -> Dict[int, RoutingTable]:
    """Minimal-route tables for every active node.

    One :func:`minimal_routes_to` pass per destination.  Memoized per
    process on the canonical topology spec; the :class:`RoutingTable`
    objects are shared (read-only after construction) but not the dict,
    so a caller reshaping its mapping cannot corrupt the memo.
    """
    entry = _derived(topo)
    tables = entry.minimal.get(max_paths)
    if tables is None:
        adjacency, local = entry.adjacency, topo.local_port
        rows: Dict[int, Row] = {node: [None] * topo.num_nodes for node in adjacency}
        # Equal port strings recur across pairs (~7x at 8x8), and so do
        # equal route tuples: keep one object of each, a table is then
        # mostly references.
        shared: Dict[object, object] = {}
        for dst in adjacency:
            for src, routes in minimal_routes_to(adjacency, dst, local, max_paths).items():
                if src != dst and routes:
                    options = tuple([shared.setdefault(r, r) for r in routes])
                    rows[src][dst] = shared.setdefault(options, options)
        tables = _tables(rows)
        entry.minimal[max_paths] = tables
    return dict(tables)


def cached_spanning_trees(topo: Topology) -> List[SpanningTree]:
    """:func:`build_spanning_trees`, memoized per topology (shared trees)."""
    entry = _derived(topo)
    if entry.trees is None:
        entry.trees = build_spanning_trees(topo, entry.adjacency)
    return entry.trees


def escape_next_hop_tables(topo: Topology) -> Dict[int, Dict[int, int]]:
    """Tree next hops of every component, memoized per topology (shared)."""
    entry = _derived(topo)
    if entry.escape is None:
        escape: Dict[int, Dict[int, int]] = {}
        for tree in cached_spanning_trees(topo):
            escape.update(tree_next_hop_tables(topo, tree, entry.adjacency))
        entry.escape = escape
    return entry.escape


def _updown_tables(
    topo: Topology, trees: List[SpanningTree], adjacency: Adjacency
) -> Dict[int, RoutingTable]:
    rows: Dict[int, Row] = {node: [None] * topo.num_nodes for node in adjacency}
    shared: Dict[Route, Tuple[Route]] = {}  # as in ``build_minimal_tables``
    for tree in trees:
        members = sorted(tree.nodes())
        for src in members:
            routes = updown_routes_from(adjacency, tree, src, topo.local_port)
            row = rows[src]
            for dst in members:
                route = routes.get(dst)
                if route is not None:
                    row[dst] = shared.setdefault(route, (route,))
    return _tables(rows)


def build_updown_tables(
    topo: Topology, trees: Optional[List[SpanningTree]] = None
) -> Dict[int, RoutingTable]:
    """Up*/down* route tables (one route per destination) per active node.

    One :func:`updown_routes_from` search per source.  Memoized like
    :func:`build_minimal_tables`, but only for the default tree
    derivation — caller-supplied ``trees`` bypass the memo (their
    identity is not part of the topology spec).
    """
    if trees is not None:
        return _updown_tables(topo, trees, active_adjacency(topo))
    entry = _derived(topo)
    if entry.updown is None:
        entry.updown = _updown_tables(
            topo, cached_spanning_trees(topo), entry.adjacency
        )
    return dict(entry.updown)

"""Spanning trees and up*/down* routing (the paper's first baseline).

State-of-the-art resiliency/power-gating works (Ariadne, uDIREC, Panthre)
achieve deadlock freedom on irregular topologies by building a spanning
tree over the surviving network and applying *up*/down** routing: links
toward the root are "up", links away are "down" (ties broken by node id),
and the down->up turn is forbidden.  Any up*down* path is deadlock-free;
the cost is non-minimal routes and reduced path diversity — exactly the
penalty Static Bubble removes.

This module provides:

* :class:`SpanningTree` — BFS tree over a component with the up/down
  ordering (root chosen to minimize total distance, a common heuristic;
  the paper notes optimal root selection is an exponential search).
* :func:`updown_route` — shortest up*/down*-valid route over *all* active
  links (used by the spanning-tree avoidance baseline's source routing).
* :func:`tree_next_hop_tables` — pure tree routing next-hop tables (used
  by the escape-VC baseline's per-router escape tables, a la Router
  Parking).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.routing.paths import (
    HOPS,
    Adjacency,
    Route,
    active_adjacency,
    adjacency_distances,
    node_path_to_route,
)
from repro.topology.base import BaseTopology as Topology
from repro.topology.graph import components


class SpanningTree:
    """BFS spanning tree of one connected component with up/down ordering.

    ``adjacency`` (here and below) is an :func:`active_adjacency` snapshot
    of ``topo`` the caller already holds; one is taken when omitted.
    """

    def __init__(
        self, topo: Topology, root: int, adjacency: Optional[Adjacency] = None
    ) -> None:
        if adjacency is None:
            adjacency = active_adjacency(topo)
        if root not in adjacency:
            raise ValueError(f"root {root} is not active")
        self.root = root
        self.parent: Dict[int, Optional[int]] = {root: None}
        self.depth: Dict[int, int] = {root: 0}
        self.children: Dict[int, List[int]] = {root: []}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            below = self.depth[node] + 1
            for neighbor in sorted(n for _, n in adjacency[node]):
                if neighbor not in self.depth:
                    self.depth[neighbor] = below
                    self.parent[neighbor] = node
                    self.children[node].append(neighbor)
                    self.children[neighbor] = []
                    queue.append(neighbor)

    def covers(self, node: int) -> bool:
        return node in self.depth

    def nodes(self) -> Set[int]:
        return set(self.depth)

    def order_key(self, node: int) -> Tuple[int, int]:
        """Total order: closer to the root (then lower id) is 'higher up'."""
        return (self.depth[node], node)

    def edge_is_up(self, u: int, v: int) -> bool:
        """True iff traversing the u->v channel moves 'up' (toward the root)."""
        return self.order_key(v) < self.order_key(u)

    def tree_path(self, src: int, dst: int) -> List[int]:
        """The unique tree path src -> ... -> dst (up to LCA, then down)."""
        if not (self.covers(src) and self.covers(dst)):
            raise ValueError("src/dst outside the tree's component")
        up_src, up_dst = [src], [dst]
        a, b = src, dst
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
                up_src.append(a)
            else:
                b = self.parent[b]
                up_dst.append(b)
        return up_src + up_dst[-2::-1]


def choose_root(
    topo: Topology, component: Set[int], adjacency: Optional[Adjacency] = None
) -> int:
    """Pick the node minimizing total BFS distance within its component.

    A centroid-ish root keeps up*/down* detours short — the standard
    heuristic stand-in for the exponential optimal-root search the paper
    mentions.
    """
    if adjacency is None:
        adjacency = active_adjacency(topo)
    best_node, best_cost = None, None
    for node in sorted(component):
        dist = adjacency_distances(adjacency, node)
        cost = sum(dist[n] for n in component if n in dist)
        if best_cost is None or cost < best_cost:
            best_node, best_cost = node, cost
    if best_node is None:
        raise ValueError("empty component")
    return best_node


def build_spanning_trees(
    topo: Topology, adjacency: Optional[Adjacency] = None
) -> List[SpanningTree]:
    """One spanning tree per connected component (largest first)."""
    if adjacency is None:
        adjacency = active_adjacency(topo)
    return [
        SpanningTree(topo, choose_root(topo, component, adjacency), adjacency)
        for component in components(
            {node: [v for _, v in hops] for node, hops in adjacency.items()}
        )
    ]


def updown_route(
    topo: Topology, tree: SpanningTree, src: int, dst: int
) -> Optional[Route]:
    """Shortest up*/down*-valid port route over all active links.

    BFS over states ``(node, has_gone_down)``; taking an up channel after
    any down channel is forbidden.  Uses *all* active links of the
    component (not just tree links) — up*/down* only constrains turn
    order, which is how Ariadne-style reconfiguration works.
    Returns ``None`` when src/dst are not in the tree's component.
    """
    if not (tree.covers(src) and tree.covers(dst)):
        return None
    if src == dst:
        return HOPS[topo.local_port]
    start = (src, False)
    parent_state: Dict[Tuple[int, bool], Tuple[int, bool]] = {start: start}
    queue = deque([start])
    goal: Optional[Tuple[int, bool]] = None
    while queue and goal is None:
        node, gone_down = queue.popleft()
        for _, neighbor in topo.active_neighbors(node):
            if not tree.covers(neighbor):
                continue
            edge_up = tree.edge_is_up(node, neighbor)
            if gone_down and edge_up:
                continue  # the forbidden down -> up turn
            state = (neighbor, gone_down or not edge_up)
            if state in parent_state:
                continue
            parent_state[state] = (node, gone_down)
            if neighbor == dst:
                goal = state
                break
            queue.append(state)
    if goal is None:
        return None
    nodes: List[int] = []
    state = goal
    while True:
        nodes.append(state[0])
        prev = parent_state[state]
        if prev == state:
            break
        state = prev
    nodes.reverse()
    return node_path_to_route(topo, nodes)


def updown_routes_from(
    adjacency: Adjacency, tree: SpanningTree, src: int, local_port: int
) -> Dict[int, Route]:
    """:func:`updown_route` from ``src`` to every other node of its tree.

    :func:`updown_route` returns the path to the first *discovered* state
    whose node is ``dst``, and the order in which its ``(node,
    gone_down)`` search discovers states does not depend on ``dst`` — so
    one full search from ``(src, False)`` that remembers each node's
    first-discovered state yields every destination's route.
    """
    if not tree.covers(src):
        return {}
    depth = tree.depth
    start = (src, False)
    #: state -> ports taken from ``src`` to reach it.
    ports_to: Dict[Tuple[int, bool], Route] = {start: b""}
    routes: Dict[int, Route] = {}
    eject = HOPS[local_port]
    queue = deque([start])
    while queue:
        state = queue.popleft()
        node, gone_down = state
        taken = ports_to[state]
        here = (depth[node], node)
        for port, neighbor in adjacency[node]:
            if neighbor not in depth:
                continue
            edge_up = (depth[neighbor], neighbor) < here
            if gone_down and edge_up:
                continue  # the forbidden down -> up turn
            reached = (neighbor, gone_down or not edge_up)
            if reached in ports_to:
                continue
            ports_to[reached] = through = taken + HOPS[port]
            if neighbor != src and neighbor not in routes:
                routes[neighbor] = through + eject
            queue.append(reached)
    return routes


def tree_next_hop_tables(
    topo: Topology, tree: SpanningTree, adjacency: Optional[Adjacency] = None
) -> Dict[int, Dict[int, int]]:
    """Per-router next-hop (output port) tables for pure tree routing.

    ``tables[node][dst]`` is the output port at ``node`` toward ``dst``
    along the unique tree path: down into the subtree containing ``dst``
    if there is one, else up to the parent.  Tree routing is trivially
    up*/down*-valid and hence deadlock-free — it is the escape path used
    by the escape-VC baseline.
    """
    if adjacency is None:
        adjacency = active_adjacency(topo)
    nodes = tree.nodes()

    # Which destinations live under each node: children are discovered
    # after their parent, so reversed BFS order is a post-order.
    subtree: Dict[int, Set[int]] = {}
    for node in reversed(list(tree.depth)):
        acc = {node}
        for child in tree.children[node]:
            acc |= subtree[child]
        subtree[node] = acc

    local = topo.local_port
    tables: Dict[int, Dict[int, int]] = {}
    for node in nodes:
        port_to = {neighbor: port for port, neighbor in adjacency[node]}
        parent = tree.parent[node]
        # Everything not below ``node`` is reached through its parent.
        table = dict.fromkeys(nodes, local if parent is None else port_to[parent])
        # Subtrees are disjoint: at most one child claims a destination.
        for child in tree.children[node]:
            port = port_to[child]
            for dst in subtree[child]:
                table[dst] = port
        table[node] = local
        tables[node] = table
    return tables

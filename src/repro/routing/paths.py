"""Minimal-path enumeration over (irregular) topologies.

Minimal routes are the paper's default for escape-VC and Static Bubble
schemes: every packet follows a shortest path in the *current* topology
graph, chosen uniformly at random among the available minimal paths at
injection time (deadlock-prone by design — recovery handles the rest).

A route is an immutable ``bytes`` string of output ports: element ``i``
is the port taken at the ``i``-th router on the path, and the final
element is the topology's local port (ejection at the destination) —
``Port.LOCAL`` on the 2D mesh, ``topo.local_port`` in general.  Indexing
a route yields the port as an ``int``; a port must fit in a byte, which
is why a topology's radix is bounded by ``MAX_RADIX``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.base import BaseTopology as Topology

Route = bytes

#: ``HOPS[port]`` is the one-port route ``bytes((port,))``: routes are
#: grown by concatenating these, so no builder allocates them per hop.
HOPS: Tuple[Route, ...] = tuple(bytes((port,)) for port in range(256))

#: Snapshot of the active links: active node -> its ``(port, neighbor)``
#: pairs in ``active_neighbors`` order.  Every batch derivation (tables,
#: trees, next hops) takes one snapshot and indexes it instead of asking
#: the topology again per visit.
Adjacency = Dict[int, Tuple[Tuple[int, int], ...]]


def active_adjacency(topo: Topology) -> Adjacency:
    """One :data:`Adjacency` snapshot of ``topo``'s current fault state."""
    return {node: tuple(topo.active_neighbors(node)) for node in topo.active_nodes()}


def adjacency_distances(adjacency: Adjacency, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` within its component, in BFS order."""
    if source not in adjacency:
        return {}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        here = dist[node] + 1
        for _, neighbor in adjacency[node]:
            if neighbor not in dist:
                dist[neighbor] = here
                queue.append(neighbor)
    return dist


def bfs_distances(topo: Topology, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` over active links (same component)."""
    return adjacency_distances(active_adjacency(topo), source)


def minimal_node_paths(
    topo: Topology,
    src: int,
    dst: int,
    max_paths: int = 4,
    dist_to_dst: Optional[Dict[int, int]] = None,
) -> List[List[int]]:
    """Up to ``max_paths`` distinct shortest node-paths from src to dst.

    Enumerated by walking strictly "downhill" on BFS distances to the
    destination, depth-first; the cap bounds work on highly diverse
    meshes.  Returns ``[]`` when dst is unreachable.
    """
    if src == dst:
        return [[src]]
    if dist_to_dst is None:
        dist_to_dst = bfs_distances(topo, dst)
    if src not in dist_to_dst:
        return []
    paths: List[List[int]] = []
    stack: List[List[int]] = [[src]]
    while stack and len(paths) < max_paths:
        path = stack.pop()
        node = path[-1]
        if node == dst:
            paths.append(path)
            continue
        here = dist_to_dst[node]
        for _, neighbor in topo.active_neighbors(node):
            if dist_to_dst.get(neighbor, -1) == here - 1:
                stack.append(path + [neighbor])
    return paths


def node_path_to_route(topo: Topology, node_path: Sequence[int]) -> Route:
    """Convert a node path into a port route (ending with ejection)."""
    ports: List[int] = []
    for u, v in zip(node_path, node_path[1:]):
        ports.append(topo.port_between(u, v))
    ports.append(topo.local_port)
    return bytes(ports)


def minimal_routes(
    topo: Topology,
    src: int,
    dst: int,
    max_paths: int = 4,
    dist_to_dst: Optional[Dict[int, int]] = None,
) -> List[Route]:
    """Up to ``max_paths`` minimal port-routes from src to dst."""
    return [
        node_path_to_route(topo, path)
        for path in minimal_node_paths(topo, src, dst, max_paths, dist_to_dst)
    ]


def minimal_routes_to(
    adjacency: Adjacency, dst: int, local_port: int, max_paths: int = 4
) -> Dict[int, List[Route]]:
    """:func:`minimal_routes` from every node of ``dst``'s component at once.

    Keys are in BFS order from ``dst`` (``dst`` itself first, with the
    bare ejection route); each list equals ``minimal_routes(topo, src,
    dst, max_paths)`` route for route.  :func:`minimal_node_paths` is a
    LIFO depth-first walk that pushes a node's downhill neighbors in
    ``active_neighbors`` order, so the paths of ``src`` are, in order,
    those of its *last* downhill neighbor, then the one before it, ...;
    and the first ``max_paths`` of that concatenation need only the first
    ``max_paths`` of each neighbor.  Filling nodes in BFS order from
    ``dst`` has every downhill neighbor ready when its uphill node asks.
    """
    dist = adjacency_distances(adjacency, dst)
    routes: Dict[int, List[Route]] = {}
    for node, here in dist.items():
        if node == dst:
            routes[node] = [HOPS[local_port]]
            continue
        found: List[Route] = []
        for port, neighbor in reversed(adjacency[node]):
            if dist[neighbor] == here - 1:
                head = HOPS[port]
                for tail in routes[neighbor]:
                    found.append(head + tail)
                if len(found) >= max_paths:
                    del found[max_paths:]
                    break
        routes[node] = found
    return routes


def route_node_sequence(topo: Topology, src: int, route: Route) -> List[int]:
    """Nodes visited by ``route`` starting at ``src`` (inverse of above)."""
    nodes = [src]
    for port in route[:-1]:
        nxt = topo.neighbor(nodes[-1], port)
        if nxt is None:
            raise ValueError("route walks off the mesh")
        nodes.append(nxt)
    return nodes


def route_is_valid(topo: Topology, src: int, dst: int, route: Route) -> bool:
    """Check a route traverses only active links and ends at ``dst``."""
    local = topo.local_port
    if not route or route[-1] != local:
        return False
    node = src
    for port in route[:-1]:
        if port == local:
            return False
        nxt = topo.neighbor(node, port)
        if nxt is None or not topo.link_is_active(node, nxt):
            return False
        node = nxt
    return node == dst

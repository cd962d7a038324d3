"""The graph algorithms of the reproduction, in the standard library.

Two of the paper's claims are graph questions.  Fig. 2 counts a faulted
topology as *deadlock-prone* iff its graph contains a cycle (footnote 1:
with unrestricted minimal routing, any cycle can be exercised into a
buffer-dependency cycle at a sufficient injection rate), and the Section
III lemma holds iff every channel-dependency cycle passes a static-bubble
router, which :mod:`repro.verify.certify` decides with one SCC pass.

An *adjacency* maps each vertex to its successors; an undirected graph
lists every edge in both directions (:func:`topology_adjacency`).  Over
it this module holds:

* :func:`components` — breadth-first connected components, largest
  first, ties to the component whose first vertex comes first in the
  adjacency (for a topology: the lowest node id).  Sampling topologies
  with connected memory controllers, the application workloads and
  :func:`repro.routing.spanning_tree.build_spanning_trees` rely on that
  order.
* :func:`cycle_count_upper_bound` (the cycle-space size) and
  :func:`has_cycle`, both from one component pass.
* :func:`strongly_connected_components` (Tarjan), :func:`cyclic_components`,
  :func:`shortest_cycle` and :func:`bounded_cycles` over directed graphs;
  the undirected :func:`simple_cycles` enumerates with the same routine.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.topology.base import BaseTopology

Vertex = Hashable
Adjacency = Mapping[Vertex, Iterable[Vertex]]


def topology_adjacency(topo: BaseTopology) -> Dict[int, List[int]]:
    """The undirected adjacency of the active nodes and links."""
    return {
        node: [other for _, other in topo.active_neighbors(node)]
        for node in topo.active_nodes()
    }


# -- undirected -----------------------------------------------------------


def _reach(adj: Adjacency, root: Vertex) -> Set[Vertex]:
    """Vertices reachable from ``root``, by breadth-first search."""
    reached = {root}
    queue = deque([root])
    while queue:
        for succ in adj[queue.popleft()]:
            if succ not in reached:
                reached.add(succ)
                queue.append(succ)
    return reached


def components(adj: Adjacency) -> List[Set[Vertex]]:
    """Connected components of an undirected adjacency, largest first.

    Components are found in the adjacency's vertex order and the sort is
    stable, so equal sizes keep that order.
    """
    seen: Set[Vertex] = set()
    found = []
    for root in adj:
        if root not in seen:
            component = _reach(adj, root)
            seen |= component
            found.append(component)
    found.sort(key=len, reverse=True)
    return found


def connected_components(topo: BaseTopology) -> List[Set[int]]:
    """Connected components of the active topology, largest first (ties:
    the component holding the lowest node first)."""
    return components(topology_adjacency(topo))


def largest_component(topo: BaseTopology) -> Set[int]:
    found = connected_components(topo)
    return found[0] if found else set()


def is_connected(topo: BaseTopology) -> bool:
    return len(connected_components(topo)) <= 1


def nodes_reachable_from(topo: BaseTopology, source: int) -> Set[int]:
    adj = topology_adjacency(topo)
    return _reach(adj, source) if source in adj else set()


def cycle_count_upper_bound(topo: BaseTopology) -> int:
    """Size of the cycle space (independent cycles): ``edges - nodes +
    components``."""
    adj = topology_adjacency(topo)
    edges = sum(len(succs) for succs in adj.values()) // 2
    return edges - len(adj) + len(components(adj))


def has_cycle(topo: BaseTopology) -> bool:
    """True iff any component of the topology contains a cycle.

    A tree component has ``edges == nodes - 1``, so the cycle space is
    empty exactly for a forest.
    """
    return cycle_count_upper_bound(topo) > 0


def simple_cycles(topo: BaseTopology, length_bound: int) -> List[List[int]]:
    """All simple cycles of the active topology up to ``length_bound`` nodes.

    Exponential in general — use only for small meshes / tight bounds
    (the lemma tests bound the length).  Each cycle is a node list without
    the repeated closing node, starting at its lowest node, listed once
    (of the two directions, the one whose second node is the lower).
    """
    return [
        cycle
        for cycle in _cycles(topology_adjacency(topo), length_bound)
        if len(cycle) > 2 and cycle[1] < cycle[-1]
    ]


# -- directed -------------------------------------------------------------


def strongly_connected_components(adj: Adjacency) -> List[List[Vertex]]:
    """Tarjan's SCC decomposition, iterative (CDGs can be deep)."""
    index: Dict[Vertex, int] = {}
    lowlink: Dict[Vertex, int] = {}
    on_stack: Set[Vertex] = set()
    stack: List[Vertex] = []
    sccs: List[List[Vertex]] = []
    counter = 0

    for root in adj:
        if root in index:
            continue
        work: List[Tuple[Vertex, Iterator[Vertex]]] = [(root, iter(adj[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in adj:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def cyclic_components(adj: Adjacency) -> List[List[Vertex]]:
    """SCCs that contain a cycle (size > 1, or a self-loop)."""
    return [
        scc
        for scc in strongly_connected_components(adj)
        if len(scc) > 1 or scc[0] in adj.get(scc[0], ())
    ]


def shortest_cycle(adj: Adjacency) -> Optional[List[Vertex]]:
    """A shortest cycle of the graph, or None if it is acyclic.

    BFS from every member of every cyclic SCC back to itself, restricted
    to that SCC — exact and fast at CDG sizes (hundreds of channels).
    """
    best: Optional[List[Vertex]] = None
    for scc in cyclic_components(adj):
        members = set(scc)
        for start in scc:
            if start in adj.get(start, ()):
                return [start]  # self-loop: cannot be beaten
            parent: Dict[Vertex, Vertex] = {}
            frontier = [start]
            depth = 0  # the frontier's distance from start
            found = False
            while frontier and not found:
                if best is not None and len(best) <= depth + 1:
                    break  # no shorter cycle reachable from this start
                nxt: List[Vertex] = []
                for node in frontier:
                    for succ in adj.get(node, ()):
                        if succ == start:
                            cycle = [node]
                            while cycle[-1] != start:
                                cycle.append(parent[cycle[-1]])
                            cycle.reverse()
                            if best is None or len(cycle) < len(best):
                                best = cycle
                            found = True
                            break
                        if succ in members and succ not in parent:
                            parent[succ] = node
                            nxt.append(succ)
                    if found:
                        break
                frontier = nxt
                depth += 1
    return best


def _cycles(adj: Adjacency, length_bound: int) -> Iterator[List[Vertex]]:
    """Every directed simple cycle of at most ``length_bound`` vertices.

    DFS from each vertex, only visiting vertices ordered after the start,
    so each cycle is reported once, rooted at its smallest vertex.
    """
    order = {vertex: i for i, vertex in enumerate(sorted(adj))}
    for start in sorted(adj):
        stack: List[Tuple[Vertex, List[Vertex]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for succ in adj.get(node, ()):
                if succ == start:
                    yield list(path)
                elif (
                    len(path) < length_bound
                    and succ in order
                    and order[succ] > order[start]
                    and succ not in path
                ):
                    stack.append((succ, path + [succ]))


def bounded_cycles(
    adj: Adjacency, length_bound: int, limit: int = 10_000
) -> List[List[Vertex]]:
    """The first ``limit`` simple cycles of up to ``length_bound`` vertices
    (diagnostics only; exponential in general, so keep bounds tight)."""
    return list(islice(_cycles(adj, length_bound), limit))

"""Graph-theoretic analysis of (irregular) topologies.

Used by the Fig. 2 state-space study (a topology is *deadlock-prone* iff
its graph contains a cycle — footnote 1 of the paper: with unrestricted
minimal routing, any cycle can be exercised into a buffer-dependency
cycle at a sufficient injection rate) and by routing-table construction
(connectivity, components).

``networkx`` is imported by the functions that use it, not by the module:
it is over a third of ``import repro``'s time, and no simulation, service
or worker code path builds a graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set, Tuple

from repro.topology.mesh import Topology

if TYPE_CHECKING:
    import networkx as nx


def to_networkx(topo: Topology) -> "nx.Graph":
    """Undirected graph of the active nodes and links."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(topo.active_nodes())
    for link in topo.active_links():
        u, v = tuple(link)
        graph.add_edge(u, v)
    return graph


def connected_components(topo: Topology) -> List[Set[int]]:
    """Connected components of the active topology, largest first."""
    import networkx as nx

    graph = to_networkx(topo)
    return sorted(nx.connected_components(graph), key=len, reverse=True)


def largest_component(topo: Topology) -> Set[int]:
    components = connected_components(topo)
    return components[0] if components else set()


def is_connected(topo: Topology) -> bool:
    return len(connected_components(topo)) <= 1


def has_cycle(topo: Topology) -> bool:
    """True iff any component of the topology contains a cycle.

    A component with ``edges >= nodes`` necessarily contains a cycle; a
    forest has ``edges == nodes - 1`` per component.
    """
    import networkx as nx

    graph = to_networkx(topo)
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        if sub.number_of_edges() >= sub.number_of_nodes():
            return True
    return False


def cycle_count_upper_bound(topo: Topology) -> int:
    """Size of the cycle space (independent cycles) of the topology."""
    import networkx as nx

    graph = to_networkx(topo)
    n_components = nx.number_connected_components(graph) if len(graph) else 0
    return graph.number_of_edges() - graph.number_of_nodes() + n_components


def simple_cycles(
    topo: Topology, length_bound: int
) -> List[List[int]]:
    """All simple cycles of the active topology up to ``length_bound`` nodes.

    Exponential in general — use only for small meshes / tight bounds
    (the lemma tests bound the length).  Each cycle is a node list without
    the repeated closing node.
    """
    import networkx as nx

    graph = to_networkx(topo)
    return [list(c) for c in nx.simple_cycles(graph, length_bound=length_bound)]


def nodes_reachable_from(topo: Topology, source: int) -> Set[int]:
    import networkx as nx

    graph = to_networkx(topo)
    if source not in graph:
        return set()
    return set(nx.node_connected_component(graph, source))


def reachable_pairs(topo: Topology) -> Iterable[Tuple[int, int]]:
    """All ordered (src, dst) pairs with src != dst in the same component."""
    for component in connected_components(topo):
        members = sorted(component)
        for src in members:
            for dst in members:
                if src != dst:
                    yield (src, dst)

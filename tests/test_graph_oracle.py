"""``repro.topology.graph`` against networkx, an independent oracle.

networkx is a dev-only dependency: nothing under ``src/`` imports it.
Undirected: components with their order, ``has_cycle``, the cycle-space
size and the bounded simple cycles of random link- and router-fault
derivations of all five generators.  Directed: SCCs, the cyclic-SCC
filter (self-loops included), bounded cycles and the shortest cycle of
random small digraphs.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import graph
from repro.topology.faults import inject_link_faults, inject_router_faults
from repro.topology.generators import circulant, full_mesh, mesh3d, torus3d
from repro.topology.mesh import mesh

#: Generator -> (healthy instance, cycle length bound).
GENERATORS = {
    "mesh": (lambda: mesh(4, 4), 8),
    "mesh3d": (lambda: mesh3d(3, 2, 2), 6),
    "torus3d": (lambda: torus3d(3, 3, 3), 5),
    "circulant": (lambda: circulant(11, 2, 5), 5),
    "full_mesh": (lambda: full_mesh(6), 6),
}


def to_networkx(topo):
    oracle = nx.Graph()
    oracle.add_nodes_from(topo.active_nodes())
    oracle.add_edges_from(tuple(link) for link in topo.active_links())
    return oracle


def canonical(cycle, directed):
    """Rotate to the lowest vertex; undirected, also pick the direction
    whose second vertex is the lower."""
    cycle = list(cycle)
    low = cycle.index(min(cycle))
    cycle = cycle[low:] + cycle[:low]
    if not directed and len(cycle) > 2 and cycle[1] > cycle[-1]:
        cycle = [cycle[0]] + cycle[:0:-1]
    return tuple(cycle)


@given(
    kind=st.sampled_from(sorted(GENERATORS)),
    fault=st.sampled_from(["link", "router"]),
    fraction=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_topology_graphs_match_networkx(kind, fault, fraction, seed):
    build, bound = GENERATORS[kind]
    topo = build()
    rng = random.Random(seed)
    if fault == "link":
        topo = inject_link_faults(topo, int(fraction * len(topo.active_links())), rng)
    else:
        topo = inject_router_faults(topo, int(fraction * topo.num_nodes), rng)
    oracle = to_networkx(topo)

    # Largest first; equal sizes with the lowest node first.
    expected = sorted(nx.connected_components(oracle), key=lambda c: (-len(c), min(c)))
    assert graph.connected_components(topo) == expected
    assert graph.largest_component(topo) == expected[0]
    assert graph.is_connected(topo) == (len(expected) == 1)

    assert graph.cycle_count_upper_bound(topo) == len(nx.cycle_basis(oracle))
    assert graph.has_cycle(topo) == (not nx.is_forest(oracle))

    cycles = [tuple(cycle) for cycle in graph.simple_cycles(topo, bound)]
    assert all(canonical(cycle, directed=False) == cycle for cycle in cycles)
    assert sorted(cycles) == sorted(
        canonical(cycle, directed=False)
        for cycle in nx.simple_cycles(oracle, length_bound=bound)
    )


@given(
    n=st.integers(min_value=1, max_value=7),
    edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=18),
    bound=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=150, deadline=None)
def test_digraphs_match_networkx(n, edges, bound):
    edges = [(u % n, v % n) for u, v in edges]
    adj = {vertex: set() for vertex in range(n)}
    for u, v in edges:
        adj[u].add(v)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(edges)
    every_cycle = list(nx.simple_cycles(oracle))

    sccs = [frozenset(scc) for scc in nx.strongly_connected_components(oracle)]
    found = graph.strongly_connected_components(adj)
    assert sorted(map(sorted, found)) == sorted(map(sorted, sccs))
    assert {frozenset(scc) for scc in graph.cyclic_components(adj)} == {
        scc for scc in sccs if any(set(cycle) <= scc for cycle in every_cycle)
    }

    assert sorted(map(tuple, graph.bounded_cycles(adj, bound))) == sorted(
        canonical(cycle, directed=True)
        for cycle in nx.simple_cycles(oracle, length_bound=bound)
    )

    shortest = graph.shortest_cycle(adj)
    if not every_cycle:
        assert shortest is None
    else:
        assert len(shortest) == min(map(len, every_cycle))
        closed = shortest + shortest[:1]
        assert all(oracle.has_edge(u, v) for u, v in zip(closed, closed[1:]))


def test_shortest_cycle_search_stops_by_depth_not_by_nodes_seen():
    """From 1, BFS sees 2 and 3 at depth 1; the 2-cycle 1-2 closes at
    depth 2 and must not be cut off by the 3-cycle 0-1-2 found first."""
    adj = {0: {1}, 1: {2, 3}, 2: {0, 1}, 3: {0}}
    assert sorted(graph.shortest_cycle(adj)) == [1, 2]


def test_self_loop_is_a_cyclic_component():
    adj = {0: {0, 1}, 1: set()}
    assert graph.cyclic_components(adj) == [[0]]
    assert graph.shortest_cycle(adj) == [0]
    assert graph.bounded_cycles(adj, 3) == [[0]]


def test_simple_cycles_ignore_the_bounded_cycles_limit():
    # K_8 has 8,018 cycles, so its directed stream (both directions plus
    # each edge's 2-cycle) passes bounded_cycles' default limit of 10,000.
    topo = full_mesh(8)
    assert len(graph.bounded_cycles(graph.topology_adjacency(topo), 8)) == 10_000
    assert len(graph.simple_cycles(topo, 8)) == 8_018 == len(
        list(nx.simple_cycles(to_networkx(topo), length_bound=8))
    )

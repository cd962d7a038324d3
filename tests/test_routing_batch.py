"""One pass per topology: batch builders against the single-pair oracle.

``build_minimal_tables`` / ``build_updown_tables`` derive every route of a
topology from one adjacency snapshot; ``minimal_routes`` and
``updown_route`` answer one pair at a time by walking the topology and
are the reference.  The tables must agree in keys, key order and route
lists, on every generator, under link and router faults, connected or
not.  The second half pins the per-topology memo: what it shares, when it
rebuilds, and how large it may grow.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.routing.table as table_module
from repro.protocols import make_scheme
from repro.routing.paths import active_adjacency, bfs_distances, minimal_routes
from repro.routing.spanning_tree import (
    SpanningTree,
    build_spanning_trees,
    choose_root,
    tree_next_hop_tables,
    updown_route,
)
from repro.routing.table import (
    build_minimal_tables,
    build_updown_tables,
    clear_table_cache,
    escape_next_hop_tables,
)
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults, inject_router_faults
from repro.topology.generators import circulant, full_mesh, mesh3d, torus3d
from repro.topology.graph import connected_components
from repro.topology.mesh import mesh

GENERATORS = {
    "mesh": lambda: mesh(5, 4),
    "mesh3d": lambda: mesh3d(3, 3, 2),
    "torus3d": lambda: torus3d(3, 3, 3),
    "circulant": lambda: circulant(16, 1, 5),
    "fullmesh": lambda: full_mesh(7),
}


def faulted(name, link_faults, router_faults, seed):
    rng = random.Random(seed)
    topo = inject_link_faults(GENERATORS[name](), link_faults, rng)
    return inject_router_faults(topo, router_faults, rng)


def split_mesh():
    """Two components (3 and 5 nodes) and an isolated corner."""
    topo = mesh(4, 3)
    for node in (1, 5, 9):
        topo.deactivate_node(node)
    topo.deactivate_link(2, 3)
    topo.deactivate_link(3, 7)
    return topo


# -- the oracle: one pair, or one topology walk, at a time -----------------


def dumped(tables):
    """Each source's ``(destination, routes)`` pairs through the public API."""
    return {
        src: [(dst, list(table.routes(dst))) for dst in table.destinations()]
        for src, table in tables.items()
    }


def oracle_minimal(topo, max_paths):
    expected = {node: {} for node in topo.active_nodes()}
    for dst in topo.active_nodes():
        dist = bfs_distances(topo, dst)
        for src in dist:
            if src != dst:
                expected[src][dst] = minimal_routes(topo, src, dst, max_paths, dist)
    return {src: list(routes.items()) for src, routes in expected.items()}


def oracle_updown(topo, trees):
    expected = {node: {} for node in topo.active_nodes()}
    for tree in trees:
        members = sorted(tree.nodes())
        for src in members:
            for dst in members:
                if src != dst:
                    expected[src][dst] = [updown_route(topo, tree, src, dst)]
    return {src: list(routes.items()) for src, routes in expected.items()}


def walked_distances(topo, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for _, neighbor in topo.active_neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def walked_root(topo, component):
    def cost(node):
        dist = walked_distances(topo, node)
        return sum(dist[member] for member in component)

    return min(sorted(component), key=cost)


def walked_tree(topo, root):
    """(parent, depth, children) of the BFS tree, lowest neighbor id first."""
    parent, depth, children = {root: None}, {root: 0}, {root: []}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for _, neighbor in sorted(topo.active_neighbors(node), key=lambda p: p[1]):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                parent[neighbor] = node
                children[node].append(neighbor)
                children[neighbor] = []
                queue.append(neighbor)
    return parent, depth, children


def assert_batch_equals_oracle(topo, max_paths):
    clear_table_cache()
    assert dumped(build_minimal_tables(topo, max_paths)) == oracle_minimal(topo, max_paths)

    adjacency = active_adjacency(topo)
    components = connected_components(topo)
    trees = build_spanning_trees(topo, adjacency)
    assert [tree.root for tree in trees] == [walked_root(topo, c) for c in components]
    for tree, component in zip(trees, components):
        assert choose_root(topo, component) == tree.root
        for built in (tree, SpanningTree(topo, tree.root)):
            parent, depth, children = walked_tree(topo, tree.root)
            assert list(built.depth.items()) == list(depth.items())
            assert built.parent == parent and built.children == children
        for hops in (
            tree_next_hop_tables(topo, tree, adjacency),
            tree_next_hop_tables(topo, tree),
        ):
            order = list(tree.nodes())
            assert list(hops) == order
            for node, row in hops.items():
                assert list(row) == order
                for dst, port in row.items():
                    if dst == node:
                        assert port == topo.local_port
                    else:
                        step = tree.tree_path(node, dst)[1]
                        assert port == topo.port_between(node, step)

    expected = oracle_updown(topo, trees)
    assert dumped(build_updown_tables(topo)) == expected
    assert dumped(build_updown_tables(topo, trees=trees)) == expected


SEEDED_CASES = [
    (name, link_faults, router_faults)
    for name in GENERATORS
    for link_faults, router_faults in ((0, 0), (4, 0), (0, 2), (6, 3))
]


@pytest.mark.parametrize("name,link_faults,router_faults", SEEDED_CASES)
@pytest.mark.parametrize("max_paths", [1, 2, 4])
def test_batch_builders_equal_single_pair_oracle(
    name, link_faults, router_faults, max_paths
):
    topo = faulted(name, link_faults, router_faults, seed=link_faults + 10 * max_paths)
    assert_batch_equals_oracle(topo, max_paths)


@pytest.mark.parametrize("max_paths", [1, 2, 4])
def test_batch_builders_on_a_disconnected_topology(max_paths):
    topo = split_mesh()
    assert sorted(len(c) for c in connected_components(topo)) == [1, 3, 5]
    assert_batch_equals_oracle(topo, max_paths)
    tables = build_minimal_tables(topo, max_paths)
    assert tables[3].destinations() == []
    assert not tables[0].has_route(2)


def test_batch_builders_on_the_benchmark_mesh():
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(5))
    assert_batch_equals_oracle(topo, 4)


@given(
    name=st.sampled_from(sorted(GENERATORS)),
    link_faults=st.integers(min_value=0, max_value=10),
    router_faults=st.integers(min_value=0, max_value=4),
    max_paths=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=30, deadline=None)
def test_batch_builders_equal_oracle_property(
    name, link_faults, router_faults, max_paths, seed
):
    assert_batch_equals_oracle(faulted(name, link_faults, router_faults, seed), max_paths)


# -- the per-topology memo -------------------------------------------------


class CountedCalls:
    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def test_one_snapshot_serves_every_derivation_of_a_topology(monkeypatch):
    topo = inject_link_faults(mesh(6, 6), 5, random.Random(3))
    walks = CountedCalls(monkeypatch, topo, "active_neighbors")
    config = SimConfig(width=6, height=6)
    clear_table_cache()
    make_scheme("escape-vc").build_tables(topo, config)
    make_scheme("spanning-tree").build_tables(topo, config)
    assert walks.calls == len(topo.active_nodes())


def test_escape_vc_cell_on_a_warm_topology_derives_nothing(monkeypatch):
    topo = inject_link_faults(mesh(6, 6), 5, random.Random(3))
    config = SimConfig(width=6, height=6)
    trees = CountedCalls(monkeypatch, table_module, "build_spanning_trees")
    hops = CountedCalls(monkeypatch, table_module, "tree_next_hop_tables")
    clear_table_cache()
    first = Network(topo, config, make_scheme("escape-vc"), None, seed=1)
    assert (trees.calls, hops.calls) == (1, 1)
    second = Network(topo.copy(), config, make_scheme("escape-vc"), None, seed=2)
    assert (trees.calls, hops.calls) == (1, 1)
    assert second.scheme.escape_tables is first.scheme.escape_tables


def test_live_reconfig_takes_the_post_fault_topologys_entry():
    config = SimConfig(width=6, height=6)
    clear_table_cache()
    topo = mesh(6, 6)
    healthy = escape_next_hop_tables(topo)
    frozen = {node: dict(row) for node, row in healthy.items()}
    net = Network(topo, config, make_scheme("escape-vc"), None, seed=1)
    assert net.scheme.escape_tables is healthy
    net.apply_faults(links=((2, 3),), routers=(14,))

    rebuilt = mesh(6, 6)
    rebuilt.deactivate_node(14)
    rebuilt.deactivate_link(2, 3)
    fresh = make_scheme("escape-vc")
    fresh.build_tables(rebuilt, config)
    assert net.scheme.escape_tables is fresh.escape_tables  # one entry, keyed on the spec
    assert 14 not in fresh.escape_tables
    trees = build_spanning_trees(rebuilt)
    assert fresh.escape_tables == tree_next_hop_tables(rebuilt, trees[0])
    # The healthy topology's shared entry is as it was.
    assert escape_next_hop_tables(mesh(6, 6)) is healthy and healthy == frozen


def test_memo_is_bounded_and_round_robin_inside_the_bound_is_all_hits(monkeypatch):
    bound = table_module._MEMO_MAX
    assert bound == 8
    topos = [
        inject_link_faults(mesh(4, 4), 2, random.Random(seed)) for seed in range(bound + 3)
    ]
    assert len({str(t.to_spec()) for t in topos}) == len(topos)
    clear_table_cache()
    for topo in topos:
        build_minimal_tables(topo)
        assert len(table_module._memo) <= bound
    assert len(table_module._memo) == bound

    clear_table_cache()
    snapshots = CountedCalls(monkeypatch, table_module, "active_adjacency")
    for _ in range(3):  # the sim-* workloads' access pattern
        for topo in topos[:bound]:
            build_minimal_tables(topo)
            build_updown_tables(topo)
    assert snapshots.calls == bound
    build_minimal_tables(topos[bound])  # a ninth topology evicts the oldest
    build_minimal_tables(topos[0])
    assert snapshots.calls == bound + 2

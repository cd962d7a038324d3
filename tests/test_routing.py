"""Tests for minimal paths, XY routing and routing tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.turns import Port
from repro.routing.paths import (
    bfs_distances,
    minimal_node_paths,
    minimal_routes,
    node_path_to_route,
    route_is_valid,
    route_node_sequence,
)
from repro.routing.table import (
    RoutingTable,
    build_minimal_tables,
    build_updown_tables,
    cached_spanning_trees,
    clear_table_cache,
    escape_next_hop_tables,
)
from repro.routing.xy import xy_route, xy_route_is_usable
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh


class TestBfs:
    def test_distances_on_full_mesh_are_manhattan(self):
        topo = mesh(5, 5)
        dist = bfs_distances(topo, topo.node_id(2, 2))
        for node in topo.all_nodes():
            x, y = topo.coords(node)
            assert dist[node] == abs(x - 2) + abs(y - 2)

    def test_unreachable_excluded(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        topo.deactivate_link(0, 2)
        dist = bfs_distances(topo, 3)
        assert 0 not in dist

    def test_inactive_source(self):
        topo = mesh(2, 2)
        topo.deactivate_node(0)
        assert bfs_distances(topo, 0) == {}


class TestMinimalPaths:
    def test_path_count_cap(self):
        topo = mesh(4, 4)
        paths = minimal_node_paths(topo, 0, 15, max_paths=3)
        assert len(paths) == 3

    def test_paths_are_shortest(self):
        topo = mesh(4, 4)
        for path in minimal_node_paths(topo, 0, 15, max_paths=8):
            assert len(path) == 7  # 6 hops + endpoints

    def test_src_equals_dst(self):
        topo = mesh(4, 4)
        assert minimal_node_paths(topo, 5, 5) == [[5]]

    def test_unreachable_gives_empty(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        topo.deactivate_link(0, 2)
        assert minimal_node_paths(topo, 0, 3) == []

    def test_paths_avoid_faulty_links(self):
        topo = mesh(4, 4)
        topo.deactivate_link(0, 1)
        for path in minimal_node_paths(topo, 0, 3, max_paths=8):
            for u, v in zip(path, path[1:]):
                assert topo.link_is_active(u, v)

    def test_route_conversion_roundtrip(self):
        topo = mesh(4, 4)
        path = minimal_node_paths(topo, 0, 15, max_paths=1)[0]
        route = node_path_to_route(topo, path)
        assert route[-1] == Port.LOCAL
        assert route_node_sequence(topo, 0, route) == path

    def test_route_is_valid(self):
        topo = mesh(4, 4)
        for route in minimal_routes(topo, 0, 15, max_paths=4):
            assert route_is_valid(topo, 0, 15, route)

    def test_route_is_valid_rejects_bad(self):
        topo = mesh(4, 4)
        assert not route_is_valid(topo, 0, 15, (Port.EAST, Port.LOCAL))
        assert not route_is_valid(topo, 0, 15, ())
        assert not route_is_valid(topo, 0, 1, (Port.EAST,))  # no LOCAL tail


class TestXY:
    def test_xy_route_shape(self):
        topo = mesh(4, 4)
        route = xy_route(topo, 0, topo.node_id(2, 3))
        assert route == bytes((
            Port.EAST, Port.EAST, Port.NORTH, Port.NORTH, Port.NORTH, Port.LOCAL
        ))

    def test_xy_usable_on_healthy_mesh(self):
        topo = mesh(4, 4)
        assert xy_route_is_usable(topo, 0, 15)

    def test_xy_breaks_on_faults(self):
        """The paper's motivation: XY cannot route around faults."""
        topo = mesh(4, 4)
        topo.deactivate_link(0, 1)
        assert not xy_route_is_usable(topo, 0, 3)
        # ...even though a healthy path exists:
        assert minimal_node_paths(topo, 0, 3)  # via row 1

    def test_xy_to_self(self):
        topo = mesh(4, 4)
        assert xy_route(topo, 5, 5) == bytes((Port.LOCAL,))


class TestRoutingTable:
    def test_pick_route_uniform(self):
        table = RoutingTable(0)
        table.add_route(1, (Port.EAST, Port.LOCAL))
        table.add_route(1, (Port.NORTH, Port.EAST, Port.SOUTH, Port.LOCAL))
        rng = random.Random(7)
        seen = {table.pick_route(1, rng) for _ in range(50)}
        assert len(seen) == 2

    def test_pick_route_missing(self):
        table = RoutingTable(0)
        assert table.pick_route(9, random.Random(1)) is None

    def test_build_minimal_tables_cover_component(self):
        topo = mesh(4, 4)
        tables = build_minimal_tables(topo)
        assert set(tables) == set(topo.all_nodes())
        for src in topo.all_nodes():
            for dst in topo.all_nodes():
                if src != dst:
                    assert tables[src].has_route(dst)

    def test_tables_respect_partitions(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        topo.deactivate_link(0, 2)
        tables = build_minimal_tables(topo)
        assert not tables[0].has_route(3)
        assert tables[3].has_route(1)


class TestTableCache:
    """Fingerprint-keyed memoization of table construction."""

    def test_cache_hit_shares_routes_not_dict(self):
        clear_table_cache()
        topo = inject_link_faults(mesh(6, 6), 5, random.Random(2))
        first = build_minimal_tables(topo)
        second = build_minimal_tables(topo)
        assert first is not second  # callers own their mapping
        src = next(iter(first))
        dst = first[src].destinations()[0]
        assert first[src].routes(dst)[0] is second[src].routes(dst)[0]

    def test_topology_mutation_changes_key(self):
        clear_table_cache()
        topo = mesh(3, 3)
        before = build_minimal_tables(topo)
        topo.deactivate_link(0, 1)
        after = build_minimal_tables(topo)
        # Route sets genuinely differ: 0->1 lost its one-hop route.
        assert len(before[0].routes(1)) != len(after[0].routes(1)) or (
            before[0].routes(1)[0] is not after[0].routes(1)[0]
        )

    def test_clear_drops_tables_trees_and_escape_together(self):
        clear_table_cache()
        topo = mesh(3, 3)

        def derive():
            return (
                build_minimal_tables(topo)[0].routes(1)[0],
                build_updown_tables(topo)[0].routes(1)[0],
                cached_spanning_trees(topo)[0],
                escape_next_hop_tables(topo),
            )

        first, warm = derive(), derive()
        assert all(a is b for a, b in zip(first, warm))
        clear_table_cache()
        assert not any(a is b for a, b in zip(first, derive()))

    def test_updown_custom_trees_bypass_cache(self):
        clear_table_cache()
        topo = mesh(3, 3)
        cached = build_updown_tables(topo)
        cached2 = build_updown_tables(topo)
        src = next(iter(cached))
        dst = cached[src].destinations()[0]
        assert cached[src].routes(dst)[0] is cached2[src].routes(dst)[0]
        from repro.routing.spanning_tree import build_spanning_trees

        fresh = build_updown_tables(topo, trees=build_spanning_trees(topo))
        assert fresh[src].routes(dst)[0] is not cached[src].routes(dst)[0]


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    faults=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=25, deadline=None)
def test_minimal_routes_always_valid_under_faults(seed, faults):
    """Property: every generated minimal route is walkable and ends right."""
    topo = inject_link_faults(mesh(5, 5), faults, random.Random(seed))
    rng = random.Random(seed + 1)
    nodes = topo.active_nodes()
    for _ in range(5):
        src, dst = rng.sample(nodes, 2)
        for route in minimal_routes(topo, src, dst, max_paths=3):
            assert route_is_valid(topo, src, dst, route)

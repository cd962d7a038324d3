"""Routing: minimal paths, XY, spanning-tree up*/down*, and NI tables."""

from repro.routing.paths import (
    Route,
    bfs_distances,
    minimal_node_paths,
    minimal_routes,
    node_path_to_route,
    route_is_valid,
    route_node_sequence,
)
from repro.routing.xy import xy_route, xy_route_is_usable
from repro.routing.spanning_tree import (
    SpanningTree,
    build_spanning_trees,
    choose_root,
    tree_next_hop_tables,
    updown_route,
)
from repro.routing.table import (
    RoutingTable,
    build_minimal_tables,
    build_updown_tables,
    clear_table_cache,
)

__all__ = [
    "Route",
    "bfs_distances",
    "minimal_node_paths",
    "minimal_routes",
    "node_path_to_route",
    "route_is_valid",
    "route_node_sequence",
    "xy_route",
    "xy_route_is_usable",
    "SpanningTree",
    "build_spanning_trees",
    "choose_root",
    "tree_next_hop_tables",
    "updown_route",
    "RoutingTable",
    "build_minimal_tables",
    "build_updown_tables",
    "clear_table_cache",
]

"""Topologies (mesh and beyond), fault models, and graph analysis."""

from repro.topology.base import (
    BaseTopology,
    register_topology,
    topology_from_spec,
    topology_kinds,
)
from repro.topology.mesh import Topology, mesh
from repro.topology.generators import (
    GraphTopology,
    Grid3D,
    circulant,
    full_mesh,
    mesh3d,
    parse_topology,
    torus3d,
)
from repro.topology.faults import (
    default_memory_controllers,
    inject_link_faults,
    inject_router_faults,
    sample_topologies,
)
from repro.topology.graph import (
    connected_components,
    has_cycle,
    is_connected,
    largest_component,
    nodes_reachable_from,
    simple_cycles,
)

__all__ = [
    "BaseTopology",
    "GraphTopology",
    "Grid3D",
    "Topology",
    "mesh",
    "mesh3d",
    "torus3d",
    "circulant",
    "full_mesh",
    "parse_topology",
    "register_topology",
    "topology_from_spec",
    "topology_kinds",
    "default_memory_controllers",
    "inject_link_faults",
    "inject_router_faults",
    "sample_topologies",
    "connected_components",
    "has_cycle",
    "is_connected",
    "largest_component",
    "nodes_reachable_from",
    "simple_cycles",
]

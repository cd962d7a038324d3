"""Tests for topology graph analysis and fault injection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.faults import (
    default_memory_controllers,
    inject_link_faults,
    inject_router_faults,
    sample_topologies,
)
from repro.topology.graph import (
    connected_components,
    cycle_count_upper_bound,
    has_cycle,
    is_connected,
    largest_component,
    nodes_reachable_from,
    simple_cycles,
    topology_adjacency,
)
from repro.topology.mesh import mesh


class TestGraphAnalysis:
    def test_full_mesh_connected_and_cyclic(self):
        topo = mesh(4, 4)
        assert is_connected(topo)
        assert has_cycle(topo)

    def test_1xn_mesh_is_a_tree(self):
        topo = mesh(1, 6)
        assert is_connected(topo)
        assert not has_cycle(topo)
        assert cycle_count_upper_bound(topo) == 0

    def test_cycle_space_size_full_mesh(self):
        # (edges - nodes + components) for an n x n mesh = (n-1)^2
        topo = mesh(5, 5)
        assert cycle_count_upper_bound(topo) == 16

    def test_partition_detection(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        topo.deactivate_link(2, 3)
        comps = connected_components(topo)
        assert comps == [{0, 2}, {1, 3}]  # equal sizes: lowest node first
        assert not is_connected(topo)
        assert not has_cycle(topo)

    def test_largest_component(self):
        topo = mesh(3, 3)
        topo.deactivate_node(1)
        topo.deactivate_node(3)  # isolates node 0
        largest = largest_component(topo)
        assert 0 not in largest
        assert largest == {2, 4, 5, 6, 7, 8}

    def test_reachability(self):
        topo = mesh(3, 3)
        topo.deactivate_node(1)
        topo.deactivate_node(3)
        assert nodes_reachable_from(topo, 0) == {0}
        assert len(nodes_reachable_from(topo, 8)) == 6

    def test_simple_cycles_square(self):
        topo = mesh(2, 2)
        cycles = simple_cycles(topo, length_bound=4)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [0, 1, 2, 3]

    def test_adjacency_counts(self):
        adj = topology_adjacency(mesh(4, 4))
        assert len(adj) == 16
        assert sum(len(succs) for succs in adj.values()) == 2 * 24
        assert cycle_count_upper_bound(mesh(4, 4)) == 24 - 16 + 1


class TestFaultInjection:
    def test_link_fault_count(self, rng):
        topo = inject_link_faults(mesh(8, 8), 10, rng)
        assert topo.num_faulty_links() == 10

    def test_router_fault_count(self, rng):
        topo = inject_router_faults(mesh(8, 8), 7, rng)
        assert topo.num_faulty_nodes() == 7

    def test_too_many_faults_rejected(self, rng):
        with pytest.raises(ValueError):
            inject_link_faults(mesh(2, 2), 5, rng)
        with pytest.raises(ValueError):
            inject_router_faults(mesh(2, 2), 5, rng)

    def test_original_untouched(self, rng):
        base = mesh(4, 4)
        inject_link_faults(base, 5, rng)
        assert base.num_faulty_links() == 0

    def test_deterministic_given_seed(self):
        a = inject_link_faults(mesh(8, 8), 12, random.Random(99))
        b = inject_link_faults(mesh(8, 8), 12, random.Random(99))
        assert a.active_links() == b.active_links()


class TestSampling:
    def test_sample_count_and_faults(self):
        topos = [t for _, t in sample_topologies(8, 8, "link", 6, 5, seed=1)]
        assert len(topos) == 5
        assert all(t.num_faulty_links() == 6 for t in topos)

    def test_samples_differ(self):
        topos = [t for _, t in sample_topologies(8, 8, "link", 6, 5, seed=1)]
        signatures = {tuple(sorted(map(tuple, t.active_links()))) for t in topos}
        assert len(signatures) > 1

    def test_mc_requirement_respected(self):
        mcs = default_memory_controllers(8, 8)
        topos = list(
            sample_topologies(
                8, 8, "router", 10, 5, seed=2, require_memory_controllers=mcs
            )
        )
        for _, topo in topos:
            component = largest_component(topo)
            assert all(mc in component for mc in mcs)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            list(sample_topologies(8, 8, "blah", 1, 1, seed=0))

    def test_default_memory_controllers_are_corners(self):
        mcs = default_memory_controllers(8, 8)
        assert sorted(mcs) == [0, 7, 56, 63]

    def test_default_memory_controllers_on_healthy_topo_stay_corners(self):
        mcs = default_memory_controllers(8, 8, mesh(8, 8))
        assert sorted(mcs) == [0, 7, 56, 63]

    def test_default_memory_controllers_relocate_off_dead_corners(self):
        # The bug: MCs used to be corner ids of a fresh healthy mesh,
        # so a corner-faulted topology got an MC on a dead router.
        topo = mesh(8, 8)
        topo.deactivate_node(0)  # corner (0,0)
        topo.deactivate_node(63)  # corner (7,7)
        mcs = default_memory_controllers(8, 8, topo)
        assert len(set(mcs)) == 4
        assert all(topo.node_is_active(n) for n in mcs)
        # (0,0) relocates to the nearest active node, ties to the lower
        # id: (1,0) = 1 beats (0,1) = 8 at Manhattan distance 1.
        assert mcs[0] == 1
        # Healthy corners stay put.
        assert mcs[1] == 7 and mcs[2] == 56
        # (7,7) -> (7,6) = 55 beats (6,7) = 62.
        assert mcs[3] == 55

    def test_default_memory_controllers_never_collide(self):
        # Dead corner whose nearest neighbors are other corners' homes.
        topo = mesh(3, 3)
        topo.deactivate_node(8)  # corner (2,2)
        mcs = default_memory_controllers(3, 3, topo)
        assert len(set(mcs)) == 4
        assert all(topo.node_is_active(n) for n in mcs)
        assert mcs[:3] == [0, 2, 6]
        assert mcs[3] == 5  # (2,1) beats (1,2) = 7 on id tie-break

    def test_default_memory_controllers_require_enough_routers(self):
        topo = mesh(2, 2)
        topo.deactivate_node(3)
        with pytest.raises(ValueError):
            default_memory_controllers(2, 2, topo)


@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    faults=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_fault_injection_never_creates_links(seed, faults):
    base = mesh(6, 6)
    topo = inject_link_faults(base, faults, random.Random(seed))
    base_links = set(map(frozenset, base.active_links()))
    for link in topo.active_links():
        assert frozenset(link) in base_links

"""Tests for the mesh/irregular topology substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.turns import Port
from repro.topology.mesh import Topology, mesh


class TestConstruction:
    def test_dimensions(self):
        topo = mesh(8, 4)
        assert topo.num_nodes == 32
        assert len(list(topo.all_links())) == 7 * 4 + 8 * 3  # E-W + N-S links

    def test_8x8_link_count(self):
        assert len(list(mesh(8, 8).all_links())) == 112  # 2 * 8 * 7

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Topology(0, 5)

    def test_node_id_coords_roundtrip(self):
        topo = mesh(5, 7)
        for node in topo.all_nodes():
            x, y = topo.coords(node)
            assert topo.node_id(x, y) == node

    def test_coords_out_of_range(self):
        topo = mesh(4, 4)
        with pytest.raises(ValueError):
            topo.node_id(4, 0)
        with pytest.raises(ValueError):
            topo.coords(16)

    def test_coords_rejects_negative_and_wrapping_ids(self):
        # Regression: without the bounds check, Python's modular
        # arithmetic would silently wrap -1 to (width-1, -1) and alias
        # node_id(-1, 1) onto a real node instead of raising.
        topo = mesh(5, 3)
        for bad in (-1, topo.num_nodes, topo.num_nodes + 5):
            with pytest.raises(ValueError):
                topo.coords(bad)
        for x, y in ((-1, 0), (0, -1), (5, 0), (0, 3), (-1, 1)):
            with pytest.raises(ValueError):
                topo.node_id(x, y)


class TestAdjacency:
    def test_neighbor_directions(self):
        topo = mesh(4, 4)
        node = topo.node_id(1, 1)
        assert topo.neighbor(node, Port.EAST) == topo.node_id(2, 1)
        assert topo.neighbor(node, Port.NORTH) == topo.node_id(1, 2)
        assert topo.neighbor(node, Port.WEST) == topo.node_id(0, 1)
        assert topo.neighbor(node, Port.SOUTH) == topo.node_id(1, 0)

    def test_edge_nodes_have_no_outside_neighbors(self):
        topo = mesh(4, 4)
        assert topo.neighbor(topo.node_id(0, 0), Port.WEST) is None
        assert topo.neighbor(topo.node_id(3, 3), Port.NORTH) is None

    def test_corner_has_two_active_neighbors(self):
        topo = mesh(4, 4)
        assert len(topo.active_neighbors(0)) == 2

    def test_interior_has_four(self):
        topo = mesh(4, 4)
        assert len(topo.active_neighbors(topo.node_id(1, 1))) == 4

    def test_port_between(self):
        topo = mesh(4, 4)
        assert topo.port_between(0, 1) == Port.EAST
        assert topo.port_between(1, 0) == Port.WEST
        assert topo.port_between(0, 4) == Port.NORTH

    def test_port_between_nonadjacent(self):
        topo = mesh(4, 4)
        with pytest.raises(ValueError):
            topo.port_between(0, 2)


class TestDeactivation:
    def test_link_deactivation(self):
        topo = mesh(4, 4)
        topo.deactivate_link(0, 1)
        assert not topo.link_is_active(0, 1)
        assert not topo.link_is_active(1, 0)
        assert topo.num_faulty_links() == 1
        assert (Port.EAST, 1) not in topo.active_neighbors(0)

    def test_link_reactivation(self):
        topo = mesh(4, 4)
        topo.deactivate_link(0, 1)
        topo.activate_link(0, 1)
        assert topo.link_is_active(0, 1)

    def test_node_deactivation_kills_its_links(self):
        topo = mesh(4, 4)
        topo.deactivate_node(5)
        assert not topo.link_is_active(5, 6)
        assert topo.active_neighbors(5) == []
        for _, n in topo.active_neighbors(1):
            assert n != 5

    def test_active_links_exclude_dead_endpoints(self):
        topo = mesh(4, 4)
        before = len(topo.active_links())
        topo.deactivate_node(5)  # interior node: 4 links vanish
        assert len(topo.active_links()) == before - 4

    def test_deactivate_missing_link(self):
        topo = mesh(4, 4)
        with pytest.raises(ValueError):
            topo.deactivate_link(0, 5)

    def test_copy_is_independent(self):
        topo = mesh(4, 4)
        clone = topo.copy()
        clone.deactivate_node(0)
        assert topo.node_is_active(0)
        assert not clone.node_is_active(0)


@given(
    width=st.integers(min_value=1, max_value=10),
    height=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=30)
def test_link_count_formula(width, height):
    topo = mesh(width, height)
    expected = (width - 1) * height + width * (height - 1)
    assert len(list(topo.all_links())) == expected


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_neighbors_symmetric(n, seed):
    """u in neighbors(v) iff v in neighbors(u), under random faults."""
    topo = mesh(n, n)
    rng = random.Random(seed)
    for link in rng.sample(list(topo.all_links()), k=min(5, topo.num_nodes)):
        u, v = tuple(link)
        topo.deactivate_link(u, v)
    for node in topo.all_nodes():
        for _, other in topo.active_neighbors(node):
            assert node in [m for _, m in topo.active_neighbors(other)]


def test_networkx_is_imported_on_first_use():
    """networkx is a test-only oracle: ``import repro.cli``, the Fig. 2
    graph method, sampling topologies whose memory controllers stay
    connected (Figs. 12/13), and building a trace and a closed-loop
    workload over one of them never import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import contextlib, io, sys\n"
        "import repro.cli, repro.service.fabric, repro.surrogate\n"
        "from repro.experiments.common import fault_samples\n"
        "from repro.experiments.fig12_rodinia import Fig12Params\n"
        "from repro.topology.faults import default_memory_controllers\n"
        "from repro.traffic.workloads import parsec_closed_loop, rodinia_trace\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert repro.cli.main(['experiment', 'fig2', '--json']) == 0\n"
        "assert 'router_series' in out.getvalue(), out.getvalue()[:200]\n"
        "params = Fig12Params.quick()\n"
        "mcs = default_memory_controllers(params.width, params.height)\n"
        "samples = list(fault_samples(params, require_mcs=mcs))\n"
        "topo = samples[-1][2][0].build_topology()\n"
        "assert topo.num_faulty_nodes() == params.router_fault_counts[-1]\n"
        "mcs = default_memory_controllers(params.width, params.height, topo)\n"
        "assert rodinia_trace('bplus', topo, mcs, duration=50).total_flits() > 0\n"
        "assert parsec_closed_loop('blackscholes', topo, mcs).cores\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

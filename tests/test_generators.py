"""Tests for the non-mesh topology generators and their certificates.

Covers the graph interface's contract (per-edge arrival ports, spec
round-trips, strict ``from_spec`` validation), minimal-routing properties
on every generator, and the transfer of the static-bubble cycle-cover
certificate off the 2D mesh — including survival under a random fault.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.paths import (
    bfs_distances,
    minimal_routes,
    route_is_valid,
    route_node_sequence,
)
from repro.sim.config import SimConfig
from repro.topology.base import topology_from_spec, topology_kinds
from repro.topology.generators import (
    circulant,
    full_mesh,
    mesh3d,
    parse_topology,
    torus3d,
)
from repro.topology.mesh import mesh
from repro.protocols.static_bubble import StaticBubbleScheme


def _generators():
    return [
        ("mesh3d", lambda: mesh3d(3, 3, 3)),
        ("torus3d", lambda: torus3d(3, 3, 3)),
        ("circulant", lambda: circulant(11, 2, 5)),
        ("full_mesh", lambda: full_mesh(6)),
    ]


GENERATORS = _generators()
GEN_IDS = [name for name, _ in GENERATORS]


# -- graph-interface contract ----------------------------------------------


@pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
class TestGraphContract:
    def test_links_bidirectional_and_arrival_ports_consistent(self, name, build):
        topo = build()
        for node in topo.all_nodes():
            for port, neighbor in topo.active_neighbors(node):
                back = topo.arrival_port(node, port)
                assert topo.neighbor(neighbor, back) == node
                assert topo.port_between(node, neighbor) == port

    def test_local_port_is_radix(self, name, build):
        topo = build()
        assert topo.local_port == topo.radix
        assert topo.num_ports == topo.radix + 1
        assert topo.port_name(topo.local_port) == "LOCAL"

    def test_registered_kind(self, name, build):
        assert name in topology_kinds()


def test_full_mesh_opposite_ports_are_per_edge():
    # K_n's neighbor-rank numbering means arrival ports genuinely depend
    # on both endpoints — the case a global OPPOSITE table cannot cover.
    topo = full_mesh(6)
    seen = set()
    for node in topo.all_nodes():
        for port, _ in topo.active_neighbors(node):
            seen.add((port, topo.arrival_port(node, port)))
    assert len({b for _, b in seen}) > 1  # not a function of the out port


# -- spec round-trips ------------------------------------------------------


@pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
def test_spec_roundtrip_healthy(name, build):
    topo = build()
    clone = topology_from_spec(topo.to_spec())
    assert clone.to_spec() == topo.to_spec()
    assert clone.num_nodes == topo.num_nodes
    assert clone.radix == topo.radix
    for node in topo.all_nodes():
        for port in range(topo.radix):
            assert clone.neighbor(node, port) == topo.neighbor(node, port)


@pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
def test_spec_roundtrip_with_faults(name, build):
    topo = build()
    rng = random.Random(7)
    topo.deactivate_node(rng.randrange(topo.num_nodes))
    u, v = sorted(rng.choice(sorted(tuple(l) for l in topo.all_links())))
    topo.deactivate_link(u, v)
    clone = topology_from_spec(topo.to_spec())
    assert clone.to_spec() == topo.to_spec()
    assert sorted(clone.active_nodes()) == sorted(topo.active_nodes())
    assert sorted(map(sorted, clone.active_links())) == sorted(
        map(sorted, topo.active_links())
    )


def test_mesh_spec_roundtrip_matches_legacy():
    topo = mesh(4, 4)
    topo.deactivate_node(5)
    clone = topology_from_spec(topo.to_spec())
    assert clone.to_spec() == topo.to_spec()
    # Legacy blobs predate the ``kind`` tag and must still parse.
    legacy = {k: v for k, v in topo.to_spec().items() if k != "kind"}
    assert topology_from_spec(legacy).to_spec() == topo.to_spec()


class TestSpecRejection:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            topology_from_spec({"kind": "hypercube", "n": 8})

    def test_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            topology_from_spec("mesh:8x8")

    @pytest.mark.parametrize(
        "spec,missing",
        [
            ({"kind": "mesh3d", "x": 3, "y": 3}, "z"),
            ({"kind": "circulant", "n": 11, "s1": 2}, "s2"),
            ({"kind": "full_mesh"}, "n"),
            ({"kind": "mesh", "width": 8}, "height"),
        ],
    )
    def test_missing_fields(self, spec, missing):
        with pytest.raises(ValueError, match=missing):
            topology_from_spec(spec)

    @pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
    def test_unrecognized_fields(self, name, build):
        spec = build().to_spec()
        spec["futuristic_knob"] = 1
        with pytest.raises(ValueError, match="futuristic_knob"):
            topology_from_spec(spec)

    def test_wrong_kind_for_builder(self):
        spec = mesh3d(3, 3, 3).to_spec()
        spec["kind"] = "torus3d"  # valid kind, wrong shape (3x3x3 is fine)
        # torus3d accepts the same fields, so this parses — but swapping
        # in a kind with different fields must fail loudly.
        spec2 = circulant(11, 2, 5).to_spec()
        spec2["kind"] = "full_mesh"
        with pytest.raises(ValueError):
            topology_from_spec(spec2)


class TestParseTopology:
    @pytest.mark.parametrize(
        "text,described",
        [
            ("8x8", "8x8 mesh"),
            ("mesh:4x6", "4x6 mesh"),
            ("mesh3d:3x3x3", "3x3x3 mesh"),
            ("torus3d:3x3x3", "3x3x3 torus"),
            ("circulant:11,2,5", "circulant(n=11,s1=2,s2=5)"),
            ("fullmesh:6", "full_mesh(n=6)"),
            ("full_mesh:6", "full_mesh(n=6)"),
        ],
    )
    def test_accepted_forms(self, text, described):
        assert parse_topology(text).describe() == described

    @pytest.mark.parametrize("text", ["blah:3", "mesh3d:4x4", "circulant:4", "8"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_topology(text)


# -- generator validation --------------------------------------------------


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        torus3d(2, 3, 3)  # size-2 ring would be a parallel edge
    with pytest.raises(ValueError):
        circulant(10, 2, 5)  # 2*s2 == n: parallel edges
    with pytest.raises(ValueError):
        circulant(12, 2, 4)  # gcd 2: disconnected
    with pytest.raises(ValueError):
        full_mesh(1)
    with pytest.raises(ValueError):
        mesh3d(0, 3, 3)


# -- routing properties ----------------------------------------------------


@pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
def test_minimal_routes_minimal_uturn_free_connected(name, build):
    topo = build()
    local = topo.local_port
    nodes = topo.active_nodes()
    for src in nodes:
        dist = bfs_distances(topo, src)
        assert set(dist) == set(nodes), "healthy generator must be connected"
        for dst in nodes:
            if src == dst:
                continue
            routes = minimal_routes(topo, src, dst)
            assert routes, f"no route {src}->{dst}"
            for route in routes:
                assert route_is_valid(topo, src, dst, route)
                assert len(route) == dist[dst] + 1  # minimal: hops + eject
                path = route_node_sequence(topo, src, route)
                # U-turn free: never revisit the previous node.
                for a, b in zip(path, path[2:]):
                    assert a != b


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pick=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_minimal_routes_survive_one_fault(seed, pick):
    name, build = GENERATORS[pick]
    topo = build()
    rng = random.Random(seed)
    u, v = sorted(rng.choice(sorted(tuple(l) for l in topo.all_links())))
    topo.deactivate_link(u, v)
    nodes = topo.active_nodes()
    for src in nodes:
        dist = bfs_distances(topo, src)
        for dst in dist:
            if dst == src:
                continue
            for route in minimal_routes(topo, src, dst, max_paths=2):
                assert route_is_valid(topo, src, dst, route)
                assert len(route) == dist[dst] + 1


# -- static-bubble certificates off the mesh -------------------------------


@pytest.mark.parametrize("name,build", GENERATORS, ids=GEN_IDS)
def test_cycle_cover_certificate_on_generator(name, build):
    topo = build()
    cert = StaticBubbleScheme().verify(topo, SimConfig())
    assert cert.ok, cert.describe()
    assert cert.kind == "cycle-cover"
    assert cert.topology == topo.describe()
    assert cert.cover_routers
    assert set(cert.cover_routers) <= set(topo.active_nodes())
    payload = cert.to_dict()
    assert payload["ok"] and payload["topology"] == topo.describe()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pick=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(["link", "router"]),
)
@settings(max_examples=30, deadline=None)
def test_cycle_cover_certificate_survives_one_random_fault(seed, pick, kind):
    # The cover is computed on the *underlying* graph, so it must keep
    # certifying after any single fault (deleting elements only removes
    # CDG cycles, never adds them).
    name, build = GENERATORS[pick]
    topo = build()
    rng = random.Random(seed)
    if kind == "link":
        u, v = sorted(rng.choice(sorted(tuple(l) for l in topo.all_links())))
        topo.deactivate_link(u, v)
    else:
        topo.deactivate_node(rng.randrange(topo.num_nodes))
    cert = StaticBubbleScheme().verify(topo, SimConfig())
    assert cert.ok, f"{name} fault seed {seed}: {cert.describe()}"
    assert cert.faulty_links + cert.faulty_routers == 1

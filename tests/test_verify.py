"""Tests for repro.verify: CDG construction, certificates, and the
exhaustive protocol model checker.

The placement-mutation tests are the heart of this file: every one of
the 21 static bubbles of the 8x8 placement must be load-bearing (drop
any single one and the certifier produces a concrete uncovered cycle),
while the intact 8x8 and 16x16 placements certify clean — including
under random single-link and single-router faults.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random

import pytest

from repro.core.placement import placement_node_ids
from repro.core.turns import OPPOSITE_PORT, Port
from repro.obs import EVENT_SCHEMA, Observer
from repro.obs.events import VERIFY_CERTIFICATE
from repro.protocols import SCHEMES, make_scheme
from repro.sim.config import SimConfig
from repro.sim.debug import overslept, resident_index_errors
from repro.sim.network import Network
from repro.sim.scenarios import build_scenario
from repro.topology.faults import inject_link_faults, inject_router_faults
from repro.topology.generators import parse_topology
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic
from repro.verify import (
    LAYER_NORMAL,
    StateSpaceExceeded,
    bounded_cycles,
    canonical_state,
    cdg_from_routes,
    cdg_from_tables,
    cdg_from_turns,
    certify_acyclic,
    certify_cycle_cover,
    check_scenario,
    cyclic_components,
    is_recovered,
    restore,
    shortest_cycle,
    snapshot,
    successor_states,
)


def _assert_valid_cycle(cdg, cert, cover=frozenset()):
    """The counterexample must be a real CDG cycle avoiding the cover."""
    assert cert.counterexample is not None
    cycle = [
        (node, int(Port[port_name]), layer)
        for node, port_name, layer in cert.counterexample
    ]
    assert len(cycle) >= 2
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in cdg.successors(a), f"{a} -> {b} is not a CDG edge"
    for node, _port, _layer in cycle:
        assert node not in cover, "counterexample crosses a covered router"


# -- CDG construction -----------------------------------------------------


class TestCdgConstruction:
    def test_turn_closure_counts_2x2(self):
        cdg = cdg_from_turns(mesh(2, 2))
        # Degree-2 routers: one channel per incident link end, and from
        # each channel exactly one non-u-turn exit.
        assert cdg.num_channels == 8
        assert cdg.num_edges == 8
        # The two dependency rings (clockwise and counterclockwise).
        assert len(cyclic_components(cdg.adjacency())) == 2

    def test_turn_closure_counts_4x4(self, mesh_4x4):
        cdg = cdg_from_turns(mesh_4x4)
        # One channel per directed link: 24 links -> 48 channels.
        assert cdg.num_channels == 48
        # A degree-d router contributes d*(d-1) turn edges:
        # 4 corners (d=2), 8 edge routers (d=3), 4 interior (d=4).
        assert cdg.num_edges == 4 * 2 + 8 * 6 + 4 * 12

    def test_route_channels_follow_port_convention(self, mesh_4x4):
        # A packet leaving through EAST arrives at the EAST neighbor and
        # is buffered at *its* WEST input port.
        route = [Port.EAST, Port.NORTH, Port.LOCAL]
        cdg = cdg_from_routes(mesh_4x4, [(0, route)])
        n1 = mesh_4x4.neighbor(0, Port.EAST)
        n2 = mesh_4x4.neighbor(n1, Port.NORTH)
        c1 = (n1, int(OPPOSITE_PORT[Port.EAST]), LAYER_NORMAL)
        c2 = (n2, int(OPPOSITE_PORT[Port.NORTH]), LAYER_NORMAL)
        assert cdg.channels == {c1, c2}
        assert cdg.successors(c1) == {c2}
        # Ejection consumes the packet: the final channel has no edge.
        assert cdg.successors(c2) == set()

    def test_route_over_inactive_link_raises(self, mesh_4x4):
        broken = mesh_4x4.copy()
        broken.deactivate_link(0, mesh_4x4.neighbor(0, Port.EAST))
        with pytest.raises(ValueError):
            cdg_from_routes(broken, [(0, [Port.EAST, Port.LOCAL])])

    def test_tables_cdg_within_turn_closure(self, mesh_4x4):
        """Real routing tables can only exercise turn-closure edges."""
        config = SimConfig(width=4, height=4)
        scheme = make_scheme("xy")
        tables = scheme.build_tables(mesh_4x4, config)
        table_cdg = cdg_from_tables(mesh_4x4, tables)
        closure = cdg_from_turns(mesh_4x4)
        assert table_cdg.channels <= closure.channels
        for channel in table_cdg.channels:
            assert table_cdg.successors(channel) <= closure.successors(channel)

    def test_restricted_adjacency_drops_covered_buffers(self, mesh_4x4):
        cdg = cdg_from_turns(mesh_4x4)
        cover = {5, 10}
        restricted = cdg.restricted_adjacency(cover)
        assert all(c[0] not in cover for c in restricted)
        assert all(
            s[0] not in cover for succs in restricted.values() for s in succs
        )


# -- certificates ---------------------------------------------------------


class TestCertificates:
    def test_empty_cover_fails_with_real_cycle(self, mesh_4x4):
        cdg = cdg_from_turns(mesh_4x4)
        cert = certify_cycle_cover(cdg, set(), scheme="static-bubble")
        assert not cert.ok
        assert cert.cyclic_sccs > 0
        _assert_valid_cycle(cdg, cert)

    def test_shortest_cycle_agrees_with_enumeration(self, mesh_4x4):
        adj = cdg_from_turns(mesh_4x4).adjacency()
        cycle = shortest_cycle(adj)
        enumerated = bounded_cycles(adj, length_bound=8)
        assert cycle is not None and enumerated
        assert len(cycle) == min(len(c) for c in enumerated)

    def test_acyclic_certificate_on_tree(self):
        # A 1xN mesh is a path: no minimal-routing cycle is possible.
        cdg = cdg_from_turns(mesh(4, 1))
        cert = certify_acyclic(cdg, scheme="test")
        assert cert.ok and cert.counterexample is None

    def test_certificate_serializes(self, mesh_4x4):
        cert = certify_cycle_cover(
            cdg_from_turns(mesh_4x4), set(), scheme="static-bubble"
        )
        payload = json.loads(cert.to_json())
        assert payload["kind"] == "cycle-cover"
        assert payload["ok"] is False
        assert len(payload["fingerprint"]) == 16
        assert "uncovered dependency cycle" in cert.describe()


# -- placement mutation (the load-bearing-bubbles satellite) --------------


class TestPlacementMutation:
    def test_intact_8x8_certifies(self, mesh_8x8):
        placed = placement_node_ids(8, 8)
        assert len(placed) == 21
        cert = certify_cycle_cover(
            cdg_from_turns(mesh_8x8), placed, scheme="static-bubble"
        )
        assert cert.ok and cert.counterexample is None

    def test_intact_16x16_certifies(self):
        placed = placement_node_ids(16, 16)
        assert len(placed) == 89
        cert = certify_cycle_cover(
            cdg_from_turns(mesh(16, 16)), placed, scheme="static-bubble"
        )
        assert cert.ok

    #: Bubbles the certifier proves redundant on the full mesh.  Faulting
    #: only ever *removes* CDG channels and edges, so a cover that works
    #: on the full mesh works on every derived topology — these routers
    #: are therefore redundant for ALL derivations: the paper's placement
    #: over-provisions slightly (see DESIGN.md).  Pinned as a regression
    #: fact; a placement change that alters these sets must be deliberate.
    REDUNDANT_8X8 = {54, 63}  # (6,6) and (7,7)
    REDUNDANT_16X16_COUNT = 18

    def test_single_bubble_mutations_8x8(self, mesh_8x8):
        """Dropping any non-redundant bubble uncovers a concrete cycle."""
        placed = placement_node_ids(8, 8)
        cdg = cdg_from_turns(mesh_8x8)
        redundant = set()
        for bubble in sorted(placed):
            cover = placed - {bubble}
            cert = certify_cycle_cover(cdg, cover, scheme="static-bubble")
            if cert.ok:
                redundant.add(bubble)
            else:
                _assert_valid_cycle(cdg, cert, cover)
        assert redundant == self.REDUNDANT_8X8

    def test_single_bubble_mutations_16x16(self):
        placed = placement_node_ids(16, 16)
        cdg = cdg_from_turns(mesh(16, 16))
        redundant = sum(
            certify_cycle_cover(cdg, placed - {b}, scheme="static-bubble").ok
            for b in placed
        )
        assert redundant == self.REDUNDANT_16X16_COUNT

    @pytest.mark.parametrize("seed", range(8))
    def test_certifies_under_single_link_fault(self, mesh_8x8, seed):
        faulted = inject_link_faults(mesh_8x8, 1, random.Random(seed))
        cover = placement_node_ids(8, 8) & set(faulted.active_nodes())
        cert = certify_cycle_cover(
            cdg_from_turns(faulted), cover, scheme="static-bubble"
        )
        assert cert.ok, cert.describe()

    @pytest.mark.parametrize("seed", range(8))
    def test_certifies_under_single_router_fault(self, mesh_8x8, seed):
        faulted = inject_router_faults(mesh_8x8, 1, random.Random(seed))
        cover = placement_node_ids(8, 8) & set(faulted.active_nodes())
        cert = certify_cycle_cover(
            cdg_from_turns(faulted), cover, scheme="static-bubble"
        )
        assert cert.ok, cert.describe()


# -- scheme.verify() hooks ------------------------------------------------


class TestSchemeVerify:
    def test_static_bubble_verifies_8x8(self, mesh_8x8):
        cert = make_scheme("static-bubble").verify(
            mesh_8x8, SimConfig(width=8, height=8)
        )
        assert cert.ok and cert.kind == "cycle-cover"
        assert len(cert.cover_routers) == 21

    def test_static_bubble_placement_override_fails(self, mesh_8x8):
        placed = placement_node_ids(8, 8)
        dropped = placed - {min(placed)}
        scheme = make_scheme("static-bubble", placement_override=dropped)
        cert = scheme.verify(mesh_8x8, SimConfig(width=8, height=8))
        assert not cert.ok and cert.counterexample_text

    def test_spanning_tree_acyclic_under_faults(self, mesh_8x8):
        faulted = inject_router_faults(mesh_8x8, 3, random.Random(5))
        cert = make_scheme("spanning-tree").verify(
            faulted, SimConfig(width=8, height=8)
        )
        assert cert.ok and cert.kind == "acyclic"

    def test_escape_layer_acyclic(self, mesh_8x8):
        cert = make_scheme("escape-vc").verify(
            mesh_8x8, SimConfig(width=8, height=8)
        )
        assert cert.ok and cert.source == "next_hops"

    def test_xy_acyclic(self, mesh_4x4):
        cert = make_scheme("xy").verify(mesh_4x4, SimConfig(width=4, height=4))
        assert cert.ok

    def test_minimal_unprotected_honestly_fails(self, mesh_4x4):
        cert = make_scheme("minimal-unprotected").verify(
            mesh_4x4, SimConfig(width=4, height=4)
        )
        assert not cert.ok and cert.counterexample is not None


# -- model checker --------------------------------------------------------


#: One small instance of each topology generator.
GENERATORS = ("mesh:4x4", "mesh3d:3x3x2", "torus3d:3x3x3", "circulant:12,1,5", "fullmesh:6")
#: Every scheme on every generator; XY addresses routers by (x, y).
CODEC_CELLS = [
    (topology, scheme)
    for topology in GENERATORS
    for scheme in sorted(SCHEMES)
    if scheme != "xy" or topology.startswith("mesh:")
]


class TestStateCodec:
    """``snapshot`` / ``restore`` / ``canonical_state`` are one codec: a
    restored snapshot is the network it was taken from, and a canonical
    key is a restorable member of its class."""

    @pytest.mark.parametrize("topology,scheme", CODEC_CELLS)
    def test_restored_snapshot_steps_with_a_deepcopy_twin(self, topology, scheme):
        """Saturated (one VC where the scheme allows) with short detection
        thresholds, so NI queues are long and probes or escape diversions
        happen on both sides of the snapshot."""
        topo = parse_topology(topology)
        config = SimConfig(
            width=4,
            height=4,
            vcs_per_vnet=2 if "escape" in scheme else 1,
            sb_t_dd=4,
            escape_t_detect=8,
        )
        traffic = UniformRandomTraffic(topo, rate=0.9, seed=3)
        net = Network(topo, config, make_scheme(scheme), traffic, seed=3)
        net.run(150)
        snap = snapshot(net)
        twin = copy.deepcopy(net)
        net.run(60)
        restore(net, snap)
        for _ in range(60):
            assert dataclasses.asdict(net.stats) == dataclasses.asdict(twin.stats)
            assert canonical_state(net) == canonical_state(twin), net.cycle
            assert overslept(net) == [] and resident_index_errors(net) == []
            net.step()
            twin.step()
        assert net.stats.packets_ejected > 0

    def test_a_canonical_key_restores_to_itself_in_lockstep(self):
        """ring2x2 through a whole recovery: writing the network's own key
        back every cycle changes neither the key nor what happens next."""
        net, _scheme = build_scenario("ring2x2", t_dd=2)
        twin = copy.deepcopy(net)
        for _ in range(60):
            key = canonical_state(net)
            restore(net, key)
            assert canonical_state(net) == key, net.cycle
            assert resident_index_errors(net) == []
            net.step()
            twin.step()
            assert canonical_state(net) == canonical_state(twin), net.cycle
        assert is_recovered(twin) and twin.stats.recoveries_completed == 1

    def test_seal_ages_past_the_timeout_share_a_key(self):
        """A seal's age clamps at ``sb_seal_timeout``, where the collector
        acts on it.  ring2x2 never holds a seal past it (its state counts
        are the same with and without the clamp), so this is the clamp's
        witness."""
        net, _scheme = build_scenario("ring2x2", t_dd=2)
        timeout = net.config.sb_seal_timeout
        router = net.routers[0]
        keys = []
        for age in (timeout - 1, timeout, timeout + 5):
            router.set_io_restriction(
                Port.EAST, Port.NORTH, source=3, now=net.cycle - age
            )
            keys.append(canonical_state(net))
        assert keys[0] != keys[1] == keys[2]
        restore(net, keys[2])
        assert net.cycle - router.io_set_at == timeout


class TestModelChecker:
    def test_snapshot_restore_fidelity(self):
        """restore() must reproduce the exact canonical state, and the
        restored network must evolve identically to an untouched copy."""
        net, _scheme = build_scenario("ring2x2", t_dd=2)
        for _ in range(10):
            net.step()
        snap = snapshot(net)
        key = canonical_state(net)
        reference = copy.deepcopy(net)
        for _ in range(25):
            net.step()
        restore(net, snap)
        assert canonical_state(net) == key
        for _ in range(20):
            net.step()
            reference.step()
            assert canonical_state(net) == canonical_state(reference)

    def test_initial_deadlock_is_not_recovered(self):
        net, _scheme = build_scenario("ring2x2", t_dd=2)
        assert not is_recovered(net)

    def test_successor_states_branch_over_drop_subsets(self):
        net, _scheme = build_scenario("ring2x2", t_dd=2)
        for _ in range(200):
            if net._special_arrivals.get(net.cycle):
                break
            net.step()
        due = len(net._special_arrivals.get(net.cycle, ()))
        assert due >= 1, "scenario never put a special in flight"
        reference = copy.deepcopy(net)
        reference.step()
        before = net.stats.specials_dropped
        succs = list(successor_states(net, canonical_state(net)))
        assert len(succs) == 2**due
        assert {dropped for dropped, _ in succs} == set(range(due + 1))
        assert net.stats.specials_dropped - before == sum(d for d, _ in succs)
        # Nothing dropped: the successor is the real next cycle.
        assert succs[0] == (0, canonical_state(reference))
        assert len({key for _, key in succs}) == 2**due

    def test_ring2x2_exhaustive_recovery_proof(self):
        """AG EF recovered over the full reachable space (shrunk knobs
        keep this ~6 s; the CI smoke job runs the larger default)."""
        res = check_scenario(
            "ring2x2", t_dd=1, bubble_timeout=4, seal_timeout=6
        )
        assert res.ok, res.describe()
        assert res.livelock_path is None
        # Exact: the space is a property of the model, not of how the
        # allocator skips work (39,853 with the default knobs, CI smoke).
        assert res.states == 18_176
        assert res.transitions >= res.states - 1
        assert res.recovered_states >= 1
        assert res.sb_active_states > 0  # recovery actually fired...
        assert res.det_recovery_cycle is not None  # ...and completed
        assert res.max_due_specials >= 1  # the adversary had real choices
        assert "reachable states" in res.describe()

    def test_state_budget_raises_instead_of_lying(self):
        with pytest.raises(StateSpaceExceeded):
            check_scenario("ring2x2", t_dd=1, max_states=50)


# -- Network.certify() and reconfiguration wiring -------------------------


class TestNetworkCertify:
    def _network(self, scheme_name, width=4, height=4):
        topo = mesh(width, height)
        config = SimConfig(width=width, height=height)
        return Network(topo, config, make_scheme(scheme_name))

    def test_certify_emits_schema_conformant_event(self):
        net = self._network("static-bubble")
        obs = Observer()
        net.attach_obs(obs)
        cert = net.certify()
        assert cert.ok and net.last_certificate is cert
        events = [
            e for e in obs.tracer.events if e.kind == VERIFY_CERTIFICATE
        ]
        assert len(events) == 1
        assert set(events[0].data) == set(EVENT_SCHEMA[VERIFY_CERTIFICATE])

    def test_verify_on_reconfig_counts_failures(self):
        net = self._network("minimal-unprotected")
        net.verify_on_reconfig = True
        net.apply_faults(links=[(0, 1)])
        assert net.cert_failures == 1
        assert net.last_certificate is not None
        assert not net.last_certificate.ok

    def test_verify_on_reconfig_passes_for_static_bubble(self):
        net = self._network("static-bubble", 8, 8)
        net.verify_on_reconfig = True
        net.apply_faults(links=[(0, 1)])
        assert net.cert_failures == 0
        assert net.last_certificate.ok


# -- CLI ------------------------------------------------------------------


class TestVerifyCli:
    def test_certify_8x8_ok(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mesh", "8x8"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "cycle-cover" in out

    def test_drop_bubble_prints_cycle_and_fails(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mesh", "8x8", "--drop-bubble", "1,1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "uncovered dependency cycle" in out

    def test_bad_mesh_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mesh", "8by8"]) == 2

    @pytest.mark.parametrize(
        "spec,described",
        [
            ("mesh3d:3x3x3", "3x3x3 mesh"),
            ("torus3d:3x3x3", "3x3x3 torus"),
            ("circulant:11,2,5", "circulant(n=11,s1=2,s2=5)"),
            ("fullmesh:6", "full_mesh(n=6)"),
        ],
    )
    def test_certify_non_mesh_topologies(self, capsys, spec, described):
        from repro.cli import main

        assert main(["verify", "--topology", spec]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "cycle-cover" in out
        assert described in out

    def test_bad_topology_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["verify", "--topology", "hypercube:4"]) == 2

    def test_xy_off_the_2d_mesh_exits_2(self, capsys):
        from repro.cli import main

        assert main(["verify", "--topology", "torus3d:3x3x3", "--scheme", "xy"]) == 2
        assert "2D mesh" in capsys.readouterr().err

    def test_drop_bubble_requires_mesh(self, capsys):
        from repro.cli import main

        code = main(
            ["verify", "--topology", "circulant:11,2,5", "--drop-bubble", "1,1"]
        )
        assert code == 2

    def test_json_output_parses(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mesh", "4x4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["ok"] is True

    def test_verify_first_aborts_unsafe_simulation(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--width", "4", "--height", "4",
                "--scheme", "minimal-unprotected",
                "--verify-first",
                "--cycles", "50",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

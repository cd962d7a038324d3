"""Tests for the diagnostic tooling (repro.sim.debug)."""

import random

from repro.core.messages import MsgType
from repro.protocols import make_scheme
from repro.protocols.none import MinimalUnprotected
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.debug import (
    STEP_PHASES,
    SpecialMessageTracer,
    describe_wait_cycle,
    fsm_snapshot,
    locate_packets,
    phase_budget,
    seal_census,
)
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.generators import parse_topology
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

from tests.conftest import build_2x2_ring_deadlock


class TestDescribeWaitCycle:
    def test_empty_network(self):
        net = Network(mesh(2, 2), SimConfig(width=2, height=2),
                      MinimalUnprotected(), None, seed=1)
        assert describe_wait_cycle(net) == []

    def test_ring_description(self):
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        waiting = describe_wait_cycle(net)
        assert len(waiting) == 4
        assert {w.pid for w in waiting} == {100, 101, 102, 103}
        for w in waiting:
            assert "wants" in w.describe()

    def test_six_port_topology_uses_its_own_port_names(self):
        """``Port(...)`` has no member for ports 5/6 and misnames the rest."""
        topo = parse_topology("mesh3d:4x4x4")
        net = Network(topo, SimConfig(), MinimalUnprotected(),
                      UniformRandomTraffic(topo, rate=0.9, seed=1), seed=1)
        monitor = DeadlockMonitor()
        while not monitor.check(net, net.cycle):
            assert net.cycle < 2500
            net.step()
        waiting = describe_wait_cycle(net)
        assert waiting
        names = {topo.port_name(p) for p in range(topo.num_ports)}
        for w in waiting:
            assert w.in_port in names and w.wants in names
            assert f"wants={w.wants}" in w.describe()

    def test_locate_packets(self):
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        located = locate_packets(net)
        assert set(located) == {100, 101, 102, 103}


class TestFsmSnapshot:
    def test_snapshot_lines(self):
        net, scheme = build_2x2_ring_deadlock()
        net.run(3)
        lines = fsm_snapshot(net)
        assert len(lines) == len(scheme.states)
        assert any("S_DD" in line for line in lines)

    def test_non_sb_scheme_empty(self):
        net = Network(mesh(2, 2), SimConfig(width=2, height=2),
                      MinimalUnprotected(), None, seed=1)
        assert fsm_snapshot(net) == []


class TestTracer:
    def test_traces_probe_launches(self):
        net, _ = build_2x2_ring_deadlock()
        tracer = SpecialMessageTracer(net)
        net.run(60)
        assert tracer.counts[MsgType.PROBE] >= 1
        assert any("PROBE" in line for line in tracer.lines)

    def test_sender_filter(self):
        net, _ = build_2x2_ring_deadlock()
        tracer = SpecialMessageTracer(net, senders={9999})
        net.run(60)
        assert tracer.lines == []

    def test_detach_restores(self):
        net, _ = build_2x2_ring_deadlock()
        tracer = SpecialMessageTracer(net)
        tracer.detach()
        # The class method is back in charge (no instance-level override).
        assert "send_special" not in net.__dict__
        net.run(60)
        assert tracer.lines == []  # nothing traced after detach

    def test_stacked_tracers(self):
        net, _ = build_2x2_ring_deadlock()
        inner = SpecialMessageTracer(net)
        outer = SpecialMessageTracer(net)
        outer.detach()
        net.run(60)
        assert inner.counts[MsgType.PROBE] >= 1
        assert outer.lines == []


class TestSealCensus:
    def test_census_during_recovery(self):
        net, _ = build_2x2_ring_deadlock()
        seen_seal = False
        for _ in range(60):
            net.step()
            if seal_census(net):
                seen_seal = True
                break
        assert seen_seal
        node, source, in_port, out_port = seal_census(net)[0]
        assert source is not None

    def test_census_clean_network(self):
        net = Network(mesh(2, 2), SimConfig(width=2, height=2),
                      MinimalUnprotected(), None, seed=1)
        assert seal_census(net) == []


class TestPhaseBudget:
    @staticmethod
    def _net():
        topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))
        traffic = UniformRandomTraffic(topo, rate=0.10, seed=1)
        return Network(topo, SimConfig(), make_scheme("static-bubble"), traffic,
                       seed=1)

    def test_phases_account_for_the_cycle(self):
        net = self._net()
        net.run(200)
        # The least disturbed of a few runs: interference only adds time,
        # and it lands in ``step`` and the phases alike or in neither.
        budget = min(
            (phase_budget(net, 300) for _ in range(3)), key=lambda b: b["step"]
        )
        assert set(budget) == set(STEP_PHASES) | {"step"}
        phases = sum(budget[name] for name in STEP_PHASES)
        assert 0.85 * budget["step"] <= phases <= budget["step"]
        assert budget["_allocate"] == max(budget[name] for name in STEP_PHASES)

    def test_wrappers_are_removed_and_change_nothing(self):
        net, twin = self._net(), self._net()
        phase_budget(net, 250)
        twin.run(250)
        assert net.stats == twin.stats
        assert not set(STEP_PHASES) & set(net.__dict__)
        assert "on_cycle" not in net.scheme.__dict__

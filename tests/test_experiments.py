"""End-to-end tests of every experiment harness (tiny parameterizations).

Each test runs the experiment with minimal parameters and checks both the
structure of the result and the qualitative shape the paper reports.
"""

import pytest

from repro.experiments import (
    fig2_deadlock_prone,
    fig3_heatmap,
    fig8_latency,
    fig9_throughput,
    fig10_energy,
    fig11_tdd_sweep,
    fig12_rodinia,
    fig13_parsec,
    table1_cost,
    topo_sweep,
)
from repro.experiments.common import (
    CACHE_ENV_VAR,
    SCHEME_ORDER,
    fault_samples,
    fault_specs,
    normalize_to,
    safe_mean,
    sweep_cells,
)
from repro.service.store import STORE_ENV_VAR
from repro.topology.faults import sample_topologies

#: Keys are deliberately not in sorted order: groups must keep the order
#: each key was first seen, and each group its cells' order.
CELLS = [("b", (1,)), ("a", (2,)), ("b", (3,)), ("c", (4,)), ("a", (5,)), ("b", (6,))]
GROUPS = {"b": [(1, 1), (3, 9), (6, 36)], "a": [(2, 4), (5, 25)], "c": [(4, 16)]}

#: Arguments ``_square`` has run on in this process (serial runs only).
CALLS = []


def _square(x):
    CALLS.append(x)
    return x, x * x


class TestCommon:
    def test_topologies_for_count(self):
        params = fig8_latency.Fig8Params(samples=3, seed=1)
        specs = fault_specs(params, "link", 4)
        assert len(specs) == 3
        assert all(spec.build_topology().num_faulty_links() == 4 for spec in specs)

    def test_safe_mean(self):
        assert safe_mean([]) == 0.0
        assert safe_mean([1.0, 3.0]) == 2.0

    def test_normalize_to(self):
        assert normalize_to(2.0, 1.0) == 0.5
        assert normalize_to(0.0, 1.0) == 1.0

    def test_fault_samples_walk_links_then_routers(self):
        params = fig8_latency.Fig8Params(
            link_fault_counts=[4, 1], router_fault_counts=[2], samples=2, seed=3
        )
        samples = list(fault_samples(params))
        assert [(kind, count) for kind, count, _ in samples] == [
            ("link", 4), ("link", 1), ("router", 2)
        ]
        for kind, count, specs in samples:
            expected = sample_topologies(8, 8, kind, count, 2, seed=3)
            assert [s.build_topology().to_spec() for s in specs] == [
                t.to_spec() for _, t in expected
            ]

    def test_scheme_order(self):
        assert SCHEME_ORDER == (
            "spanning-tree",
            "escape-vc",
            "static-bubble",
            "adaptive",
        )


class TestSweepCells:
    def test_groups_in_first_seen_key_order_and_cell_order(self):
        groups = sweep_cells(_square, CELLS, workers=1)
        assert list(groups) == ["b", "a", "c"]
        assert groups == GROUPS

    def test_two_workers_equal_one(self):
        assert repr(sweep_cells(_square, CELLS, workers=2)) == repr(
            sweep_cells(_square, CELLS, workers=1)
        )

    def test_cached_equals_uncached_and_rerun_executes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
        monkeypatch.setenv(CACHE_ENV_VAR, "1")
        CALLS.clear()
        cold = sweep_cells(_square, CELLS, workers=1)
        assert sorted(CALLS) == [1, 2, 3, 4, 5, 6]
        CALLS.clear()
        warm = sweep_cells(_square, CELLS, workers=1)
        assert CALLS == []
        monkeypatch.setenv(CACHE_ENV_VAR, "0")
        assert repr(cold) == repr(warm) == repr(sweep_cells(_square, CELLS, workers=1))
        assert list(cold) == ["b", "a", "c"] and cold == GROUPS


class TestFig2:
    def test_graph_method_shape(self):
        params = fig2_deadlock_prone.Fig2Params(
            link_fault_counts=[2, 90], router_fault_counts=[2, 55], samples=6
        )
        result = fig2_deadlock_prone.run(params)
        # Paper's shape: ~100% prone at low faults, ~0% once fragmented.
        assert result.link_series[2] >= 90
        assert result.link_series[90] <= 30
        assert result.router_series[2] >= 90
        assert result.router_series[55] <= 30
        assert "Fig. 2" in fig2_deadlock_prone.report(result)

    def test_sim_method_agrees_at_extremes(self):
        params = fig2_deadlock_prone.Fig2Params(
            link_fault_counts=[4],
            router_fault_counts=[],
            samples=3,
            method="sim",
            sim_cycles=1500,
        )
        result = fig2_deadlock_prone.run(params)
        assert result.link_series[4] >= 60


class TestFig3:
    def test_deadlock_rates_monotone_cumulative(self):
        params = fig3_heatmap.Fig3Params(
            link_fault_counts=[8], rates=[0.05, 0.3], samples=4, cycles=800
        )
        result = fig3_heatmap.run(params)
        low = result.heatmap[(8, 0.05)]
        high = result.heatmap[(8, 0.3)]
        assert high >= low
        assert "Fig. 3" in fig3_heatmap.report(result)

    def test_low_rates_rarely_deadlock(self):
        """The paper's core insight: real-app rates don't deadlock."""
        params = fig3_heatmap.Fig3Params(
            link_fault_counts=[4], rates=[0.02, 0.4], samples=4, cycles=800
        )
        result = fig3_heatmap.run(params)
        assert result.heatmap[(4, 0.02)] <= 25
        assert result.heatmap[(4, 0.4)] >= 50


class TestFig8:
    def test_recovery_schemes_beat_tree_at_low_load(self):
        params = fig8_latency.Fig8Params(
            patterns=["uniform_random"],
            link_fault_counts=[8],
            router_fault_counts=[],
            samples=2,
            warmup=200,
            measure=600,
        )
        result = fig8_latency.run(params)
        sb = result.normalized("uniform_random", "link", 8, "static-bubble")
        evc = result.normalized("uniform_random", "link", 8, "escape-vc")
        assert sb <= 1.02
        assert evc <= 1.02
        # At low load with no deadlocks, SB and eVC are near-identical.
        assert sb == pytest.approx(evc, rel=0.05)
        assert "Fig. 8" in fig8_latency.report(result)


class TestFig9:
    def test_static_bubble_highest_throughput(self):
        params = fig9_throughput.Fig9Params(
            rates=[0.1, 0.2],
            link_fault_counts=[8],
            router_fault_counts=[],
            samples=2,
            warmup=200,
            measure=500,
        )
        result = fig9_throughput.run(params)
        sb = result.normalized("link", 8, "static-bubble")
        assert sb >= 1.0
        assert "Fig. 9" in fig9_throughput.report(result)


class TestTopoSweep:
    def test_non_mesh_sweep_certified_and_conserving(self):
        params = topo_sweep.TopoSweepParams(
            topologies=["torus3d:3x3x3", "circulant:11,2,5"],
            rates=[0.05, 0.15],
            warmup=150,
            measure=400,
            workers=1,
        )
        result = topo_sweep.run(params)
        assert result.ok  # every cert OK, zero conservation violations
        assert all(result.certified.values())
        assert not result.conservation_violations
        for spec in params.topologies:
            for scheme in params.schemes:
                assert result.saturation(spec, scheme) > 0
                for rate in params.rates:
                    assert result.latency[(spec, scheme, rate)] > 0
        text = topo_sweep.report(result)
        assert "torus3d:3x3x3" in text
        assert "packet conservation clean" in text


class TestFig10:
    def test_sb_lowest_total_energy(self):
        params = fig10_energy.Fig10Params(
            router_fault_counts=[7], samples=2, warmup=150, measure=500
        )
        result = fig10_energy.run(params)
        sb = result.normalized_total(7, "static-bubble")
        evc = result.normalized_total(7, "escape-vc")
        assert sb <= 1.0
        assert sb <= evc
        assert "Fig. 10" in fig10_energy.report(result)

    def test_breakdown_components_present(self):
        params = fig10_energy.Fig10Params(
            router_fault_counts=[2], samples=1, warmup=100, measure=300
        )
        result = fig10_energy.run(params)
        e = result.energy[(2, "static-bubble")]
        for key in ("router_dynamic", "router_leakage", "link_dynamic",
                    "link_leakage", "total"):
            assert e[key] >= 0


class TestFig11:
    def test_probes_decline_with_t_dd(self):
        params = fig11_tdd_sweep.Fig11Params(
            t_dd_values=[5, 100],
            schemes=["static-bubble"],
            samples=1,
            cycles=1500,
        )
        result = fig11_tdd_sweep.run(params)
        assert result.probes[("static-bubble", 5)] > result.probes[
            ("static-bubble", 100)
        ]
        assert "Fig. 11" in fig11_tdd_sweep.report(result)

    def test_flits_dominate_link_usage(self):
        params = fig11_tdd_sweep.Fig11Params(
            t_dd_values=[34], schemes=["static-bubble"], samples=1, cycles=1500
        )
        result = fig11_tdd_sweep.run(params)
        assert result.link_share[("static-bubble", 34, "flit")] > 0.80

    def test_adaptive_curve_runs_the_sb_protocol(self):
        params = fig11_tdd_sweep.Fig11Params(
            t_dd_values=[20], schemes=["adaptive"], samples=1, cycles=1500
        )
        result = fig11_tdd_sweep.run(params)
        # The adaptive scheme inherits the probe/recovery machinery, so
        # the t_DD sweep applies to it unchanged.
        assert ("adaptive", 20) in result.probes
        assert result.link_share[("adaptive", 20, "flit")] > 0.50
        assert "scheme: adaptive" in fig11_tdd_sweep.report(result)


class TestFig12:
    def test_structure_and_normalization(self):
        params = fig12_rodinia.Fig12Params(
            workloads=["bplus"],
            link_fault_counts=[4],
            router_fault_counts=[],
            samples=1,
            trace_duration=400,
            max_cycles=8000,
        )
        result = fig12_rodinia.run(params)
        sb = result.normalized("bplus", "link", 4, "static-bubble")
        assert sb > 0
        assert result.normalized("bplus", "link", 4, "spanning-tree") == 1.0
        assert "Fig. 12" in fig12_rodinia.report(result)


class TestFig13:
    def test_recovery_runtime_not_worse_than_tree(self):
        params = fig13_parsec.Fig13Params(
            workloads=["canneal"], samples=2, transactions_per_core=6
        )
        result = fig13_parsec.run(params)
        assert result.normalized_runtime("canneal", "static-bubble") <= 1.05
        assert result.normalized_edp("canneal", "static-bubble") <= 1.05
        assert "Fig. 13" in fig13_parsec.report(result)


class TestTable1:
    def test_paper_numbers(self):
        result = table1_cost.run(table1_cost.Table1Params())
        assert result.buffers[(8, 8)] == (21, 320)
        assert result.buffers[(16, 16)] == (89, 1280)
        sb_ov, evc_ov = result.area_overhead[(8, 8)]
        assert sb_ov < 0.005
        assert evc_ov == pytest.approx(0.18, abs=0.02)
        assert "Table I" in table1_cost.report(result)

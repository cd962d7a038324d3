"""One cell identity: every simulating figure cell is a ``SimSpec``.

A figure cell's args are a :class:`SimSpec` dict plus the plain values
its function reads (a rate list, a cycle budget, a workload name), so
its cached store key is a function of what it simulates and nothing
else — not the worker count.  These tests pin the spec field that makes
sampled topologies expressible (``fault_seed``), the shape of every
figure's cells, the worker-count independence of cached sweeps end to
end, that fig8 and fig9 cells are specs the service's executor runs,
and that fig11 cells feed the ``REPRO_OBS`` registry.
"""

import dataclasses
import json
import random

import pytest

from repro.experiments import (
    chaos,
    fig2_deadlock_prone,
    fig3_heatmap,
    fig8_latency,
    fig9_throughput,
    fig10_energy,
    fig11_tdd_sweep,
    fig12_rodinia,
    fig13_parsec,
    topo_sweep,
)
from repro.experiments import common
from repro.experiments.common import CACHE_ENV_VAR, saturation_throughput
from repro.obs import OBS_ENV_VAR, drain_proc_registry, proc_registry
from repro.service.spec import (
    EXECUTION_ONLY_FIELDS,
    SimSpec,
    run_sim_spec,
    spec_identity,
)
from repro.service.store import STORE_ENV_VAR, ResultStore
from repro.topology.faults import (
    default_memory_controllers,
    inject_link_faults,
    sample_topologies,
)
from repro.topology.mesh import mesh


class TestFaultSeed:
    def test_none_is_not_in_to_dict(self):
        assert "fault_seed" not in SimSpec().to_dict()
        assert "fault_seed" not in SimSpec(link_faults=3, seed=9).to_dict()

    def test_a_value_round_trips_and_seeds_the_faults_alone(self):
        spec = SimSpec(link_faults=3, fault_seed=123, seed=9)
        payload = spec.to_dict()
        assert payload["fault_seed"] == 123
        assert SimSpec.from_dict(payload) == spec
        expected = inject_link_faults(mesh(8, 8), 3, random.Random(123))
        assert spec.build_topology().to_spec() == expected.to_spec()
        unseeded = SimSpec(link_faults=3, seed=9).build_topology()
        assert unseeded.to_spec() != expected.to_spec()

    @pytest.mark.parametrize("value", [True, 1.5, -1])
    def test_bool_float_and_negative_are_value_errors(self, value):
        with pytest.raises(ValueError, match="fault_seed"):
            SimSpec.from_dict({"fault_seed": value})

    @pytest.mark.parametrize(
        "kind,count,mcs",
        [("link", 6, None), ("router", 10, None), ("router", 20, "corners")],
    )
    def test_rebuilds_every_sampled_topology(self, kind, count, mcs):
        """The memory-controller filter skips attempts, so the seed is
        the attempt's, not the sample index's."""
        require = default_memory_controllers(8, 8) if mcs else None
        field = "link_faults" if kind == "link" else "router_faults"
        samples = list(
            sample_topologies(
                8, 8, kind, count, 4, 42, require_memory_controllers=require
            )
        )
        assert len(samples) == 4
        for fault_seed, topo in samples:
            spec = SimSpec(**{field: count}, fault_seed=fault_seed)
            assert spec.build_topology().to_spec() == topo.to_spec()


class _Stop(Exception):
    pass


def _cells(module, params, monkeypatch):
    """The args of every cell ``module.run(params)`` would execute."""
    seen = []

    def capture(jobs, workers=None):
        seen.extend(job.args for job in jobs)
        raise _Stop

    monkeypatch.setattr(common, "run_jobs", capture)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    with pytest.raises(_Stop):
        module.run(params)
    return seen


def _json_native(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_native(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_json_native(v) for v in value)
    return value is None or isinstance(value, (bool, int, float, str))


def _ids(cases):
    return [module.__name__.rpartition(".")[2] for module, _ in cases]


SIMULATING_FIGURES = [
    (fig2_deadlock_prone, dataclasses.replace(
        fig2_deadlock_prone.Fig2Params.quick(), method="sim")),
    (fig3_heatmap, fig3_heatmap.Fig3Params.quick()),
    (fig8_latency, fig8_latency.Fig8Params.quick()),
    (fig9_throughput, fig9_throughput.Fig9Params.quick()),
    (fig10_energy, fig10_energy.Fig10Params.quick()),
    (fig11_tdd_sweep, fig11_tdd_sweep.Fig11Params.quick()),
    (fig12_rodinia, fig12_rodinia.Fig12Params.quick()),
    (fig13_parsec, fig13_parsec.Fig13Params.quick()),
    (topo_sweep, topo_sweep.TopoSweepParams.quick()),
    (chaos, chaos.ChaosParams.quick()),
]


class TestEveryFigureCellIsASpec:
    @pytest.mark.parametrize(
        "module,params", SIMULATING_FIGURES, ids=_ids(SIMULATING_FIGURES)
    )
    def test_cells_are_a_spec_and_plain_values_whatever_the_workers(
        self, module, params, monkeypatch
    ):
        one = _cells(module, dataclasses.replace(params, workers=1), monkeypatch)
        two = _cells(module, dataclasses.replace(params, workers=2), monkeypatch)
        assert one and one == two
        for args in one:
            spec, *extras = args
            # The spec's identity: no execution-only field in the key.
            assert spec_identity(SimSpec.from_dict(spec).to_dict()) == spec
            assert not set(spec) & set(EXECUTION_ONLY_FIELDS)
            assert _json_native(spec) and _json_native(list(extras)), args
        # Distinct cells have distinct args: the args are the identity.
        assert len({json.dumps(args, sort_keys=True) for args in one}) == len(one)


def _blobs(root) -> int:
    return len(ResultStore(root))


TINY_SWEEPS = [
    (fig3_heatmap, fig3_heatmap.Fig3Params(
        link_fault_counts=[2], rates=[0.3], samples=2, cycles=150)),
    (fig12_rodinia, fig12_rodinia.Fig12Params(
        workloads=["bplus"], link_fault_counts=[4], router_fault_counts=[],
        samples=1, trace_duration=60, max_cycles=3000)),
    (chaos, chaos.ChaosParams(
        width=4, height=4, schemes=["static-bubble"], campaigns=2, events=2,
        traffic_cycles=150, max_cycles=2000)),
]


class TestCachedSweepsIgnoreTheWorkerCount:
    @pytest.mark.parametrize("module,params", TINY_SWEEPS, ids=_ids(TINY_SWEEPS))
    def test_second_worker_count_runs_nothing_and_adds_no_blob(
        self, module, params, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        monkeypatch.setenv(STORE_ENV_VAR, str(root))
        monkeypatch.setenv(CACHE_ENV_VAR, "1")
        cold = module.run(dataclasses.replace(params, workers=1))
        blobs = _blobs(root)
        assert blobs > 0

        def must_not_run(*args):
            raise AssertionError(f"executed {args}")

        # Every cell must be a hit: a miss would reach the runner.
        monkeypatch.setattr(common, "_stored_result", must_not_run)
        warm = module.run(dataclasses.replace(params, workers=2))
        assert _blobs(root) == blobs
        assert repr(dataclasses.replace(warm, params=cold.params)) == repr(cold)


class TestCellsRunThroughTheServiceExecutor:
    def test_fig8_cell_equals_run_sim_spec(self, monkeypatch):
        params = fig8_latency.Fig8Params(
            width=4, height=4, patterns=["uniform_random"], link_fault_counts=[2],
            samples=1, warmup=40, measure=120,
        )
        (spec,) = _cells(fig8_latency, params, monkeypatch)[0]
        monkeypatch.undo()
        result = run_sim_spec(spec)["result"]
        assert fig8_latency._measure_latency(spec) == (
            result["avg_latency"], result["packets_ejected"]
        )

    def test_fig9_cell_equals_its_per_rate_specs(self, monkeypatch):
        params = fig9_throughput.Fig9Params(
            width=4, height=4, rates=[0.05, 0.2, 0.4], link_fault_counts=[2],
            samples=1, warmup=40, measure=120,
        )
        spec, rates = _cells(fig9_throughput, params, monkeypatch)[0]
        monkeypatch.undo()
        accepted = [
            run_sim_spec({**spec, "rate": rate})["result"]["throughput_flits_node_cycle"]
            for rate in rates
        ]
        # Three rates: the early exit can stop only after the last one.
        assert saturation_throughput(spec, rates) == max(accepted) > 0


class TestFig11Observability:
    def test_cells_merge_simulator_metrics_and_keep_their_result(self, monkeypatch):
        params = fig11_tdd_sweep.Fig11Params(
            router_faults=4, t_dd_values=[5, 34], schemes=["static-bubble"],
            samples=1, cycles=150, workers=1,
        )
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        plain = fig11_tdd_sweep.run(params)
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        drain_proc_registry()
        observed = fig11_tdd_sweep.run(params)
        counters = proc_registry().counters
        drain_proc_registry()
        assert counters["sims"] == 2
        assert counters["net.cycles"] == 2 * 150
        assert repr(observed) == repr(plain)

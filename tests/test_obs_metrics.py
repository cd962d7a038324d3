"""Tests for the repro.obs metrics registry: counters/gauges/histograms,
cross-process merging, the ``REPRO_OBS`` switch, and the CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    OBS_ENV_VAR,
    Observer,
    drain_proc_registry,
    obs_enabled,
    proc_registry,
)
from repro.obs.metrics import Counter, Gauge, Histogram, LATENCY_BOUNDS
from repro.parallel import Job, run_jobs
from repro.sim.config import SimConfig
from repro.sim.engine import run_with_window
from repro.sim.network import Network
from repro.protocols.none import MinimalUnprotected
from repro.service.spec import SimSpec, run_window
from repro.topology.generators import parse_topology
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_extremes(self):
        g = Gauge()
        for v in (5, 2, 9):
            g.set(v)
        assert (g.value, g.min, g.max) == (9, 2, 9)

    def test_histogram_stats(self):
        h = Histogram(bounds=(10, 20, 30))
        for v in (1, 11, 12, 25, 99):
            h.add(v)
        assert h.count == 5
        assert h.min == 1 and h.max == 99
        assert h.mean == pytest.approx((1 + 11 + 12 + 25 + 99) / 5)
        assert h.percentile(0.5) <= h.percentile(0.99)

    def test_latency_histogram_percentiles_monotone(self):
        h = Histogram(LATENCY_BOUNDS)
        for v in range(1, 200):
            h.add(v)
        p50, p90, p99 = h.percentile(0.5), h.percentile(0.9), h.percentile(0.99)
        assert p50 <= p90 <= p99


class TestRegistryMerge:
    def test_merge_sums_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("sims").inc(2)
        b.counter("sims").inc(3)
        a.histogram("lat", (10, 20)).add(5)
        b.histogram("lat", (10, 20)).add(15)
        b.gauge("occ").set(7)
        a.merge(b)
        assert a.counters["sims"] == 5
        assert a.histogram("lat", (10, 20)).count == 2
        assert a.gauge("occ").value == 7

    def test_merge_dict_round_trip(self):
        a = MetricsRegistry()
        a.counter("x").inc(4)
        a.histogram("h", (1, 2)).add(1.5)
        snapshot = a.to_dict()
        b = MetricsRegistry()
        b.merge_dict(snapshot)
        b.merge_dict(snapshot)
        assert b.counters["x"] == 8
        assert b.histogram("h", (1, 2)).count == 2

    def test_histogram_bounds_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", (1, 2)).add(1)
        b = MetricsRegistry()
        b.histogram("h", (1, 2, 3)).add(1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_summary_lines_cover_all_metrics(self):
        a = MetricsRegistry()
        a.counter("c").inc()
        a.gauge("g").set(1)
        a.histogram("h").add(1)
        text = "\n".join(a.summary_lines())
        for name in ("c", "g", "h"):
            assert name in text


class TestProcRegistry:
    def test_drain_resets(self):
        proc_registry().counter("t").inc(3)
        snapshot = drain_proc_registry()
        assert snapshot["counters"]["t"] == 3
        assert proc_registry().is_empty

    def test_obs_enabled_env(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        assert not obs_enabled()
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        assert obs_enabled()
        monkeypatch.setenv(OBS_ENV_VAR, "0")
        assert not obs_enabled()


class TestEngineIntegration:
    def test_run_with_window_finalizes_observer(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.05, seed=2)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=2)
        obs = Observer(trace=False)
        run_with_window(net, warmup=50, measure=100, obs=obs)
        assert obs.metrics.counters["sims"] == 1
        assert obs.metrics.counters["net.cycles"] == 150
        assert obs.metrics.histogram("packet.latency", LATENCY_BOUNDS).count > 0

    def test_link_utilization_counts_every_network_port_off_mesh(self):
        """A 6-port router has six network links, not the mesh's four."""
        topo = parse_topology("torus3d:4x4x4")
        traffic = UniformRandomTraffic(topo, rate=0.3, seed=2)
        net = Network(topo, SimConfig(), MinimalUnprotected(), traffic, seed=2)
        obs = Observer(trace=False, sample_every=64)
        net.attach_obs(obs)
        net.run(65)
        cycle, sample = obs.link_util_series[0]
        assert sample["flit"] == net.stats.link_flit_cycles / (64 * 6 * cycle) > 0

    def test_run_synthetic_uses_proc_registry_when_enabled(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        drain_proc_registry()
        run_window(_tiny_spec(3))
        registry = proc_registry()
        assert registry.counters["sims"] == 1
        assert registry.counters["net.cycles"] == 70
        drain_proc_registry()

    def test_run_synthetic_untouched_when_disabled(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        drain_proc_registry()
        run_window(_tiny_spec(3))
        assert proc_registry().is_empty


def _tiny_spec(seed: int):
    """A 70-cycle static-bubble run on a 4x4 mesh."""
    return SimSpec(width=4, height=4, warmup=20, measure=50, seed=seed)


def _obs_job(seed: int):
    """Module-level (picklable) sweep job used by the pool-merge test."""
    result, _ = run_window(_tiny_spec(seed))
    return result.packets_ejected


class TestPoolMerge:
    def test_metrics_merge_across_workers(self, monkeypatch):
        """Counters from every pool worker land in the parent registry
        (the serial fallback accumulates in-process — same outcome)."""
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        drain_proc_registry()
        jobs = [Job(_obs_job, (seed,)) for seed in range(4)]
        results = run_jobs(jobs, workers=2)
        assert len(results) == 4
        registry = proc_registry()
        assert registry.counters["sims"] == 4
        assert registry.counters["net.cycles"] == 4 * 70
        drain_proc_registry()

    def test_no_merge_overhead_when_disabled(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        drain_proc_registry()
        jobs = [Job(_obs_job, (seed,)) for seed in range(2)]
        assert len(run_jobs(jobs, workers=2)) == 2
        assert proc_registry().is_empty


class TestCliSurfaces:
    def test_trace_scenario_fig6(self, capsys, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code = main(
            [
                "trace", "--scenario", "fig6",
                "--jsonl", str(jsonl), "--chrome", str(chrome),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 recovery transcript(s)" in out
        assert "completed" in out
        assert jsonl.exists() and chrome.exists()
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_trace_synthetic_traffic(self, capsys):
        code = main(
            [
                "trace", "--width", "4", "--height", "4",
                "--rate", "0.05", "--cycles", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events buffered" in out
        assert "metrics:" in out

    def test_experiment_obs_flag(self, capsys, monkeypatch):
        """--obs turns REPRO_OBS on for the run and prints the merged registry."""
        import types

        import repro.cli as cli_mod

        class TinyParams:
            workers = 1

            @classmethod
            def quick(cls):
                return cls()

            @classmethod
            def full(cls):
                return cls()

        tiny = types.SimpleNamespace(
            TinyParams=TinyParams,
            run=lambda params: run_window(_tiny_spec(1))[0],
            report=lambda result: f"tiny: {result.packets_ejected} ejected",
        )
        monkeypatch.setitem(cli_mod.ALL_EXPERIMENTS, "tiny", tiny)
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        drain_proc_registry()
        code = main(["experiment", "tiny", "--workers", "1", "--obs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny:" in out
        assert "observability metrics" in out
        assert "sims" in out
        drain_proc_registry()

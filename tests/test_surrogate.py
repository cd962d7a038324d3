"""Tests for the calibrated analytical fast lane (repro.surrogate).

The accuracy regression calibrates on a handful of real cycle-accurate
cells (small windows keep the suite fast) and pins the fig8-point error;
the property tests exercise the raw model's structural guarantees
(monotonicity, the zero-load hop bound) with no simulation at all.
"""

import json
import random
import sys
from collections import Counter

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.spec import SimSpec, run_sim_spec, spec_identity
from repro.service.store import CODE_SALT, ResultStore, spec_fingerprint
from repro.sim.config import SimConfig
from repro.surrogate import SurrogateOracle
from repro.surrogate.calibrate import (
    CalibrationTable,
    Sample,
    calibrate_from_store,
    cell_key,
)
from repro.surrogate.model import AnalyticalModel, _demand
from repro.surrogate.uncertainty import UncertaintyGate, support_distance
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh

#: The fig8 cell shape used throughout (small windows, real simulation).
FIG8 = dict(
    width=8, height=8, link_faults=4, scheme="static-bubble",
    pattern="uniform_random", warmup=150, measure=400, seed=3,
)


def _store_exact(store, **overrides):
    spec = SimSpec(**{**FIG8, **overrides})
    payload = run_sim_spec(spec.to_dict())
    store.put(spec_fingerprint(spec_identity(spec.to_dict())), payload)
    return spec, payload


@pytest.fixture()
def store(tmp_path):
    return ResultStore(root=tmp_path / "store", registry=MetricsRegistry())


@pytest.fixture(scope="module")
def calibrated():
    """One module-scoped calibrated oracle (3 exact cells, ~1 s)."""
    import tempfile
    from pathlib import Path

    store = ResultStore(
        root=Path(tempfile.mkdtemp(prefix="repro-surrogate-test-")),
        registry=MetricsRegistry(),
    )
    truths = {}
    for rate in (0.01, 0.02, 0.04):
        _, payload = _store_exact(store, rate=rate)
        truths[rate] = payload
    oracle = SurrogateOracle(store=store, registry=store.registry)
    oracle.calibration  # force the harvest
    return oracle, truths


class TestDemandModel:
    def test_uniform_mass_is_one_per_source(self):
        topo = mesh(4, 4)
        demand = _demand(topo, "uniform_random")
        assert len(demand) == 16
        for dsts in demand.values():
            assert sum(dsts.values()) == pytest.approx(1.0)

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError):
            _demand(mesh(4, 4), "tornado")

    def test_transpose_diagonal_sources_inactive(self):
        demand = _demand(mesh(4, 4), "transpose")
        diagonal = {mesh(4, 4).node_id(i, i) for i in range(4)}
        assert diagonal.isdisjoint(demand)


class TestRawModelProperties:
    def test_latency_monotone_in_offered_load(self):
        """Property: raw latency never decreases as the rate rises."""
        model = AnalyticalModel()
        topo = inject_link_faults(mesh(8, 8), 4, random.Random(3))
        config = SimConfig()
        rates = [0.002 * i for i in range(1, 120)]  # through saturation
        profile = model.profile(topo, "static-bubble", "uniform_random", config)
        latencies = [model.evaluate(profile, r, 150, 400).latency for r in rates]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_latency_at_least_zero_load_hop_bound(self):
        model = AnalyticalModel()
        topo = mesh(6, 6)
        config = SimConfig()
        for scheme in ("static-bubble", "spanning-tree", "escape-vc"):
            profile = model.profile(topo, scheme, "uniform_random", config)
            for rate in (0.001, 0.05, 0.3):
                raw = model.evaluate(profile, rate, 100, 200)
                assert raw.latency >= raw.hop_bound
                assert raw.hop_bound > 0

    def test_saturation_rate_finite_and_positive(self):
        model = AnalyticalModel()
        profile = model.profile(mesh(6, 6), "static-bubble", "uniform_random", SimConfig())
        raw = model.evaluate(profile, 0.05, 100, 200)
        assert 0 < raw.saturation_rate < float("inf")

    def test_spanning_tree_saturates_earlier_than_minimal(self):
        """Up/down routing concentrates load near the root, so the model
        must predict a lower saturation rate than balanced minimal paths
        (hop counts are near-identical on a healthy mesh — up/down paths
        are close to minimal — so saturation is the discriminator)."""
        model = AnalyticalModel()
        topo = mesh(6, 6)
        config = SimConfig()
        tree = model.profile(topo, "spanning-tree", "uniform_random", config)
        minimal = model.profile(topo, "static-bubble", "uniform_random", config)
        assert tree.saturation_rate < minimal.saturation_rate

    def test_profile_cache_reused_across_rates(self):
        model = AnalyticalModel()
        topo = mesh(4, 4)
        config = SimConfig()
        p1 = model.profile(topo, "static-bubble", "uniform_random", config)
        p2 = model.profile(topo, "static-bubble", "uniform_random", config)
        assert p1 is p2


class TestCalibration:
    def test_fit_recovers_linear_correction(self):
        from repro.surrogate.calibrate import _fit_metric

        pairs = [(x, 0.75 * x + 2.0) for x in (5.0, 10.0, 20.0, 40.0)]
        fit = _fit_metric(pairs)
        assert fit.scale == pytest.approx(0.75)
        assert fit.offset == pytest.approx(2.0)
        assert fit.residual == pytest.approx(0.05)  # floored, not zero

    def test_fit_scale_stays_positive(self):
        from repro.surrogate.calibrate import _fit_metric

        fit = _fit_metric([(1.0, 10.0), (2.0, 5.0), (3.0, 1.0)])
        assert fit.scale > 0  # monotonicity preserved over fidelity

    def test_harvest_from_store(self, store):
        for rate in (0.01, 0.03):
            _store_exact(store, rate=rate)
        store.put(spec_fingerprint({"kind": "manifest"}), {"cells": {}})
        table = calibrate_from_store(store, AnalyticalModel())
        assert table.sample_count == 2
        assert set(table.cells) == {"mesh/static-bubble"}
        cell = table.cells["mesh/static-bubble"]
        assert cell.fits["latency"].samples == 2
        assert cell.fits["energy"].samples == 2  # stats carry the counters

    def test_persistence_round_trip(self, store, tmp_path):
        _store_exact(store, rate=0.02)
        table = calibrate_from_store(store, AnalyticalModel())
        path = tmp_path / "calib.json"
        table.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded is not None
        assert loaded.fingerprint() == table.fingerprint()

    def test_salt_mismatch_discards_table(self, tmp_path):
        table = CalibrationTable()
        path = tmp_path / "calib.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["code_salt"] = "repro-0.0.0-schema0"
        path.write_text(json.dumps(doc))
        assert CalibrationTable.load(path) is None

    def test_fingerprint_changes_with_samples(self):
        table = CalibrationTable()
        before = table.fingerprint()
        table.ensure_cell("mesh", "static-bubble").add(
            Sample("ab" * 32, (0.1, 6.0, 60.0), {"latency": 20.0}, {"latency": 15.0})
        )
        assert table.fingerprint() != before


class TestUncertainty:
    SUPPORT = [(0.1, 6.0, 60.0), (0.2, 6.0, 60.0), (0.4, 6.0, 60.0)]

    def test_distance_zero_on_support(self):
        assert support_distance(self.SUPPORT[1], self.SUPPORT) == 0.0

    def test_distance_grows_off_support(self):
        near = support_distance((0.25, 6.0, 60.0), self.SUPPORT)
        far = support_distance((0.9, 6.0, 60.0), self.SUPPORT)
        assert 0 < near < far

    def test_empty_support_is_unbounded(self):
        assert support_distance((0.1, 6.0, 60.0), []) == float("inf")


class TestOracleAccuracy:
    def test_fig8_point_error_within_20pct(self, calibrated):
        """Acceptance: calibrated fig8-point latency error <= 20%."""
        oracle, truths = calibrated
        for rate, truth in truths.items():
            spec = SimSpec(**{**FIG8, "rate": rate})
            prediction = oracle.predict(spec)
            true_latency = truth["result"]["avg_latency"]
            err = abs(prediction.latency - true_latency) / true_latency
            assert err <= 0.20, f"rate {rate}: {err:.1%}"

    def test_calibrated_latency_keeps_hop_bound(self, calibrated):
        oracle, _ = calibrated
        prediction = oracle.predict(SimSpec(**{**FIG8, "rate": 0.001}))
        assert prediction.latency >= prediction.raw.hop_bound

    def test_every_answer_carries_bound_and_provenance(self, calibrated):
        oracle, _ = calibrated
        spec = SimSpec(**{**FIG8, "rate": 0.02, "mode": "surrogate"})
        payload = oracle.answer(spec)
        assert payload is not None
        meta = payload["surrogate"]
        assert meta["error_bound"] is not None and meta["error_bound"] > 0
        prov = meta["provenance"]
        assert prov["cell"] == cell_key("mesh", "static-bubble")
        assert prov["code_salt"] == CODE_SALT
        assert prov["calibration_fingerprint"] == oracle.calibration.fingerprint()
        assert payload["result"]["avg_latency"] > 0


class TestOracleGating:
    def test_exact_mode_never_answers(self, calibrated):
        oracle, _ = calibrated
        assert oracle.answer(SimSpec(**{**FIG8, "rate": 0.02})) is None

    def test_auto_answers_in_support_escalates_far_out(self, calibrated):
        oracle, _ = calibrated
        near = SimSpec(**{**FIG8, "rate": 0.02, "mode": "auto"})
        assert oracle.answer(near) is not None
        # A 12x12 mesh with different fault count: no calibration cellmate
        # features anywhere near support on load/hops/nodes -> escalate.
        far = SimSpec(
            width=12, height=12, link_faults=0, scheme="static-bubble",
            pattern="uniform_random", rate=0.30, warmup=150, measure=400,
            seed=3, mode="auto",
        )
        assert oracle.answer(far) is None

    def test_uncalibrated_cell_escalates_in_auto(self, store):
        oracle = SurrogateOracle(store=store, registry=store.registry)
        spec = SimSpec(**{**FIG8, "rate": 0.02, "mode": "auto"})
        assert oracle.answer(spec) is None
        assert store.registry.counters["surrogate.escalated"] == 1

    def test_unknown_pattern_escalates_auto_raises_forced(self, calibrated):
        oracle, _ = calibrated
        auto = SimSpec(**{**FIG8, "pattern": "tornado", "mode": "auto"})
        assert oracle.answer(auto) is None
        forced = SimSpec(**{**FIG8, "pattern": "tornado", "mode": "surrogate"})
        with pytest.raises(ValueError):
            oracle.answer(forced)

    def test_observe_feeds_calibration(self, store):
        spec, payload = _store_exact(store, rate=0.02)
        oracle = SurrogateOracle(store=store, registry=store.registry)
        before = oracle.calibration.sample_count
        spec2 = SimSpec(**{**FIG8, "rate": 0.01})
        payload2 = run_sim_spec(spec2.to_dict())
        assert oracle.observe(spec2.to_dict(), payload2)
        assert oracle.calibration.sample_count == before + 1
        # Persisted: a fresh oracle over the same store root reloads it.
        again = SurrogateOracle(store=store, registry=MetricsRegistry())
        assert again.calibration.sample_count == before + 1

    def test_observe_skips_surrogate_payloads(self, calibrated):
        oracle, _ = calibrated
        spec = SimSpec(**{**FIG8, "rate": 0.02, "mode": "surrogate"})
        payload = oracle.answer(spec)
        assert not oracle.observe(spec.to_dict(), payload)


class TestSpecModeField:
    def test_mode_is_execution_only(self):
        exact = SimSpec(**{**FIG8, "mode": "exact"})
        auto = SimSpec(**{**FIG8, "mode": "auto"})
        assert spec_fingerprint(spec_identity(exact.to_dict())) == spec_fingerprint(
            spec_identity(auto.to_dict())
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SimSpec.from_dict({**SimSpec().to_dict(), "mode": "psychic"})


class TestWarmCaches:
    """The two spec-keyed memos and the cached calibration fingerprint
    change what a warm answer costs, never what it says."""

    def _provenance_fp(self, oracle, **overrides):
        spec = SimSpec(**{**FIG8, "rate": 0.015, **overrides})
        return oracle.predict(spec).provenance["calibration_fingerprint"]

    def test_fingerprint_tracks_every_table_change(self, store, monkeypatch):
        _store_exact(store, rate=0.02)
        oracle = SurrogateOracle(store=store, registry=store.registry, save_every=4)
        # lazy load (here: a first harvest of the store)
        assert self._provenance_fp(oracle) == oracle.calibration.fingerprint()
        # observe
        seen = self._provenance_fp(oracle)
        spec = SimSpec(**{**FIG8, "rate": 0.01})
        assert oracle.observe(spec.to_dict(), run_sim_spec(spec.to_dict()))
        assert self._provenance_fp(oracle) == oracle.calibration.fingerprint() != seen
        # flush writes the table and leaves it as it is
        seen = self._provenance_fp(oracle)
        assert oracle.flush()
        assert self._provenance_fp(oracle) == oracle.calibration.fingerprint() == seen
        # refresh re-harvests: the observed cell was never stored
        oracle.refresh()
        assert self._provenance_fp(oracle) == oracle.calibration.fingerprint() != seen
        assert oracle.status()["calibration_fingerprint"] == oracle.calibration.fingerprint()
        # a table saved under another CODE_SALT is discarded and refitted
        doc = json.loads(oracle.path.read_text())
        doc["code_salt"] = "repro-0.0.0-schema0"
        doc["cells"] = {}
        oracle.path.write_text(json.dumps(doc))
        again = SurrogateOracle(store=store, registry=MetricsRegistry())
        assert again.calibration.sample_count == 1
        assert self._provenance_fp(again) == again.calibration.fingerprint()

    def test_warm_predictions_rederive_nothing(self, calibrated, monkeypatch, tmp_path):
        shared, _ = calibrated
        oracle = SurrogateOracle(  # own table file: the observation stays here
            store=shared.store, registry=MetricsRegistry(), path=tmp_path / "c.json"
        )
        fingerprints, builds = [], []
        real_fp, real_build = CalibrationTable.fingerprint, SimSpec.build_topology
        monkeypatch.setattr(
            CalibrationTable, "fingerprint",
            lambda self: fingerprints.append(1) or real_fp(self),
        )
        monkeypatch.setattr(
            SimSpec, "build_topology",
            lambda self: builds.append(self.seed) or real_build(self),
        )
        exact = SimSpec(**{**FIG8, "rate": 0.03})
        payload = run_sim_spec(exact.to_dict())
        del builds[:]
        observations = 0
        for i in range(1000):
            spec = SimSpec(**{**FIG8, "seed": 3 + i % 2, "rate": 0.01 + (i % 7) / 1e3})
            assert oracle.is_warm(spec) == (i >= 2 and i != 501)
            oracle.predict(spec)
            if i == 500:
                assert oracle.observe(exact.to_dict(), payload)
                observations += 1
        assert len(fingerprints) == 1 + observations
        assert sorted(builds) == [3, 4]  # once per distinct topology key

    #: Frames entered per package by 200 warm ``predict(spec)`` calls:
    #: per call one ``SimConfig`` (``spec.build_config``), one
    #: ``repro.service`` frame and the prediction counter's two.
    #: ``repro.surrogate`` is left out: its count moves with the
    #: interpreter (comprehensions are frames before CPython 3.12).
    WARM_PREDICT_FRAMES = {
        "repro.sim": 200, "repro.routing": 0, "repro.service": 200, "repro.obs": 400,
    }

    def test_a_warm_cell_prediction_steps_no_network_and_walks_no_table(
        self, calibrated
    ):
        """A sweep over rates shares one topology, so a warm
        ``predict(spec)`` steps no ``Network`` and walks no routing table:
        exact frame counts per package, whatever the host's speed."""
        oracle, _ = calibrated
        specs = [SimSpec(**{**FIG8, "rate": 0.005 + 0.002 * (i % 20)}) for i in range(200)]
        oracle.predict(specs[0])  # the topology and its load profile
        entered = Counter()

        def count(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "")
                entered[".".join(module.split(".")[:2])] += 1

        sys.setprofile(count)
        try:
            for spec in specs:
                oracle.predict(spec)
        finally:
            sys.setprofile(None)
        assert entered["repro.surrogate"] >= 200
        assert {name: entered[name] for name in self.WARM_PREDICT_FRAMES} == (
            self.WARM_PREDICT_FRAMES
        )

    def test_a_cold_profile_places_no_bubble(self):
        """A cold load profile routes the demand over the routing tables
        and stops there: it builds no scheme, so it never asks where the
        static bubbles go (exact frame counts, whatever the host)."""
        spec = SimSpec(**FIG8)
        topo, config = spec.build_topology(), spec.build_config()
        entered = Counter()

        def count(frame, event, arg):
            if event == "call":
                entered[frame.f_globals.get("__name__", "")] += 1

        sys.setprofile(count)
        try:
            AnalyticalModel().profile(topo, "static-bubble", spec.pattern, config)
        finally:
            sys.setprofile(None)
        assert entered["repro.surrogate.model"] > 0
        assert entered["repro.core.placement"] == 0
        assert entered["repro.protocols.static_bubble"] == 0

    def test_grid_payloads_identical_warm_and_fresh(self, calibrated):
        """Topology x scheme x pattern: the memoized path answers every
        cell byte for byte as an oracle that has memoized nothing."""
        shared, _ = calibrated
        warm = SurrogateOracle(store=shared.store, registry=MetricsRegistry())
        topologies = (
            dict(width=8, height=8, link_faults=4, seed=3),
            dict(width=6, height=6, link_faults=2, router_faults=1, seed=9),
            dict(width=4, height=4, topology="torus3d:3x3x3", link_faults=1, seed=2),
        )
        schemes = (
            "static-bubble", "escape-vc", "spanning-tree",
            "adaptive", "adaptive-escape", "xy",
        )
        patterns = ("uniform_random", "bit_complement", "transpose")
        cells = 0
        for _round in range(2):  # second round: every lookup is warm
            for topo in topologies:
                for scheme in schemes:
                    for pattern in patterns:
                        spec = SimSpec(
                            **topo, scheme=scheme, pattern=pattern, rate=0.02,
                            warmup=100, measure=300, mode="surrogate",
                        )
                        fresh = SurrogateOracle(
                            store=shared.store, registry=MetricsRegistry()
                        )
                        try:
                            expected = fresh.answer(spec)
                        except ValueError:  # pattern needs a mesh
                            with pytest.raises(ValueError):
                                warm.answer(spec)
                            continue
                        got = warm.answer(spec)
                        assert json.dumps(got, sort_keys=True) == json.dumps(
                            expected, sort_keys=True
                        )
                        cells += 1
        assert cells == 2 * (3 * 6 * 3 - 6 * 2)  # torus3d has no mesh patterns

    def test_topology_memo_keys_and_bounds(self):
        model = AnalyticalModel()
        base = SimSpec(**FIG8)
        for spec in (
            base,
            SimSpec(**{**FIG8, "seed": 4}),
            SimSpec(**{**FIG8, "link_faults": 5}),
            SimSpec(**{**FIG8, "rate": 0.2, "scheme": "escape-vc"}),  # same topology
        ):
            model.predict_spec(spec)
        assert len(model._topologies) == 3
        topos = [topo for topo, _ in model._topologies.values()]
        assert len({id(t) for t in topos}) == 3
        for seed in range(100, 100 + 2 * model._CACHE_MAX):
            model.predict_spec(SimSpec(width=3, height=3, link_faults=1, seed=seed))
        assert len(model._topologies) == model._CACHE_MAX
        assert len(model._profiles) <= model._CACHE_MAX
        assert not model.is_warm(base)  # evicted, oldest first
        assert model.is_warm(SimSpec(width=3, height=3, link_faults=1, seed=seed))


class TestServerFastLane:
    @pytest.fixture()
    def server(self, tmp_path, calibrated):
        from repro.service.server import ServiceServer

        oracle, _ = calibrated
        store = oracle.store  # pre-calibrated store: the lane can answer
        with ServiceServer(port=0, store=store, workers=2, quiet=True) as srv:
            yield srv

    def test_surrogate_submission_answers_synchronously(self, server):
        from repro.service.client import ServiceClient

        client = ServiceClient(server.url)
        # Rate 0.015 is inside support but NOT a calibration seed, so the
        # store has no exact entry for it before or after the answer.
        spec = SimSpec(**{**FIG8, "rate": 0.015, "mode": "surrogate"})
        from repro.service.server import fingerprint_for

        assert server.store.get(fingerprint_for(spec)) is None
        payload = client.submit(spec)
        assert payload["status"] == "done"
        assert payload.get("surrogate") is True
        meta = payload["result"]["surrogate"]
        assert meta["error_bound"] is not None
        assert meta["provenance"]["cell"] == "mesh/static-bubble"
        # The exact store was not polluted by the synchronous answer.
        assert server.store.get(fingerprint_for(spec)) is None

    def test_surrogate_status_endpoint(self, server):
        import urllib.request

        with urllib.request.urlopen(server.url + "/surrogate") as response:
            status = json.loads(response.read())
        assert status["samples"] == 3
        assert "mesh/static-bubble" in status["cells"]

    def test_exact_mode_still_simulates(self, server):
        from repro.service.client import ServiceClient

        client = ServiceClient(server.url)
        spec = SimSpec(width=3, height=3, rate=0.03, warmup=30, measure=80, seed=5)
        payload = client.run(spec, timeout=60)
        assert payload["status"] == "done"
        assert "surrogate" not in payload
        assert "stats" in payload["result"]

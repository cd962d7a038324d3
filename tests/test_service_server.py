"""Tests for the HTTP campaign server, client, and serve/submit CLI.

Servers bind port 0 (ephemeral) and run the real front end; the
simulations are tiny 3x3 meshes so the end-to-end paths stay fast.
"""

import json
import time

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer, fingerprint_for
from repro.service.spec import SimSpec, run_sim_spec
from repro.service.store import ResultStore

TINY = dict(width=3, height=3, rate=0.03, warmup=30, measure=80, seed=5)


def slow_runner(spec):
    time.sleep(0.6)
    return {"slow": True, "spec": spec}


@pytest.fixture()
def server(tmp_path):
    store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
    with ServiceServer(port=0, store=store, workers=2, quiet=True) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True
        assert "depth" in payload

    def test_submit_then_cached_hit_identical(self, server, client):
        """Acceptance: the second identical POST is an instant cache hit
        with a payload identical to the first run's result."""
        spec = SimSpec(**TINY)
        first = client.run(spec, timeout=60)
        assert first["status"] == "done"
        assert first["cached"] is False
        second = client.submit(spec)
        assert second["status"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert second["fingerprint"] == fingerprint_for(spec)

    def test_result_endpoint(self, client):
        spec = SimSpec(**TINY)
        done = client.run(spec, timeout=60)
        blob = client.result(done["fingerprint"])
        assert blob == done["result"]
        assert blob["spec"]["width"] == 3

    def test_unknown_job_and_result_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.job("0" * 64)
        assert exc_info.value.status == 404
        with pytest.raises(ServiceError) as exc_info:
            client.result("f" * 64)
        assert exc_info.value.status == 404

    def test_malformed_spec_400(self, client):
        status, payload, _ = client._request(
            "POST", "/jobs", {"width": 3, "definitely_not_a_field": 1}
        )
        assert status == 400
        assert "definitely_not_a_field" in payload["error"]

    def test_invalid_scheme_400(self, client):
        status, payload, _ = client._request(
            "POST", "/jobs", {"scheme": "nope"}
        )
        assert status == 400
        # Specs that parse but could never run are refused at the edge,
        # not queued to fail in a worker.
        for body in (
            {"pattern": "nope"},
            {"link_faults": -2},
            {"router_faults": -1},
            {"vcs_per_vnet": 0},
            {"vnets": 0},
            {"sb_t_dd": -5},
            {"scheme": "xy", "topology": "torus3d:3x3x3"},
            {"fault_seed": True},
            {"fault_seed": 1.5},
            {"fault_seed": -1},
        ):
            status, payload, _ = client._request("POST", "/jobs", body)
            assert status == 400, body
            with pytest.raises(ValueError):
                SimSpec.from_dict(body)

    def test_a_router_past_the_port_bound_is_a_400(self, client):
        """Routes are bytes: 300 ports per router cannot be routed."""
        status, payload, _ = client._request(
            "POST", "/jobs", {"topology": "fullmesh:300"}
        )
        assert status == 400
        assert "radix 299 > 255" in payload["error"]

    def test_engine_field_is_validated_echoed_and_ignored(self, client):
        """There is one simulator; stored specs and old clients still say
        ``engine``.  An unknown spelling is refused, a known one rides
        along: same fingerprint, same result, echoed verbatim."""
        status, payload, _ = client._request("POST", "/jobs", {"engine": "warp"})
        assert status == 400
        assert "warp" in payload["error"]

        plain = SimSpec(**TINY)
        stored = dict(plain.to_dict(), engine="fast")
        spec = SimSpec.from_dict(stored)
        assert spec.to_dict() == stored
        assert fingerprint_for(spec) == fingerprint_for(plain)
        result = client.run(spec, timeout=60)["result"]
        assert result["spec"] == stored
        expected = run_sim_spec(plain.to_dict())
        assert {**result, "spec": None} == {**expected, "spec": None}

    def test_unknown_endpoint_404(self, client):
        status, _, _ = client._request("GET", "/nope")
        assert status == 404

    def test_metrics_exposition(self, client):
        spec = SimSpec(**TINY, pattern="bit_complement")
        client.run(spec, timeout=60)
        text = client.metrics()
        assert "# TYPE repro_service_store_put counter" in text
        assert "repro_service_queue_depth" in text

    def test_keep_alive_round_trips_do_not_stall(self, client):
        """Head and body leave as two segments; without ``TCP_NODELAY``
        every response on a reused connection waits ~40 ms for the
        client's delayed ACK."""
        import statistics

        client.healthz()
        took = []
        for _ in range(50):
            began = time.perf_counter()
            client.healthz()
            took.append(time.perf_counter() - began)
        assert statistics.median(took) < 0.010

    def test_priority_field_accepted(self, client):
        status, payload, _ = client._request(
            "POST", "/jobs", {**TINY, "priority": 3}
        )
        assert status in (200, 202)


class TestBackpressure:
    def test_429_past_max_depth(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with ServiceServer(
            port=0, store=store, runner=slow_runner, workers=1, max_depth=1,
            quiet=True,
        ) as srv:
            client = ServiceClient(srv.url)
            first = client.submit(SimSpec(**TINY))
            assert first["status"] in ("pending", "running")
            other = SimSpec(**{**TINY, "seed": 99})
            status, payload, _ = client._request(
                "POST", "/jobs", other.to_dict()
            )
            assert status == 429
            assert payload["retry_after"] >= 1
            # The client-side policy retries 429s with backoff until the
            # queue drains.
            second = client.submit(other, max_backoff_retries=8, backoff=0.3)
            assert second["status"] in ("pending", "running", "done")
            client.wait_job(second["job_id"], timeout=60)

    def test_duplicate_posts_coalesce(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with ServiceServer(
            port=0, store=store, runner=slow_runner, workers=2, quiet=True
        ) as srv:
            client = ServiceClient(srv.url)
            spec = SimSpec(**TINY)
            a = client.submit(spec)
            b = client.submit(spec)
            assert a["job_id"] == b["job_id"]
            client.wait_job(a["job_id"], timeout=60)
            assert store.registry.counters["service.queue.executed"] == 1
            assert store.registry.counters["service.queue.coalesced"] >= 1


class TestCli:
    def test_submit_wait_json_roundtrip(self, server, capsys):
        argv = [
            "submit", "--url", server.url,
            "--width", "3", "--height", "3",
            "--rate", "0.03", "--warmup", "30", "--cycles", "80",
            "--seed", "11", "--wait", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["status"] == "done"
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_submit_table_output(self, server, capsys):
        argv = [
            "submit", "--url", server.url,
            "--width", "3", "--height", "3",
            "--rate", "0.03", "--warmup", "30", "--cycles", "80",
            "--seed", "12", "--wait",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "status" in out

    def test_submit_unreachable_server(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:9", "--wait"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_simulate_json(self, capsys):
        argv = [
            "simulate", "--width", "3", "--height", "3",
            "--rate", "0.03", "--warmup", "30", "--cycles", "80", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["width"] == 3
        assert payload["result"]["cycles"] == 110
        assert payload["stats"]["packets_ejected"] >= 0
        # The CLI payload matches the service payload for the same spec
        # — one serializer everywhere.
        direct = run_sim_spec(payload["spec"])
        assert direct == payload

    def test_experiment_json(self, capsys):
        assert main(["experiment", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert payload["result"]["__repro__"] == "dataclass"

"""One store class: a bare root is a one-shard map.

``tests/data/store_layout`` is a committed store directory (three blobs
and the surrogate calibration sidecar) that pins the on-disk layout: it
must read back, and re-write, byte for byte.  The rest checks that the
one-root and the mapped spelling of a store are the same store, that the
key rule is one rule, and that the server sees every shard's traffic.
"""

import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer
from repro.service.spec import SimSpec, spec_identity
from repro.service.store import ResultStore, ShardMap, spec_fingerprint
from repro.surrogate import CALIBRATION_FILENAME, SurrogateOracle
from repro.surrogate.calibrate import CalibrationTable

LAYOUT = Path(__file__).parent / "data" / "store_layout"
#: ``CalibrationTable.fingerprint()`` of the committed sidecar.
LAYOUT_CALIBRATION_FP = "d33e1f8df13d9f48d08c737c871bcc994078d97bd3088fb7367d3a4370ea700c"
#: The two simulation cells stored in the committed layout.
LAYOUT_SPECS = [
    SimSpec(width=3, height=3, rate=rate, warmup=30, measure=80, seed=5)
    for rate in (0.02, 0.05)
]
TINY = dict(width=3, height=3, rate=0.03, warmup=30, measure=80, seed=5)


@pytest.fixture()
def layout(tmp_path):
    root = tmp_path / "layout"
    shutil.copytree(LAYOUT, root)
    return root


class TestCommittedLayout:
    def test_blobs_read_back_and_rewrite_byte_identical(self, layout, tmp_path):
        store = ResultStore(layout, registry=MetricsRegistry())
        fresh = ResultStore(tmp_path / "fresh", registry=MetricsRegistry())
        blobs = sorted(layout.glob("??/*.json"))
        assert len(blobs) == len(store) == 3
        assert sorted(store.iter_fingerprints()) == [blob.stem for blob in blobs]
        for blob in blobs:
            fp = blob.stem
            assert store.path_for(fp) == blob
            payload = store.get(fp)
            assert payload == json.loads(blob.read_bytes())
            written = fresh.put(fp, payload)
            assert written.relative_to(fresh.root) == blob.relative_to(layout)
            assert written.read_bytes() == blob.read_bytes()
        assert store.registry.counters["service.store.hit"] == 3

    def test_spec_fingerprints_unchanged(self, layout):
        store = ResultStore(layout, registry=MetricsRegistry())
        for spec in LAYOUT_SPECS:
            fp = spec_fingerprint(spec_identity(spec.to_dict()))
            assert store.contains(fp)
            assert store.get(fp)["spec"]["rate"] == spec.rate

    def test_calibration_sidecar_reads_back(self, layout, tmp_path):
        oracle = SurrogateOracle(
            store=ResultStore(layout, registry=MetricsRegistry()),
            registry=MetricsRegistry(),
        )
        assert oracle.path == layout / CALIBRATION_FILENAME
        table = CalibrationTable.load(oracle.path)
        assert table is not None
        assert table.fingerprint() == LAYOUT_CALIBRATION_FP
        again = table.save(tmp_path / "again.json")
        assert again.read_bytes() == oracle.path.read_bytes()


def _drive(store):
    """One put / get / corrupt / evict sequence; returns what it left."""
    pad = {"pad": "x" * 200}  # ~209 bytes: the 450-byte cap fits two
    old, hot, torn, new = (spec_fingerprint({"i": name}) for name in ("old", "hot", "torn", "new"))
    assert store.get(old) is None
    store.put(old, pad)
    store.put(hot, pad)
    assert store.get(old) == pad
    now = time.time()
    os.utime(store.path_for(old), (now - 100, now - 100))
    os.utime(store.path_for(hot), (now, now))
    store.put(new, pad)  # crosses the cap: `old` goes
    store.path_for(hot).write_text("{torn")
    assert store.get(hot) is None
    store.put(torn, {"v": 1})
    files = {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*"))
        if path.is_file()
    }
    return dict(store.registry.counters), files, len(store), store.size_bytes()


class TestOneRootIsAOneShardMap:
    def test_bare_root_and_one_shard_map_behave_identically(self, tmp_path):
        bare = ResultStore(tmp_path / "bare", max_bytes=450, registry=MetricsRegistry())
        mapped = ResultStore(
            ShardMap.local([tmp_path / "mapped"], replicas=1),
            max_bytes=450,
            registry=MetricsRegistry(),
        )
        assert bare.map.to_dict()["shards"][0]["name"] == "s0"
        assert [s.name for s in mapped.map.shards] == ["s0"]
        assert bare.map.replicas == mapped.map.replicas == 1
        seen = _drive(bare)
        assert seen == _drive(mapped)
        counters = seen[0]
        assert counters["service.store.evict"] >= 1
        assert counters["service.store.corrupt"] == 1

    def test_registry_swap_reaches_every_shard(self, tmp_path):
        store = ResultStore(
            ShardMap.local([tmp_path / "a", tmp_path / "b"], replicas=2),
            registry=MetricsRegistry(),
        )
        swapped = MetricsRegistry()
        store.registry = swapped
        fp = spec_fingerprint({"i": 1})
        store.put(fp, {"v": 1})
        assert swapped.counters["service.store.put"] == 2


class TestKeyRule:
    @pytest.mark.parametrize(
        "key",
        ["0123abcd", "0123456789abcde", "0123456789ABCDEF", "0123456789abcdef/../x"],
    )
    def test_rejected_by_get_put_and_owners_alike(self, tmp_path, key):
        store = ResultStore(tmp_path, registry=MetricsRegistry())
        for call in (store.get, store.contains, store.path_for, store.map.owners):
            with pytest.raises(ValueError):
                call(key)
        with pytest.raises(ValueError):
            store.put(key, {})

    def test_sixteen_hex_characters_is_a_key(self, tmp_path):
        store = ResultStore(tmp_path, registry=MetricsRegistry())
        key = "0123456789abcdef"
        assert store.map.owners(key) == ["s0"]
        store.put(key, {"v": 1})
        assert store.get(key) == {"v": 1}


class TestServerSeesTheStore:
    def test_one_root_healthz_degrades_when_its_root_goes(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root, registry=MetricsRegistry())
        with ServiceServer(port=0, store=store, quiet=True, surrogate=False) as server:
            with ServiceClient(server.url) as client:
                assert client.healthz()["shards"] == {"s0": True}
                shutil.rmtree(root)
                with pytest.raises(ServiceError) as exc_info:
                    client.healthz()
        assert exc_info.value.status == 503
        assert exc_info.value.payload["shards"] == {"s0": False}
        assert exc_info.value.payload["degraded"] == "shard unreachable"

    def test_sharded_server_metrics_count_store_traffic(self, tmp_path):
        store = ResultStore(
            ShardMap.local([tmp_path / "a", tmp_path / "b"], replicas=2),
            registry=MetricsRegistry(),
        )
        with ServiceServer(
            port=0, store=store, workers=1, quiet=True, surrogate=False
        ) as server:
            with ServiceClient(server.url) as client:
                assert client.run(SimSpec(**TINY), timeout=60)["status"] == "done"
                text = client.metrics()
        values = {
            name: float(value)
            for name, value in (
                line.split() for line in text.splitlines() if not line.startswith("#")
            )
        }
        assert values["repro_service_store_put"] == 2  # primary + replica
        assert values["repro_service_store_miss"] >= 1  # the submit's lookup

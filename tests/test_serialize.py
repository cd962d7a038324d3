"""Tests for the canonical serializer (repro.utils.serialize).

The serializer backs three load-bearing surfaces — the CLI ``--json``
flags, the content-addressed result store, and the ``fan_out`` sweep
cache — so the properties under test are exactness of the round trip
and byte-stability of the canonical form.
"""

import json
import math
import random
import threading

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import WindowResult
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.utils.serialize import (
    SerializationError,
    canonical_json,
    fingerprint,
    from_jsonable,
    to_jsonable,
    write_json_atomic,
)


def roundtrip(obj):
    return from_jsonable(to_jsonable(obj))


class TestRoundTrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 3.25, "x", ""):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_nonfinite_floats(self):
        assert roundtrip(math.inf) == math.inf
        assert math.isnan(roundtrip(math.nan))

    def test_tuples_stay_tuples(self):
        value = (1, (2.5, "a"), [3, (4,)])
        back = roundtrip(value)
        assert back == value
        assert isinstance(back, tuple)
        assert isinstance(back[1], tuple)
        assert isinstance(back[2], list)
        assert isinstance(back[2][1], tuple)

    def test_sets(self):
        assert roundtrip({3, 1, 2}) == {1, 2, 3}
        back = roundtrip(frozenset(("a", "b")))
        assert back == frozenset(("a", "b"))
        assert isinstance(back, frozenset)

    def test_tuple_keyed_dict(self):
        value = {("fig8", 4, "static-bubble"): 12.5, ("fig8", 8, "escape-vc"): 13.0}
        back = roundtrip(value)
        assert back == value
        assert all(isinstance(k, tuple) for k in back)

    def test_dataclasses(self):
        config = SimConfig(width=4, height=4, vcs_per_vnet=2)
        back = roundtrip(config)
        assert back == config
        assert isinstance(back, SimConfig)
        result = WindowResult(12.0, 0.05, 100, False, 2000)
        assert roundtrip(result) == result

    def test_nested_dataclass_in_dict(self):
        value = {"a": [WindowResult(1.0, 0.1, 5, True, 10), (1, 2)]}
        back = roundtrip(value)
        assert back == value
        assert isinstance(back["a"][0], WindowResult)

    def test_topology(self):
        topo = inject_link_faults(mesh(4, 4), 3, random.Random(7))
        topo.deactivate_node(5)
        back = roundtrip(topo)
        assert back.to_spec() == topo.to_spec()
        assert back.active_links() == topo.active_links()
        assert back.active_nodes() == topo.active_nodes()

    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            to_jsonable(object())

    def test_dataclass_import_restricted(self):
        tagged = {
            "__repro__": "dataclass",
            "type": "os:stat_result",
            "fields": {},
        }
        with pytest.raises(SerializationError):
            from_jsonable(tagged)


class TestCanonicalForm:
    def test_key_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_fingerprint_stability(self):
        spec = {"width": 8, "rate": 0.05, "counts": (1, 2, 3)}
        assert fingerprint(spec) == fingerprint(dict(reversed(list(spec.items()))))

    def test_fingerprint_sensitivity(self):
        assert fingerprint({"seed": 1}) != fingerprint({"seed": 2})
        assert fingerprint({"a": 1}) != fingerprint({"a": 1}, salt="v2")

    def test_list_vs_tuple_distinct(self):
        """A tuple and a list of the same items are different values."""
        assert fingerprint((1, 2)) != fingerprint([1, 2])

    def test_topology_canonical_across_fault_order(self):
        a = mesh(4, 4)
        a.deactivate_link(0, 1)
        a.deactivate_link(5, 6)
        b = mesh(4, 4)
        b.deactivate_link(5, 6)
        b.deactivate_link(0, 1)
        assert canonical_json(a) == canonical_json(b)


class TestAtomicJsonWrite:
    """Every JSON file the package writes goes through one helper."""

    def test_writes_and_counts_bytes(self, tmp_path):
        path = tmp_path / "deep" / "out.json"
        written = write_json_atomic(path, {"b": 1, "a": [1, 2]}, sort_keys=True)
        assert path.read_bytes() == json.dumps({"a": [1, 2], "b": 1}, sort_keys=True).encode()
        assert written == path.stat().st_size
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.json"]

    @pytest.mark.parametrize("writer", ["helper", "manifest", "trace"])
    def test_unserialisable_payload_leaves_directory_as_it_was(self, tmp_path, writer):
        from repro.service.campaign import _write_manifest
        from repro.traffic.trace import TraceTraffic, save_trace

        path = tmp_path / "target.json"
        path.write_text("previous")
        write = {
            "helper": lambda: write_json_atomic(path, {"x": object()}),
            "manifest": lambda: _write_manifest(path, {"cells": {"x": object()}}),
            "trace": lambda: save_trace(TraceTraffic([(0, 1, 2, 0, object())]), path),
        }[writer]
        with pytest.raises(TypeError):
            write()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target.json"]
        assert path.read_text() == "previous"

    def test_threads_saving_one_trace_do_not_collide(self, tmp_path):
        from repro.traffic.trace import TraceTraffic, load_trace, save_trace

        path = tmp_path / "trace.json"
        trace = TraceTraffic([(c, 0, 1, 0, 1) for c in range(200)])
        errors = []

        def save_many():
            try:
                for _ in range(40):
                    save_trace(trace, path)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=save_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert load_trace(path).events == trace.events
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

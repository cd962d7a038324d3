"""Self-test of the harness: ``python -m pytest benchmarks/harness -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests/``): it starts
servers and subprocesses and takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.harness import checks, cli, compare, metrics  # noqa: E402
from benchmarks.harness.common import run_spec_traced  # noqa: E402
from benchmarks.harness.measure import Tracer  # noqa: E402
from repro.service.spec import SimSpec, run_sim_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(workload: str, *extra: str, env=None) -> dict:
    """One smoke run in a subprocess; returns the parsed last line."""
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--workload", workload,
         "--seed", "1", "--smoke", *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result: dict, declared) -> None:
    assert list(result["metrics"]) == [m.name for m in declared]  # each exactly once
    for metric in declared:
        cell = result["metrics"][metric.name]
        assert cell["unit"] == metric.unit
        assert math.isfinite(cell["value"]), metric.name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_benchmark_json_mirrors_the_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= doc[
        "end_to_end"
    ][0].items()
    assert len(doc["per_layer"]) <= 128 and 2 <= len(doc["workloads"]) <= 8
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up.
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 12) < 3420


def test_smoke_of_every_workload_is_quick_and_complete():
    begin = time.monotonic()
    for workload in metrics.WORKLOADS:
        _assert_metrics(_run(workload.name, "--seconds", "1"), metrics.END_TO_END)
    assert time.monotonic() - begin < 20


def test_traced_campaign_emits_every_layer_metric_and_covering_spans():
    result = _run("campaign-cold", "--seconds", "2", "--trace", "1")
    _assert_metrics(result, metrics.PER_LAYER)
    spans = json.loads((HARNESS / "out" / "trace_campaign-cold.json").read_text())["spans"]
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    jobs = [s for s in spans if s["name"] == "job"]
    assert jobs
    for job in jobs:
        steps = {s["name"]: s for s in children[job["id"]]}
        assert set(steps) == {"submit", "queue_wait", "claim", "execute", "settle"}
        covered = sum(s["end"] - s["start"] for s in steps.values())
        assert covered >= 0.9 * (job["end"] - job["start"])
        assert {s["trace"] for s in steps.values()} == {job["trace"]}
        inner = [s["name"] for s in children[steps["execute"]["id"]]]
        assert inner == ["topology", "tables", "construct", "run", "payload"]
    assert result["metrics"]["campaign.exec_child_coverage"]["value"] >= 0.9


def test_callers_repro_knobs_are_scrubbed(tmp_path, monkeypatch, capsys):
    def model_of(out_file: Path) -> dict:
        args = ["--workload", "sim-sat", "--smoke", "--seconds", "0.2", "--out", str(out_file)]
        assert cli.main(args) == 0
        capsys.readouterr()
        return json.loads(out_file.read_text())["info"]["model"]

    plain = model_of(tmp_path / "plain.jsonl")
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    monkeypatch.setenv("REPRO_TABLE_CACHE", "0")
    assert model_of(tmp_path / "knobs.jsonl") == plain
    assert not [name for name in os.environ if name.startswith("REPRO_")]


def test_checks_trip_on_doctored_payloads():
    spec = SimSpec(width=3, height=3, rate=0.2, warmup=10, measure=60)
    ref = run_sim_spec(spec.to_dict())
    fast = run_sim_spec(dict(spec.to_dict(), engine="fast"))
    assert checks.same_payload(ref, fast, "engines") is None
    assert checks.conservation(ref) is None
    assert checks.echoed_spec(spec.to_dict(), ref) is None

    doctored = copy.deepcopy(fast)
    doctored["stats"]["packets_ejected"] += 1
    assert checks.same_payload(ref, doctored, "engines")
    leaky = copy.deepcopy(ref)
    leaky["stats"]["packets_ejected"] = leaky["stats"]["packets_injected"] + 1
    assert checks.conservation(leaky)
    short = copy.deepcopy(ref)
    short["stats"]["cycles"] -= 1
    assert checks.conservation(short)
    assert checks.echoed_spec(dict(spec.to_dict(), rate=0.3), ref)


def test_traced_execution_equals_run_sim_spec():
    spec = SimSpec(link_faults=4, scheme="escape-vc", rate=0.1, warmup=20, measure=80)
    tracer = Tracer()
    with tracer.span("op", "t") as parent:
        payload, unaccounted = run_spec_traced(spec.to_dict(), tracer, "t", parent)
    assert unaccounted == 0
    assert checks.canonical(payload) == checks.canonical(run_sim_spec(spec.to_dict()))
    names = [s["name"] for s in tracer.spans]
    assert names == ["op", "topology", "tables", "construct", "run", "payload"]
    assert tracer.self_times()["op"] < 0.1 * (tracer.spans[0]["end"] - tracer.spans[0]["start"])


@pytest.mark.parametrize(
    "name, parent, change, expected",
    [
        # steady and equal
        ("throughput_per_s", [100, 101, 99, 100], [100, 100, 101, 99], "ok"),
        # steady and 30% lower: beyond the bound
        ("throughput_per_s", [100, 101, 99, 100], [70, 71, 69, 70], "worse"),
        # spread wider than the bound, overlapping
        ("throughput_per_s", [100, 60, 140, 100], [90, 50, 150, 95], "unresolved"),
        # wide spread, but every change run beats every parent run
        ("latency_p50_ms", [10, 14, 18, 12], [5, 6, 7, 8], "ok"),
        ("model.packets_ejected", [5, 6], [5, 7], "model-changed"),
        ("model.packets_ejected", [5, 6], [5, 6], "ok"),
        ("store.get_hit_us", [5, 6], [50, 60], "-"),
    ],
)
def test_compare_verdicts(name, parent, change, expected):
    result, _ = compare.verdict(metrics.BY_NAME[name], list(zip(parent, change)))
    assert result == expected


def test_compare_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread():
    metric = metrics.BY_NAME["throughput_per_s"]
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(metric, [(a, a * 1.2) for a in parent])[1] == "yes"
    assert compare.verdict(metric, [(a, a * 1.2) for a in parent[:5]])[1] == "no"
    assert compare.verdict(metric, [(a, a * 1.005) for a in parent])[1] == "no"

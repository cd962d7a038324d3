"""One store-memoised sweep behind ``run_campaign`` and cached ``fan_out``.

``repro.service.campaign.sweep`` looks every key up, runs each missing
key once over one ``iter_jobs`` pool and stores each result as it
streams back.  These tests pin what that buys: one pool per sweep, a
failing cell that loses no other, a cold cached sweep that returns what
a warm one does, and store directories written by the earlier
two-loop code (``tests/data/sweep_store``: two ``fan_out`` cells of
``table1_cost._mesh_cost`` and two campaign specs) that still read back
as hits.
"""

import multiprocessing
import shutil
import time
from pathlib import Path

import pytest

from repro.experiments.common import CACHE_ENV_VAR, fan_out
from repro.experiments.table1_cost import _mesh_cost
from repro.obs.metrics import MetricsRegistry
from repro.parallel import Job, JobError, iter_jobs
from repro.parallel import pool as pool_module
from repro.service import run_campaign
from repro.service.spec import SimSpec
from repro.service.store import STORE_ENV_VAR, ResultStore

SWEEP_STORE = Path(__file__).parent / "data" / "sweep_store"


def _double(spec):
    return {"value": spec["value"] * 2}


def _must_not_run(spec):
    raise AssertionError(f"executed {spec}")


def _slow_square(x, delay=0.2):
    time.sleep(delay)
    return x * x


def _positive(x):
    if x < 0:
        raise ValueError(f"negative: {x}")
    return x


def _unordered(x):
    """A value whose round trip is not the identity: serialisation sorts
    non-string dict keys."""
    return {x + 1: "b", x: "a"}, (x,)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store", registry=MetricsRegistry())


class TestOnePool:
    def test_one_pool_per_campaign(self, monkeypatch, store):
        real_context = pool_module._pool_context
        pools = []

        class CountingContext:
            def Pool(self, *args, **kwargs):
                pools.append(kwargs.get("processes"))
                return real_context().Pool(*args, **kwargs)

        monkeypatch.setattr(pool_module, "_pool_context", CountingContext)
        report = run_campaign(
            [{"value": i} for i in range(24)], store=store, runner=_double, workers=2
        )
        assert report.executed == 24
        assert pools == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iter_jobs_yields_in_submission_order(self, workers):
        # The first job finishes last under a pool.
        jobs = [Job(_slow_square, (i, 0.3 if i == 0 else 0.0)) for i in range(12)]
        assert list(iter_jobs(jobs, workers)) == [i * i for i in range(12)]

    def test_closing_iter_jobs_early_terminates_the_pool(self):
        before = {child.pid for child in multiprocessing.active_children()}
        stream = iter_jobs([Job(_slow_square, (i,)) for i in range(8)], workers=2)
        assert next(stream) == 0
        assert {child.pid for child in multiprocessing.active_children()} - before
        stream.close()
        assert {child.pid for child in multiprocessing.active_children()} - before == set()


class TestFailingCell:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cached_cell_keeps_every_other_cell(self, workers, tmp_path):
        args = [(1,), (2,), (-1,), (3,)]
        store = ResultStore(tmp_path / "store", registry=MetricsRegistry())
        with pytest.raises(JobError, match=r"Job\(.*_positive\(-1\)\) failed: ValueError"):
            fan_out(_positive, args, workers=workers, cached=True, store=store)
        assert len(store) == 3
        # The rerun executes only the failing cell: three hits, one miss.
        again = ResultStore(tmp_path / "store", registry=MetricsRegistry())
        with pytest.raises(JobError, match=r"_positive\(-1\)"):
            fan_out(_positive, args, workers=workers, cached=True, store=again)
        counters = again.registry.counters
        assert (counters["service.store.hit"], counters["service.store.miss"]) == (3, 1)
        assert "service.store.put" not in counters


class TestColdIsWarm:
    # fig2's quick parameters use the graph method, which fans nothing out.
    @pytest.mark.parametrize("name, stores", [("table1", True), ("fig2", False)])
    def test_experiment_json_same_bytes_plain_cold_warm(
        self, name, stores, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(CACHE_ENV_VAR, "0")  # the plain run stays plain
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
        outputs = []
        for extra in ([], ["--cached"], ["--cached"]):
            assert main(["experiment", name, "--json", "--workers", "1", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        stored = len(ResultStore(tmp_path / "store", registry=MetricsRegistry()))
        assert bool(stored) == stores
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cold_cached_sweep_returns_what_a_warm_one_does(self, store):
        args = [(2,), (1,), (2,)]
        cold = fan_out(_unordered, args, workers=1, cached=True, store=store)
        warm = fan_out(_unordered, args, workers=1, cached=True, store=store)
        assert repr(cold) == repr(warm)
        assert cold == fan_out(_unordered, args, workers=1, cached=False)


class TestStoredBySeparateLoops:
    """``tests/data/sweep_store`` was written by the code this sweep
    replaced; its keys and blob shapes must still answer every cell."""

    def test_committed_store_reads_back_as_hits(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(SWEEP_STORE, root)
        store = ResultStore(root, registry=MetricsRegistry())
        cells = [(2, 2, 3, 2), (4, 4, 3, 2)]
        results = fan_out(_mesh_cost, cells, workers=1, cached=True, store=store)
        assert results == [_mesh_cost(*cell) for cell in cells]
        specs = [
            SimSpec(width=3, height=3, rate=rate, warmup=30, measure=80, seed=7).to_dict()
            for rate in (0.02, 0.04)
        ]
        report = run_campaign(specs, store=store, runner=_must_not_run, workers=1)
        assert report.all_hits
        assert [payload["spec"]["rate"] for payload in report.results] == [0.02, 0.04]
        counters = store.registry.counters
        assert counters["service.store.hit"] == 4
        assert "service.store.miss" not in counters
        assert "service.store.put" not in counters


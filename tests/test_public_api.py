"""Public API surface contract.

Guards the import surface a downstream user relies on: everything in
``repro.__all__`` resolves, the scheme registry is complete, and the
experiment registry exposes quick/full parameterizations with run/report.
"""

import dataclasses
import re
from pathlib import Path

import repro
from repro.experiments import ALL_EXPERIMENTS
from repro.protocols import SCHEMES, make_scheme


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_names(self):
        """The names used by the README quickstart must stay exported."""
        for name in (
            "mesh",
            "inject_link_faults",
            "SimConfig",
            "Network",
            "StaticBubbleScheme",
            "UniformRandomTraffic",
            "run_with_window",
        ):
            assert name in repro.__all__


class TestSchemeRegistry:
    def test_all_schemes_constructible(self):
        for name in SCHEMES:
            scheme = make_scheme(name)
            assert scheme.name in (name, "base") or scheme.name == name

    def test_scheme_names_match_registry_keys(self):
        for name, cls in SCHEMES.items():
            assert cls.name == name

    def test_unknown_scheme(self):
        import pytest

        with pytest.raises(ValueError):
            make_scheme("definitely-not-a-scheme")


class TestExperimentRegistry:
    def test_every_experiment_has_contract(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert callable(module.run), name
            assert callable(module.report), name
            params_cls = next(
                getattr(module, n) for n in dir(module) if n.endswith("Params")
            )
            assert dataclasses.is_dataclass(params_cls), name
            quick = params_cls.quick()
            full = params_cls.full()
            assert isinstance(quick, params_cls)
            assert isinstance(full, params_cls)

    def test_full_params_are_at_least_quick_scale(self):
        """full() must never be smaller than quick() where comparable."""
        for name, module in ALL_EXPERIMENTS.items():
            params_cls = next(
                getattr(module, n) for n in dir(module) if n.endswith("Params")
            )
            quick, full = params_cls.quick(), params_cls.full()
            if hasattr(quick, "samples"):
                assert full.samples >= quick.samples, name

    def test_registry_covers_every_evaluation_figure(self):
        # Every evaluation figure/table, plus the chaos robustness harness
        # and the non-mesh topology sweep.
        assert set(ALL_EXPERIMENTS) == {
            "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "table1", "chaos", "topo",
        }


class TestServiceSurface:
    """One front end, one pool primitive, one settle path: the deleted
    names stay deleted."""

    def test_one_front_end_under_both_names(self):
        import repro.service
        import repro.service.fabric
        import repro.service.server

        # One public name for the front end; ``fabric`` keeps the alias,
        # outside its ``__all__``, because the benchmark harness imports it.
        assert not hasattr(repro.service, "AsyncServiceServer")
        assert "AsyncServiceServer" not in repro.service.__all__
        assert "AsyncServiceServer" not in repro.service.fabric.__all__
        assert repro.service.fabric.AsyncServiceServer is repro.service.server.ServiceServer
        for module in (repro.service, repro.service.fabric, repro.service.server):
            assert not hasattr(module, "make_server")
        assert not hasattr(repro.service.server, "ServiceHandler")

    def test_batched_pool_path_is_gone(self):
        import inspect

        import repro.parallel
        from repro.experiments.common import fan_out
        from repro.service import run_campaign
        from repro.service.queue import JobQueue

        assert not hasattr(repro.parallel, "run_jobs_batched")
        assert not hasattr(repro.parallel.pool, "run_jobs_batched")
        for func in (JobQueue.__init__, run_campaign, fan_out):
            assert "batch_size" not in inspect.signature(func).parameters

    def test_serve_rejects_backend_flag(self, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--backend", "async"])
        assert exc_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_serve_rejects_quiet_flag(self, capsys):
        import pytest

        from repro.cli import build_parser

        # The front end keeps no access log; `worker --quiet` is live.
        # Parse only: a parser that took the flag would start a server.
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["serve", "--quiet"])
        assert exc_info.value.code == 2
        assert "--quiet" in capsys.readouterr().err
        assert build_parser().parse_args(["worker", "--quiet"]).quiet

    def test_one_store_class(self):
        import importlib

        import pytest

        import repro.service
        import repro.service.fabric
        from repro.service.store import ResultStore

        assert repro.service.fabric.ShardedResultStore is ResultStore
        assert repro.service.ShardedResultStore is ResultStore
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.fabric.shard")

    def test_serve_rejects_shard_flag(self, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--shard", "x"])
        assert exc_info.value.code == 2
        assert "--shard" in capsys.readouterr().err

    def test_repeated_store_flag_builds_a_sharded_store(self, tmp_path):
        from repro.cli import _resolve_store_arg, build_parser
        from repro.service.store import ResultStore

        a, b = tmp_path / "a", tmp_path / "b"
        parse = build_parser().parse_args
        fleet = _resolve_store_arg(
            parse(["serve", "--store", str(a), "--store", str(b), "--replicas", "2"])
        )
        assert [(s.name, s.root) for s in fleet.map.shards] == [("s0", str(a)), ("s1", str(b))]
        assert fleet.map.replicas == 2
        one = _resolve_store_arg(parse(["serve", "--store", str(a)]))
        assert one.map.to_dict() == ResultStore(a).map.to_dict()


#: The environment variables ``src/`` reads, each by one function.
KNOBS = {"REPRO_CACHE", "REPRO_OBS", "REPRO_STORE", "REPRO_STORE_MAX_BYTES", "REPRO_WORKERS"}


class TestKnobs:
    """Every knob has a setter and a row in README's knob table; a new
    ``REPRO_*`` name has to be added to both on purpose."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_src_reads_exactly_the_readme_knob_table(self):
        read = set()
        for path in (self.ROOT / "src").rglob("*.py"):
            read.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert read == KNOBS
        readme = (self.ROOT / "README.md").read_text()
        table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
        assert table == KNOBS

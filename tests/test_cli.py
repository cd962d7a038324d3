"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro import cli as cli_mod
from repro.cli import build_parser, main
from repro.experiments.common import CACHE_ENV_VAR
from repro.obs.metrics import OBS_ENV_VAR
from repro.parallel import Job, run_jobs

#: The two variables ``experiment --obs`` / ``--cached`` switch on.
SWITCHES = (OBS_ENV_VAR, CACHE_ENV_VAR)


def _switches_seen():
    """A pool job: the switch values its (forked) worker inherited."""
    return tuple(os.environ.get(name) for name in SWITCHES)


class TestPlacement:
    def test_placement_output(self, capsys):
        assert main(["placement", "8", "8"]) == 0
        out = capsys.readouterr().out
        assert "21 static bubbles" in out
        assert out.count("B") == 21

    def test_small_mesh(self, capsys):
        assert main(["placement", "2", "2"]) == 0
        assert "1 static bubbles" in capsys.readouterr().out


class TestSchemes:
    def test_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in (
            "minimal-unprotected",
            "xy",
            "spanning-tree",
            "escape-vc",
            "static-bubble",
            "adaptive",
            "adaptive-escape",
        ):
            assert name in out


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(
            [
                "simulate",
                "--width", "4", "--height", "4",
                "--rate", "0.05",
                "--warmup", "100", "--cycles", "300",
                "--scheme", "static-bubble",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "recoveries completed" in out

    def test_with_faults_and_monitor(self, capsys):
        code = main(
            [
                "simulate",
                "--width", "4", "--height", "4",
                "--link-faults", "2",
                "--rate", "0.05",
                "--warmup", "100", "--cycles", "300",
                "--scheme", "spanning-tree",
                "--monitor",
            ]
        )
        assert code == 0
        assert "deadlocks observed" in capsys.readouterr().out

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "nope"])

    def test_topology_flag_runs_non_mesh(self, capsys):
        argv = [
            "simulate",
            "--topology", "circulant:11,2,5",
            "--rate", "0.05",
            "--warmup", "50", "--cycles", "200",
            "--verify-first",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "circulant(n=11,s1=2,s2=5)" in out
        assert "OK" in out  # the cycle-cover certificate

    def test_bad_topology_flag_exits_2(self, capsys):
        assert main(["simulate", "--topology", "klein-bottle:3"]) == 2

    def test_a_router_past_the_port_bound_exits_2(self, capsys):
        """Routes are bytes: 300 ports per router cannot be routed."""
        assert main(["simulate", "--topology", "fullmesh:300", "--cycles", "10"]) == 2
        assert "radix 299 > 255" in capsys.readouterr().err

    def test_invalid_engine_rejected(self, capsys):
        """There is one simulator: ``--engine`` is no longer a flag."""
        for argv in (["simulate", "--engine", "fast"], ["submit", "--engine", "fast"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_saturated_run_imports_no_numpy(self):
        """The simulator is pure Python (12.5 MiB of RSS when it was not)."""
        code = (
            "import sys, repro.cli\n"
            "assert repro.cli.main(['simulate', '--link-faults', '8', '--rate', '0.3',"
            " '--warmup', '0', '--cycles', '300']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60,
            stdout=subprocess.DEVNULL,
        )

    def test_simulate_imports_no_service_stack(self):
        """``repro.service`` resolves its re-exports lazily: ``simulate``
        needs ``repro.service.spec``, not the server, client or fabric."""
        code = (
            "import sys, repro.cli\n"
            "assert repro.cli.main(['simulate', '--width', '2', '--height', '2',"
            " '--warmup', '0', '--cycles', '1']) == 0\n"
            "loaded = [m for m in ('repro.service.server', 'repro.service.client',"
            " 'repro.service.queue', 'repro.service.fabric') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60,
            stdout=subprocess.DEVNULL,
        )

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (
                ["--width", "4", "--height", "4", "--link-faults", "3", "--seed", "5"],
                dict(width=4, height=4, link_faults=3, seed=5),
            ),
            (
                ["--topology", "circulant:11,2,5", "--router-faults", "1",
                 "--scheme", "adaptive"],
                dict(topology="circulant:11,2,5", router_faults=1, scheme="adaptive"),
            ),
        ],
        ids=["faulted-mesh", "circulant-router-fault"],
    )
    def test_json_equals_run_sim_spec(self, capsys, argv, spec):
        """``simulate`` and the service build one network per spec."""
        import json

        from repro.service.spec import SimSpec, run_sim_spec

        window = ["--rate", "0.1", "--warmup", "50", "--cycles", "300"]
        assert main(["simulate", *argv, *window, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = run_sim_spec(SimSpec(rate=0.1, warmup=50, measure=300, **spec).to_dict())
        assert payload == json.loads(json.dumps(expected))

    def test_invalid_spec_exits_2(self, capsys):
        for flags in (["--link-faults", "-2"], ["--vcs", "0"], ["--t-dd", "-5"]):
            assert main(["simulate", *flags, "--cycles", "10"]) == 2
            assert capsys.readouterr().err

    def test_profile_flag(self, capsys, tmp_path):
        pstats_path = tmp_path / "run.pstats"
        code = main(
            [
                "simulate",
                "--width", "3", "--height", "3",
                "--rate", "0.05",
                "--warmup", "20", "--cycles", "100",
                "--profile",
                "--profile-out", str(pstats_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cumulative" in captured.err
        assert "run_with_window" in captured.err
        assert pstats_path.exists()
        import pstats

        assert pstats.Stats(str(pstats_path)).total_calls > 0


class TestServe:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """``kill`` stops a server the way Ctrl-C does: drained, exit 0
        (a script's background job ignores SIGINT)."""
        env = dict(
            os.environ, PYTHONUNBUFFERED="1",
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as server:
            try:
                assert server.stdout.readline().startswith("repro service listening")
                server.send_signal(signal.SIGTERM)
                out, err = server.communicate(timeout=60)
            finally:
                server.kill()
        assert (server.returncode, err) == (0, "")
        assert out.endswith("shutting down (draining)\n")


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "21" in out and "320" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentSwitches:
    """``--obs`` and ``--cached`` hold for one command: its pool workers
    see them, the calling process does not keep them.  The environment
    is never patched here; only ``ALL_EXPERIMENTS`` gains a tiny entry."""

    @pytest.fixture()
    def seen(self, monkeypatch):
        seen = []

        class TinyParams:
            workers = 1

            @classmethod
            def quick(cls):
                return cls()

        def run(params):
            seen.extend(run_jobs([Job(_switches_seen, ())] * 2, workers=params.workers))
            if params.workers == 3:  # a run that fails after its pool ran
                raise RuntimeError("run failed")
            return len(seen)

        tiny = SimpleNamespace(TinyParams=TinyParams, run=run, report=str)
        monkeypatch.setitem(cli_mod.ALL_EXPERIMENTS, "tiny", tiny)
        return seen

    def test_switches_reach_pool_workers_and_are_restored(self, seen):
        before = dict(os.environ)
        argv = ["experiment", "tiny", "--workers", "2", "--obs", "--cached"]
        assert main(argv) == 0
        assert seen == [("1", "1"), ("1", "1")]
        assert dict(os.environ) == before

    def test_a_raising_run_restores_them_too(self, seen):
        before = dict(os.environ)
        with pytest.raises(RuntimeError, match="run failed"):
            main(["experiment", "tiny", "--workers", "3", "--obs", "--cached"])
        assert seen == [("1", "1"), ("1", "1")]
        assert dict(os.environ) == before


#: ``{command: {dest: default}}`` as the parser produced it before the
#: spec flags of ``simulate`` / ``submit`` / ``predict`` became one group.
PARSER_DEFAULTS = {
    "placement": {"width": None, "height": None},
    "schemes": {},
    "simulate": {
        "width": 8, "height": 8, "topology": None, "link_faults": 0,
        "router_faults": 0, "scheme": "static-bubble", "pattern": "uniform_random",
        "rate": 0.05, "warmup": 500, "cycles": 2000, "vcs": 4, "t_dd": 34,
        "seed": 1, "monitor": False, "verify_first": False, "json": False,
        "profile": False, "profile_out": None,
    },
    "verify": {
        "mesh": "8x8", "topology": None, "scheme": "static-bubble",
        "link_faults": 0, "router_faults": 0, "seed": 1, "drop_bubble": None,
        "model_check": None, "json": False,
    },
    "experiment": {
        "name": None, "full": False, "workers": None, "obs": False,
        "cached": False, "json": False,
    },
    "serve": {
        "host": "127.0.0.1", "port": 8765, "store": None, "workers": None,
        "max_depth": 256, "timeout": None, "retries": 1, "record_ttl": 3600.0,
        "no_surrogate": False, "shard_map": None, "replicas": 2,
        "lease_ttl": 30.0, "no_local_exec": False,
    },
    "worker": {
        "url": "http://127.0.0.1:8765", "id": None, "max_jobs": 4, "wait": 15.0,
        "workers": 1, "max_idle": 0, "quiet": False,
    },
    "shards": {"action": None, "map": None, "prune": False, "json": False},
    "submit": {
        "url": "http://127.0.0.1:8765", "width": 8, "height": 8, "topology": None,
        "link_faults": 0, "router_faults": 0, "scheme": "static-bubble",
        "pattern": "uniform_random", "rate": 0.05, "warmup": 500, "cycles": 2000,
        "vcs": 4, "t_dd": 34, "seed": 1, "mode": "exact", "priority": 0,
        "wait": False, "timeout": 120.0, "json": False,
    },
    "predict": {
        "width": 8, "height": 8, "topology": None, "link_faults": 0,
        "router_faults": 0, "scheme": "static-bubble", "pattern": "uniform_random",
        "rate": 0.05, "warmup": 500, "cycles": 2000, "vcs": 4, "t_dd": 34,
        "seed": 1, "store": None, "refresh": False, "json": False,
    },
    "chaos": {
        "full": False, "campaigns": None, "events": None, "width": None,
        "height": None, "seed": 42, "workers": None, "check": False,
        "verify_first": False, "verify_reconfig": False,
    },
    "trace": {
        "scenario": None, "width": 8, "height": 8, "link_faults": 0,
        "scheme": "static-bubble", "pattern": "uniform_random", "rate": 0.05,
        "cycles": 2000, "t_dd": None, "seed": 1, "ring": 65536,
        "sample_every": 64, "jsonl": None, "chrome": None, "events": False,
    },
}


class TestParser:
    def test_every_flag_keeps_its_default(self):
        import argparse

        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        defaults = {
            name: {
                action.dest: action.default
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, parser in sub.choices.items()
        }
        assert defaults == PARSER_DEFAULTS

    def test_spec_commands_share_one_spec(self):
        """``simulate``, ``submit`` and ``predict`` read one flag set into
        one :class:`SimSpec`; only their own extras differ."""
        from repro.cli import _simulate_spec_from_args

        flags = ["--topology", "circulant:11,2,5", "--router-faults", "1",
                 "--pattern", "transpose", "--vcs", "2", "--t-dd", "20",
                 "--cycles", "700", "--seed", "9"]
        parser = build_parser()
        specs = {
            command: _simulate_spec_from_args(parser.parse_args([command, *flags]))
            for command in ("simulate", "submit", "predict")
        }
        assert len(set(specs.values())) == 1
        spec = specs["simulate"]
        assert (spec.topology, spec.router_faults, spec.pattern) == (
            "circulant:11,2,5", 1, "transpose",
        )
        assert (spec.vcs_per_vnet, spec.sb_t_dd, spec.measure, spec.seed) == (2, 20, 700, 9)
        with pytest.raises(SystemExit):
            parser.parse_args(["submit", "--pattern", "nope"])

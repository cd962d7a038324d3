"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


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

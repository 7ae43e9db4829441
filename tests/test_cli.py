"""Tests for the ``prins`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig4", "fig8", "fig10", "overhead"):
            assert experiment_id in out

    def test_testbed(self, capsys):
        assert main(["testbed"]) == 0
        assert "PRINS-engine" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "prins" in out
        assert "traditional" in out
        assert "A_old cache" not in out  # no program-side A_old cache

    def test_trace_capture_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "w.prtr")
        assert main([
            "trace", "capture", path, "--workload", "fsmicro",
            "--block-size", "2048",
        ]) == 0
        assert "captured" in capsys.readouterr().out
        assert main(["trace", "replay", path]) == 0
        out = capsys.readouterr().out
        assert "prins" in out and "traditional" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

"""Smoke test: every script in demos/ runs to completion as __main__."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, monkeypatch, capsys):
    # scripts read their optional arguments from sys.argv
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out

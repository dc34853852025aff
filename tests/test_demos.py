"""Smoke test: every script under demos/ runs to completion.

Each demo runs in-process as `__main__`, so its own asserts are checked,
with temporary directories created under the test's tmp_path.
"""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out

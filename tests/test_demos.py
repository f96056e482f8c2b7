"""Smoke test: the numbered demos run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not any(temp.iterdir()), "the demo left files in the temp directory"

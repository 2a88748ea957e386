"""Smoke test of the shipped demos: each runs to completion, silently on stderr."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, SRC

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    args = [str(tmp_path / "grid.csv")] if demo.stem.startswith("04") else []
    done = subprocess.run([sys.executable, str(demo), *args], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if args:
        assert (tmp_path / "grid.csv").read_text().count("\n") == 48 * 48 + 1


def test_all_four_demos_found():
    assert len(DEMOS) == 4

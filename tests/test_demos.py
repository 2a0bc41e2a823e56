"""Smoke test: every narrative demo, and the README's Quick start, runs to
completion against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run_with_src_on_path(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    # dev mode and warnings as errors, as the unit tests run
    result = _run_with_src_on_path("-X", "dev", "-W", "error", str(demo))
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no Quick start python block"
    result = _run_with_src_on_path("-c", block.group(1))
    assert result.returncode == 0, result.stderr

"""Smoke tests: every narrative demo runs to completion, and the timing
tools reject bad arguments with a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the suite's RuntimeWarning-as-error filter does not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["solve_timing.py", "--repeat", "0"],
                                  ["protocol_grid.py", "--seed", "-1"],
                                  ["mc_timing.py", "--repeat", "0"]], ids=lambda a: a[0])
def test_tool_rejects_bad_argument(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and f"error: {argv[1]} must be" in proc.stderr, proc.stderr

"""Golden SHA-256 digests of every CLI command's outputs.

Runs `nsmdp.cli.main` in process on one small fixed instance (N=6, 300 runs,
horizon 120, belief grid G=41, CUSUM window 25, all six policies) under each
of the shiryaev, sr and cusum detectors. The commands are `solve`, `evaluate` (grid-searched and with fixed
--a/--b), `sweep`, `calibrate`, simulated `info` and `info --trajectory`.
The SHA-256 of every file a command writes, and of its stdout with the
output directory replaced by "<out>", must equal the entry recorded in
tests/golden/digests.json.

The comparison is exact. numpy's vectorized exp and log may round
differently between numpy versions, so the test skips when the installed
numpy is not the one the digests were made with. A change that alters
output bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nsmdp.cli import main

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
DETECTORS = ("shiryaev", "sr", "cusum")

CONFIG = """
[inventory]
capacity = 6

[change]
rho = 0.03

[detector]
rho = 0.03
window = 25

[run]
horizon = 120
n_runs = 300
seed = 7

[policies]
kinds = oracle,loc,kl,tt,random,momdp
momdp_grid = 41

[thresholds]
a_grid = 8
a_min = 0.5
a_max = 1e4
b_grid = 4

[sweep]
alphas = 1360,1400,1500,1600
"""

# fixed (A, B): linear statistic domain for shiryaev/sr, log domain for cusum
FIXED = {"shiryaev": ("1000", "10"), "sr": ("1000", "10"), "cusum": ("6", "2")}

# feasible s,a,s_next rows of the capacity-6 inventory
TRAJECTORY = """0,4,2
2,2,1
1,3,4
4,0,3
3,3,0
0,6,5
5,1,6
6,0,2
2,0,0
0,5,1
1,5,6
6,0,6
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(detector: str, workdir: Path) -> dict[str, str]:
    """Digest of every output file and of the normalised stdout, keyed
    "detector/command/name", for one detector."""
    config = workdir / "golden.ini"
    config.write_text(CONFIG)
    trajectory = workdir / "trajectory.csv"
    trajectory.write_text(TRAJECTORY)
    a, b = FIXED[detector]
    commands = {
        "solve": ["solve"],
        "evaluate_grid": ["evaluate"],
        "evaluate_fixed": ["evaluate", "--a", a, "--b", b],
        "sweep": ["sweep"],
        "calibrate": ["calibrate", "--alpha", "1400"],
        "info": ["info", "--policies", "tt", "--a", a, "--b", b],
        "info_trajectory": ["info", "--a", a, "--trajectory", str(trajectory)],
    }
    digests = {}
    for name, argv in commands.items():
        out = workdir / detector / name
        out.mkdir(parents=True)
        if name != "solve":
            shutil.copy(workdir / detector / "solve" / "solution.json", out)
        inputs = set(out.iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--config", str(config), "--detector", detector,
                         "--out-dir", str(out)])
        assert code == 0, f"{detector} {name} exited {code}"
        text = stdout.getvalue().replace(str(out), "<out>")
        digests[f"{detector}/{name}/stdout"] = _sha(text.encode())
        for path in sorted(set(out.iterdir()) - inputs):
            digests[f"{detector}/{name}/{path.name}"] = _sha(path.read_bytes())
    return digests


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("detector", DETECTORS)
def test_outputs_match_golden_digests(detector, tmp_path):
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is numpy {np.__version__}")
    expected = {k: v for k, v in golden["digests"].items()
                if k.startswith(f"{detector}/")}
    got = run_digests(detector, tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [k for k in sorted(got) if got[k] != expected[k]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


def regenerate() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for detector in DETECTORS:
            digests.update(run_digests(detector, Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__,
                                  "python": platform.python_version(),
                                  "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(regenerate())

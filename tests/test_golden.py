"""Golden SHA-256 digests of the CLI's and the timing tools' outputs.

tests/golden/digests.json pins, by key prefix:

- "shiryaev/", "sr/", "cusum/": `nsmdp.cli.main` run in process on one
  small fixed instance (N=6, 300 runs, horizon 120, belief grid G=41, CUSUM
  window 25, all six policies) under that detector. The commands are
  `solve`, `evaluate` (grid-searched and with fixed --a/--b), `sweep`,
  `calibrate`, simulated `info` and `info --trajectory`.
- "protocol/": `nsmdp.cli.main` run in process at the default config, the
  paper's protocol (N=20, p=100, 1000 runs x 1000 steps, G=201): `solve`
  of all six kinds, `evaluate` at A=1000, B=10 and grid-searched, and
  `sweep` at caps 2500, 3500 and 5000 under SR (all six kinds) and CUSUM
  (loc, kl and tt).
- "protocol_grid/": the sha256 that tools/protocol_grid.py prints at seed
  0 for the shiryaev, sr and cusum grids of loc and tt at protocol size,
  and for the cusum tt and kl and the sr tt grids at 256 runs x 400 steps.
- "solve_timing/": the models_sha256, policies_sha256 and value_sha256
  that tools/solve_timing.py prints for the six criterion-5 table
  instances.

A command's entries are the SHA-256 of every file it writes and of its
stdout with the output directory replaced by "<out>"; the tools run as
subprocesses and their entries are the digests they print.

The comparison is exact. numpy's vectorized exp and log may round
differently between numpy versions, so the test skips when the installed
numpy is not the one the digests were made with. A change that alters
output bytes on purpose regenerates every entry with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from nsmdp.cli import main

ROOT = Path(__file__).resolve().parent.parent
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

ALL_KINDS = ["--policies", "oracle,loc,kl,tt,random,momdp"]
ALPHAS = ["--alphas", "2500,3500,5000"]
PROTOCOL = {
    "solve": ["solve", *ALL_KINDS],
    "evaluate_fixed": ["evaluate", *ALL_KINDS, "--a", "1000", "--b", "10"],
    "evaluate_grid": ["evaluate", *ALL_KINDS],
    "sweep": ["sweep", *ALL_KINDS, *ALPHAS],
    "sweep_cusum": ["sweep", "--detector", "cusum", "--policies", "loc,kl,tt", *ALPHAS],
}

# the pinned tools/protocol_grid.py grids, by name
AT_256X400 = ["--runs", "256", "--horizon", "400"]
GRIDS = {**{f"{detector}_{kind}": ["--detector", detector, "--kind", kind]
            for detector in DETECTORS for kind in ("loc", "tt")},
         **{f"{detector}_{kind}_256x400": ["--detector", detector, "--kind", kind, *AT_256X400]
            for detector, kind in (("cusum", "tt"), ("sr", "tt"), ("cusum", "kl"))}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(group: str, commands: dict[str, list[str]], options: list[str],
                workdir: Path) -> dict[str, str]:
    """Digest of every output file and of the normalised stdout of each
    command, keyed "group/command/name"; every command after `solve`
    reads a copy of its solution.json."""
    digests = {}
    for name, argv in commands.items():
        out = workdir / group / name
        out.mkdir(parents=True)
        if name != "solve":
            shutil.copy(workdir / group / "solve" / "solution.json", out)
        inputs = set(out.iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, *options, "--out-dir", str(out)])
        assert code == 0, f"{group} {name} exited {code}"
        text = stdout.getvalue().replace(str(out), "<out>")
        digests[f"{group}/{name}/stdout"] = _sha(text.encode())
        for path in sorted(set(out.iterdir()) - inputs):
            digests[f"{group}/{name}/{path.name}"] = _sha(path.read_bytes())
    return digests


def detector_digests(detector: str, workdir: Path) -> dict[str, str]:
    """Every command on the small instance under one detector."""
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
    return run_digests(detector, commands, ["--config", str(config), "--detector", detector],
                       workdir)


def tool_lines(script: str, *args: str) -> list[dict[str, str]]:
    """The key=value fields of each line a tools/ script prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [dict(field.split("=", 1) for field in line.split())
            for line in proc.stdout.splitlines()]


def grid_digests(workdir: Path) -> dict[str, str]:
    # two grids at a time, one per core of a small runner
    with ThreadPoolExecutor(2) as pool:
        lines = pool.map(lambda args: tool_lines("protocol_grid.py", *args, "--seed", "0"),
                         GRIDS.values())
        return {f"protocol_grid/{name}/sha256": line["sha256"]
                for name, [line] in zip(GRIDS, lines)}


def solve_digests(workdir: Path) -> dict[str, str]:
    return {f"solve_timing/N={line['N']},p={line['p']}/{field}": line[field]
            for line in tool_lines("solve_timing.py", "--repeat", "1")
            for field in ("models_sha256", "policies_sha256", "value_sha256")}


# each group's digests from a fresh work directory, keyed "group/..."
GROUPS = {**{detector: partial(detector_digests, detector) for detector in DETECTORS},
          "protocol": partial(run_digests, "protocol", PROTOCOL, []),
          "protocol_grid": grid_digests, "solve_timing": solve_digests}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_golden_digests(group, tmp_path):
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is numpy {np.__version__}")
    expected = {k: v for k, v in golden["digests"].items() if k.startswith(f"{group}/")}
    got = GROUPS[group](tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [k for k in sorted(got) if got[k] != expected[k]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


def regenerate() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for digest in GROUPS.values():
            digests.update(digest(Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__,
                                  "python": platform.python_version(),
                                  "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(regenerate())

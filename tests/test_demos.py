"""Smoke tests: every demo runs to completion as a script.

Each runs in its own temporary directory, since demo 05 writes its tables
under the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> a line fragment its last step prints
DEMOS = {
    "01_wave_packet_transform": "round-trip relative L2 error",
    "02_bicharacteristic_flow": "free-motion integral",
    "04_wavefront_detection": "pure power law",
    "05_fundamental_solution": "tables written under",
}


def _run_demo(name: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    demo = ROOT / "demos" / f"{name}.py"
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_split_step_demo_runs(tmp_path):
    assert "second order" in _run_demo("03_split_step_propagator", tmp_path)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    assert DEMOS[name] in _run_demo(name, tmp_path)

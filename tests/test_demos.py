"""Smoke test: the demo scripts run to completion against the package source.

Demo 01 also prints the exact cancellation it demonstrates; those lines are
pinned.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["01_effective_hamiltonian.py", "02_gate_error_scaling.py",
                                  "03_cubic_phase_state.py", "04_soliton_platforms.py"])
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_demo_01_prints_exact_cancellation(tmp_path):
    lines = [line.strip() for line in _run("01_effective_hamiltonian.py", tmp_path).splitlines()]
    big = lines.index("at alpha = 1.4e4 (15 dB):")
    for claim in ("x   coefficient is_zero: True", "x^2 coefficient is_zero: True",
                  "mu * tau == gamma exactly: True"):
        assert claim in lines[:big], claim
    assert "x coefficient is_zero: True" in lines[big:]

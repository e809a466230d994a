"""scipy submodules load only on the paths that use them: no gate path loads one.

Each check runs in a fresh interpreter: inside pytest, other tests have
already imported scipy.optimize, scipy.sparse and scipy.integrate.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import kerrcubic

SRC = str(Path(kerrcubic.__file__).resolve().parents[1])

# print which of the three lazily loaded scipy submodules are in sys.modules
_PRELUDE = """
import json, sys
LAZY = ("scipy.optimize", "scipy.sparse", "scipy.integrate")
def loaded():
    return [m for m in LAZY if m in sys.modules]
"""


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", _PRELUDE + textwrap.dedent(script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


_LOSSLESS_PATHS = """
from dataclasses import replace
import tempfile
from kerrcubic import cli, dynamics as dyn, experiments as ex, soliton, states as st
from kerrcubic.dynamics import GateConfig

stages = {"import": loaded()}
base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=48)
psi = st.squeezed_vacuum(0.5, 48)
dyn.cubic_gate(replace(base, lam=2.0, alpha=10.0), psi)
dyn.trotterized_gate(replace(base, lam=2.0, alpha=10.0, trotter_steps=2), psi)
spec = ex.SweepSpec(base=base, param="dtheta", values=(1e-4,),
                    input_state="squeezed:0.5", alpha_mode="cube", alpha_coeff=1.85)
rows = ex.noise_sweep(spec, (8.0,))
opt = ex.optimize_alpha(replace(base, lam=2.0), (8.0, 20.0), psi)
with tempfile.TemporaryDirectory() as out:
    codes = [cli.dispatch(["gate", "--out", out, "--lambda-db", "6", "--alpha", "3",
                           "--fock", "32", "--input", "vacuum"]),
             cli.dispatch(["optimize-alpha", "--out", out, "--lambda-db", "6",
                           "--bracket", "3,8", "--fock", "32", "--input", "vacuum"]),
             cli.dispatch(["soliton-fom", "--builtin-table", "--out", out])]
ex.generate_cubic_state(replace(base, lam=2.0, alpha=10.0, n_fock=32), grid=([0.0], [0.0]))
stages["lossless"] = loaded()
dyn.cubic_gate(replace(base, n_fock=32, kappa=1.0), st.squeezed_vacuum(0.5, 32))
stages["lossy"] = loaded()
ex.generate_cubic_state(replace(base, lam=2.0, alpha=10.0, n_fock=32, kappa=1.0),
                        grid=([0.0], [0.0]))
stages["state-gen"] = loaded()
soliton.envelope_overlap(3, 4, soliton.MaterialParams(
    gamma_nl=280.0, wavelength=1.54e-6, v_g=1.2e8, gvd=2.0e-2))
stages["overlap"] = loaded()
print(json.dumps({"stages": stages, "ok": [r["ok"] for r in rows],
                  "evaluations": opt.evaluations, "codes": codes}))
"""


def test_lossless_paths_load_no_lazy_scipy_module():
    proc = _fresh(_LOSSLESS_PATHS)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["ok"] == [True] and doc["codes"] == [0, 0, 0]
    assert doc["evaluations"] > 7  # the coarse scan and then Brent's steps ran
    assert doc["stages"]["import"] == []
    assert doc["stages"]["lossless"] == []
    # nor does the lossy integrator, or a lossy state generation with its
    # Gaussian correction's BFGS
    assert doc["stages"]["lossy"] == []
    assert doc["stages"]["state-gen"] == []
    # positive control: the probe sees a lazy load, the overlap's quadrature
    # (scipy.integrate brings in what it imports itself)
    assert "scipy.integrate" in doc["stages"]["overlap"]


_OPTIMIZE_SWEEP = """
from kerrcubic import experiments as ex
from kerrcubic.dynamics import GateConfig

sweep_point = ex._sweep_point


def point_and_modules(*args):  # runs in the process that scores the point
    return {**sweep_point(*args), "loaded": loaded()}


ex._sweep_point = point_and_modules
before = loaded()
spec = ex.SweepSpec(base=GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=40),
                    param="lam_db", values=(5.0, 6.0), input_state="squeezed:0.5",
                    alpha_mode="optimize", workers=int(sys.argv[1]))
rows = ex.run_sweep(spec)
point_modules = [row.pop("loaded") for row in rows]
print(json.dumps({"before": before, "after": loaded(), "points": point_modules,
                  "rows": repr(rows)}))
"""


def test_optimize_sweep_in_fork_workers_matches_serial():
    serial, parallel = (_fresh(_OPTIMIZE_SWEEP, w) for w in ("1", "2"))
    assert serial.returncode == parallel.returncode == 0, serial.stderr + parallel.stderr
    s_doc, p_doc = (json.loads(p.stdout.strip().splitlines()[-1]) for p in (serial, parallel))
    assert s_doc["before"] == p_doc["before"] == []
    assert s_doc["after"] == p_doc["after"] == []
    # nor did any fork worker, after each of its points
    assert s_doc["points"] == p_doc["points"] == [[], []]
    assert "'ok': True" in s_doc["rows"] and "'ok': False" not in s_doc["rows"]
    assert s_doc["rows"] == p_doc["rows"]
    assert serial.stderr == parallel.stderr

"""The benchmark's workloads: their inputs, operations and acceptance checks.

`WORKLOADS[name](seed, scratch)` builds a workload's inputs (the set-up the
benchmark times) and returns the operations of one pass plus a check over
their outputs. An operation returns (gate evaluations, physics record). The
record holds the numbers the acceptance bands judge, at full precision, so a
repeat is compared with the first run bit-for-bit through its JSON form.

Every call into kerrcubic goes through a module attribute
(`experiments.optimize_alpha`, not a name bound at import), so the traced run
sees the calls the harness makes, and sweeps keep their default `workers=1`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from kerrcubic import cli, dynamics, experiments, fock, states

GAMMA = 0.1
ALPHA_COEFF = 1.85  # alpha = C lam^3, the acceptance suite's reference scaling
GKP_DELTA = 0.5

# The seed picks the lossless-sweep's two grid-state labels; all four labels
# are in the criterion-3 band at N=256. Seed 0 gives the named workload.
LABEL_PAIRS = (("z+", "x+"), ("z+", "z-"), ("z+", "y+"),
               ("z-", "x+"), ("z-", "y+"), ("x+", "y+"))
LOSSLESS_DBS = (5.0, 7.5, 10.0, 12.5, 15.0)
NOISE_DBS = (10.0, 12.5, 15.0, 17.5)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], tuple[int, dict]]


@dataclass(frozen=True)
class Check:
    name: str
    value: object
    band: str
    ok: bool


def run_checks(check, records) -> list[Check]:
    """A workload's checks; a missing or malformed record fails them."""
    try:
        return check(records)
    except Exception as exc:
        return [Check("checks", f"{type(exc).__name__}: {exc}", "no error", False)]


def gkp_input(label: str, n: int) -> fock.PureState:
    """Grid state with every retained peak representable, as the acceptance suite builds it."""
    p0 = states.GkpParams(label, GKP_DELTA, eps_k=1e-8)
    eps = states.representable_peak_cutoff(p0, GAMMA, n)
    return states.gkp_state(states.GkpParams(label, GKP_DELTA, eps_k=eps), n)


def fit_window(pairs, emax=(0.03, 0.1, 0.15), min_points=3):
    """Power-law fit on the asymptotic window, the acceptance suite's rule."""
    for cut in emax:
        pts = [(x, y) for x, y in pairs if y < cut]
        if len(pts) >= min_points:
            return experiments.fit_power_law(pts), len(pts)
    pts = sorted(pairs)[-min_points:]
    return experiments.fit_power_law(pts), len(pts)


def _band(name, value, lo, hi) -> Check:
    return Check(name, value, f"[{lo:g}, {hi:g}]", lo <= value <= hi)


# ---------------------------------------------------------------------------
# lossless-sweep: criterion 3, optimize_alpha with warm-started brackets
# ---------------------------------------------------------------------------


def lossless_sweep(seed: int, scratch: Path):
    n = 256
    labels = LABEL_PAIRS[seed % len(LABEL_PAIRS)]
    psi = {label: gkp_input(label, n) for label in labels}
    coeff = {}  # (label, point index) -> alpha*/lam^3, the next point's warm start

    def point(label, i, lam_db):
        lam = fock.lambda_from_db(lam_db)
        c = ALPHA_COEFF if i == 0 else coeff[label, i - 1]
        lo, hi = (0.8, 12.0) if i == 0 else (0.45, 3.0)
        center = c * lam**3
        cfg = dynamics.GateConfig(lam=lam, alpha=center, gamma=GAMMA, n_fock=n)
        opt = experiments.optimize_alpha(cfg, (center * lo, center * hi), psi[label])
        coeff[label, i] = opt.alpha / lam**3
        return opt.evaluations, {
            "lam": lam, "alpha": opt.alpha, "error": opt.error,
            "evaluations": opt.evaluations, "fallback": not opt.unimodal,
        }

    def name(label, lam_db):
        return f"{label}@{lam_db:g}dB"

    ops = [Op(name(label, db), partial(point, label, i, db))
           for label in labels for i, db in enumerate(LOSSLESS_DBS)]

    def check(records):
        out = []
        for label in labels:
            rows = [records[name(label, db)] for db in LOSSLESS_DBS]
            fit, _ = fit_window([(r["lam"], r["error"]) for r in rows])
            out.append(_band(f"c3.{label}.error_exponent", fit.exponent, -4.3, -3.7))
        return out

    return ops, check


# ---------------------------------------------------------------------------
# lossy-state: the fig4 recipe and the baseline lossy gate, through the CLI
# ---------------------------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def lossy_state(seed: int, scratch: Path):
    runs = {
        "fig4": (["reproduce", "fig4"], "fig4.json"),
        "gate": (["gate", "--lambda-db", "15", "--alpha", "1.4e4", "--gamma", "0.1",
                  "--chi-over-kappa", "1e-4", "--fock", "128"], "gate_result.json"),
    }

    def run(name):
        argv, result = runs[name]
        # a fixed directory: the config sidecar records it, and artifacts must
        # be byte-identical across repeats
        out = scratch / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = cli.dispatch(argv + ["--out", str(out)])
            rec = {"ok": code == 0, "exit_code": code}
            if code == 0:
                rec.update(json.loads((out / result).read_text()))
                rec["artifacts"] = {p.name: _digest(p) for p in sorted(out.iterdir())}
            else:
                rec["stderr"] = err.getvalue()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 1, rec

    ops = [Op(name, partial(run, name)) for name in runs]

    def check(records):
        fig4, gate = records["fig4"], records["gate"]
        return [
            _band("c6.fidelity", fig4["fidelity"], 0.973, 0.983),
            Check("c6.wigner_min", fig4["wigner_min"], "< 0", fig4["wigner_min"] < 0),
            Check("gate.trace_drift", gate["trace_drift"], "<= 1e-8",
                  gate["trace_drift"] <= 1e-8),
            _band("gate.error", gate["error"], 0.0, 1.0),
        ]

    return ops, check


# ---------------------------------------------------------------------------
# noise-trotter: criteria 7, 8 and 9 with the acceptance suite's inputs
# ---------------------------------------------------------------------------


def noise_trotter(seed: int, scratch: Path):
    psi128, psi192, psi448 = (gkp_input("z+", n) for n in (128, 192, 448))
    lam = fock.lambda_from_db(10.0)

    def noise_rows(channel, values, lam_dbs):
        base = dynamics.GateConfig(lam=1.0, alpha=1.0, gamma=GAMMA, n_fock=128)
        spec = experiments.SweepSpec(base=base, param=channel, values=values,
                                     input_state="gkp:z+:0.5", alpha_mode="cube",
                                     alpha_coeff=ALPHA_COEFF)
        return experiments.noise_sweep(spec, lam_dbs)

    def noise(channel, value, quad_values, quad_db):
        rows = noise_rows(channel, (value,), NOISE_DBS)
        rows_q = noise_rows(channel, quad_values, (quad_db,))
        fit_l, npts = fit_window([(r["lam"], r["excess"]) for r in rows], emax=(0.12,))
        fit_q = experiments.fit_power_law([(r["value"], r["excess"]) for r in rows_q])
        return 3 * (len(rows) + len(rows_q)), {
            "ok": all(r["ok"] for r in rows + rows_q),
            "excess": [r["excess"] for r in rows + rows_q],
            "lam_exponent": fit_l.exponent, "lam_points": npts,
            "quad_exponent": fit_q.exponent,
        }

    def p_displacement():
        alpha = ALPHA_COEFF * lam**3
        cfg = dynamics.GateConfig(lam=lam, alpha=alpha, gamma=GAMMA, n_fock=128)
        out0 = dynamics.cubic_gate(cfg, psi128).state
        noisy = dynamics.cubic_gate(
            replace(cfg, noise=dynamics.NoiseParams(dtheta=1e-6)), psi128).state
        shift = -math.sqrt(2.0) * lam * alpha * 1e-6
        disp = fock.displacement(1j * shift / math.sqrt(2.0), 128)
        f = fock.fidelity(fock.PureState(disp.matrix @ out0.vector, normalize=False), noisy)
        return 2, {"infidelity": 1.0 - f}

    def trotter_convergence():
        cfg = dynamics.GateConfig(lam=lam, alpha=12.0, gamma=GAMMA, n_fock=192)
        e_cont = dynamics.cubic_gate(cfg, psi192).error
        steps = (1, 2, 4, 8, 16)
        errors = [dynamics.trotterized_gate(replace(cfg, trotter_steps=k), psi192).error
                  for k in steps]
        fit = experiments.fit_power_law([(k, abs(e - e_cont)) for k, e in zip(steps, errors)])
        return 1 + len(steps), {"error_continuous": e_cont, "errors": errors,
                                "exponent": fit.exponent}

    def single_step():
        ratios = []
        for alpha in (16.0, 20.0, 25.0):
            cfg = dynamics.GateConfig(lam=lam, alpha=alpha, gamma=GAMMA, n_fock=448)
            e_cont = dynamics.cubic_gate(cfg, psi448).error
            e_one = dynamics.trotterized_gate(replace(cfg, trotter_steps=1), psi448).error
            ratios.append(e_one / e_cont)
        return 2 * len(ratios), {"ratios": ratios}

    ops = [
        Op("dtheta", partial(noise, "dtheta", 5e-5, (2.5e-5, 5e-5, 1e-4), 12.5)),
        Op("ddelta_rel", partial(noise, "ddelta_rel", 3e-6, (1e-6, 2e-6, 4e-6), 15.0)),
        Op("dbeta_x_rel", partial(noise, "dbeta_x_rel", 3e-6, (1e-6, 2e-6, 4e-6), 15.0)),
        Op("p-displacement", p_displacement),
        Op("trotter-n192", trotter_convergence),
        Op("trotter-n448", single_step),
    ]

    def check(records):
        out = []
        for channel, crit in (("dtheta", "c7"), ("ddelta_rel", "c8"), ("dbeta_x_rel", "c8")):
            rec = records[channel]
            out.append(_band(f"{crit}.{channel}.lam_exponent", rec["lam_exponent"], 7.5, 8.5))
            out.append(_band(f"{crit}.{channel}.quad_exponent", rec["quad_exponent"], 1.9, 2.1))
        infid = records["p-displacement"]["infidelity"]
        out.append(Check("c7.p_displacement_infidelity", infid, "< 1e-4", infid < 1e-4))
        out.append(_band("c9.trotter_exponent", records["trotter-n192"]["exponent"], -2.3, -1.7))
        min_ratio = min(records["trotter-n448"]["ratios"])
        out.append(Check("c9.min_ratio", min_ratio, "<= 3", min_ratio <= 3.0))
        return out

    return ops, check


WORKLOADS = {
    "lossless-sweep": lossless_sweep,
    "lossy-state": lossy_state,
    "noise-trotter": noise_trotter,
}

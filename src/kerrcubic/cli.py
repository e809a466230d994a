"""Command-line front end.

Subcommands: heff-expand, state, gate, sweep-lambda, optimize-alpha,
sweep-noise, state-gen, trotter, soliton-fom, reproduce.

Exit codes: 0 success, 2 configuration error, 3 numerical/IO failure. Errors
go to stderr as one JSON object. Every run writes a resolved-configuration
JSON sidecar next to its outputs, from which the run is reproducible
byte-for-byte. CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import algebra, soliton
from .dynamics import (
    GateConfig,
    IntegrationError,
    NoiseParams,
    cubic_gate,
    photon_number_trace,
    trotterized_gate,
)
from .experiments import (
    SweepSpec,
    generate_cubic_state,
    lambda_sweep,
    noise_sweep,
    optimize_alpha,
    run_sweep,
)
from .fock import lambda_from_db, wigner
from .states import parse_state

SCHEMA_VERSION = 1

RECIPES = ("fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5",
           "fig6a", "fig6b", "fig7b", "table1")

_CONFIG_KEYS = {
    "out", "workers", "fock", "lambda_db", "alpha", "gamma", "chi",
    "chi_over_kappa", "loss_frame", "trotter", "dtheta", "ddelta_rel",
    "dbetax_rel", "input", "delta", "values", "lambda_db_values", "noise",
    "alpha_mode", "alpha_coeff", "bracket", "wigner_span", "wigner_points",
}


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


class RunConfig(dict):
    """Resolved run configuration: file values overridden by flags.

    Plain mapping plus the two fields every run needs; construct through
    `RunConfig.collect`.
    """

    @classmethod
    def collect(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            cfg.update(parse_config_file(args.config))
        for key in _CONFIG_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                cfg[key] = flag
        if "out" not in cfg:
            cfg["out"] = os.environ.get("KERRCUBIC_OUT", ".")
        return cfg

    @property
    def out_dir(self) -> Path:
        out = Path(str(self["out"]))
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def workers(self) -> int:
        return int(self.get("workers", 1))


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def write_wigner_csv(path: Path, xs, ps, w) -> None:
    rows = []
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            rows.append((x, p, w[i, j]))
    write_csv(path, ["x", "p", "w"], rows)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_sidecar(path: Path, command: str, resolved: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "resolved_config": resolved}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def emit(kind: str, payload, path: Path) -> None:
    """Write a table ({'header','rows'}), grid ({'xs','ps','w'}) or JSON doc."""
    if kind == "table":
        write_csv(path, payload["header"], payload["rows"])
    elif kind == "grid":
        write_wigner_csv(path, payload["xs"], payload["ps"], payload["w"])
    elif kind == "json":
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown emit kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration collection
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict:
    """Plain-text `key = value` lines; '#' comments; unknown keys rejected."""
    out: dict = {}
    for ln_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln_no}: unknown key {key!r}")
        out[key] = value
    return out


def _collect(args: argparse.Namespace) -> RunConfig:
    """File config merged with CLI flags; flags win; env var is the out fallback."""
    return RunConfig.collect(args)


def _floats(v) -> tuple[float, ...]:
    if isinstance(v, (list, tuple)):
        return tuple(float(x) for x in v)
    return tuple(float(tok) for tok in str(v).split(",") if tok.strip())


def _gate_config(cfg: dict) -> GateConfig:
    noise = NoiseParams(dtheta=float(cfg.get("dtheta", 0.0)))
    gc = GateConfig.make(
        lam_db=float(cfg.get("lambda_db", 10.0)),
        alpha=float(cfg.get("alpha", 50.0)),
        gamma=float(cfg.get("gamma", 0.1)),
        chi=float(cfg.get("chi", 1.0)),
        chi_over_kappa=(float(cfg["chi_over_kappa"]) if "chi_over_kappa" in cfg
                        and str(cfg["chi_over_kappa"]) not in ("", "none") else None),
        n_fock=int(cfg.get("fock", 128)),
        loss_frame=str(cfg.get("loss_frame", "fluctuation")),
        trotter_steps=int(cfg.get("trotter", 0)),
        noise=noise,
    )
    for rel_key, field in (("ddelta_rel", "ddelta"), ("dbetax_rel", "dbeta_x")):
        if rel_key in cfg and float(cfg[rel_key]) != 0.0:
            dc, bc = algebra.cubic_counterterms(gc.chi)
            ref = dc(gc.alpha).real if field == "ddelta" else bc(gc.alpha).real
            gc = replace(gc, noise=replace(gc.noise, **{field: float(cfg[rel_key]) * ref}))
    return gc


def _out_dir(cfg: RunConfig) -> Path:
    return cfg.out_dir


def _resolved(cfg: dict, gc: GateConfig | None = None) -> dict:
    doc = {k: (v if isinstance(v, (int, float, str, bool, list)) else str(v))
           for k, v in sorted(cfg.items())}
    if gc is not None:
        doc["gate_config"] = {
            "chi": gc.chi, "lam": gc.lam, "lam_db": gc.lam_db, "alpha": gc.alpha,
            "gamma": gc.gamma, "kappa": gc.kappa, "n_fock": gc.n_fock,
            "loss_frame": gc.loss_frame, "trotter_steps": gc.trotter_steps,
            "noise": {"dtheta": gc.noise.dtheta, "ddelta": gc.noise.ddelta,
                      "dbeta_x": gc.noise.dbeta_x, "dbeta_p": gc.noise.dbeta_p},
        }
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_heff_expand(args) -> int:
    cfg = _collect(args)
    chi = float(cfg.get("chi", 1.0))
    lam = lambda_from_db(float(cfg.get("lambda_db", 10.0)))
    alpha = float(cfg.get("alpha", 50.0))
    if args.delta is None or args.beta is None:
        dc, bc = algebra.cubic_counterterms(chi)
        delta = dc if args.delta is None else algebra.AlphaPoly(args.delta)
        beta = bc if args.beta is None else algebra.AlphaPoly(args.beta)
    else:
        delta, beta = algebra.AlphaPoly(args.delta), algebra.AlphaPoly(args.beta)
    h = algebra.substitute_gaussian_frame(
        algebra.driven_kerr(chi, delta, beta), lam
    ).drop_constant()
    quad = algebra.to_quadrature_form(h)
    rows = []
    for (j, k) in sorted(quad.terms, key=lambda t: (t[0] + t[1], t)):
        c = quad.quad_coefficient(j, k, alpha)
        rows.append((f"x^{j} p^{k}", c.real, c.imag))
    out = _out_dir(cfg)
    write_csv(out / "heff_expand.csv", ["monomial", "coefficient-real", "coefficient-imag"], rows)
    write_sidecar(out / "heff_expand.config.json", "heff-expand", _resolved(cfg))
    print(out / "heff_expand.csv")
    return 0


def _cmd_state(args) -> int:
    cfg = _collect(args)
    n = int(cfg.get("fock", 128))
    psi = parse_state(str(cfg.get("input", "vacuum")), n)
    out = _out_dir(cfg)
    if args.wigner:
        span = float(cfg.get("wigner_span", 6.0))
        pts = int(cfg.get("wigner_points", 121))
        xs = np.linspace(-span, span, pts)
        w = wigner(psi, xs, xs)
        write_wigner_csv(out / "state_wigner.csv", xs, xs, w)
        print(out / "state_wigner.csv")
    else:
        rows = [(k, a.real, a.imag) for k, a in enumerate(psi.vector)]
        write_csv(out / "state_amplitudes.csv", ["n", "re", "im"], rows)
        print(out / "state_amplitudes.csv")
    write_sidecar(out / "state.config.json", "state", _resolved(cfg))
    return 0


def _cmd_gate(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock)
    res = cubic_gate(gc, psi)
    out = _out_dir(cfg)
    doc = {
        "error": res.error, "fidelity": 1.0 - res.error,
        "tau": res.diagnostics.get("tau"),
        "steps": res.diagnostics.get("steps"),
        "trace_drift": res.diagnostics.get("trace_drift"),
    }
    emit("json", doc, out / "gate_result.json")
    if args.wigner:
        span = float(cfg.get("wigner_span", 6.0))
        pts = int(cfg.get("wigner_points", 121))
        xs = np.linspace(-span, span, pts)
        write_wigner_csv(out / "gate_wigner.csv", xs, xs, wigner(res.state, xs, xs))
    write_sidecar(out / "gate_result.config.json", "gate", _resolved(cfg, gc))
    print(out / "gate_result.json")
    return 0


_SWEEP_HEADER = ["value", "lam_db", "lam", "alpha", "error", "tau", "ok", "message"]


def _rows_to_csv(rows, extra_cols=()) -> tuple[list[str], list[tuple]]:
    header = list(_SWEEP_HEADER[:-2]) + list(extra_cols) + ["ok", "message"]
    out = []
    for r in rows:
        cells = [r["value"], r["lam_db"], r["lam"], r["alpha"],
                 r.get("error", np.nan), r.get("tau", np.nan)]
        cells += [r.get(c, np.nan) for c in extra_cols]
        cells += [r["ok"], r["message"]]
        out.append(tuple(cells))
    return header, out


def _cmd_sweep_lambda(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    spec = SweepSpec(
        base=gc, param="lam_db", values=_floats(cfg.get("values", "5,7.5,10,12.5,15")),
        input_state=str(cfg.get("input", "gkp:z+:0.5")),
        alpha_mode=str(cfg.get("alpha_mode", "optimize")),
        alpha_coeff=float(cfg.get("alpha_coeff", 1.85)),
        workers=int(cfg.get("workers", 1)),
    )
    rows = lambda_sweep(spec)
    out = _out_dir(cfg)
    header, table = _rows_to_csv(rows)
    write_csv(out / "sweep_lambda.csv", header, table)
    write_sidecar(out / "sweep_lambda.config.json", "sweep-lambda", _resolved(cfg, gc))
    print(out / "sweep_lambda.csv")
    return 0


def _cmd_optimize_alpha(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    bracket = _floats(cfg.get("bracket", "")) or None
    if bracket is None:
        center = 1.85 * gc.lam**3
        bracket = (0.45 * center, 3.5 * center)
    if len(bracket) != 2:
        raise ConfigError("bracket must be 'lo,hi'")
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock)
    opt = optimize_alpha(gc, tuple(bracket), psi)
    out = _out_dir(cfg)
    emit("json", {"alpha": opt.alpha, "error": opt.error,
                  "evaluations": opt.evaluations, "unimodal": opt.unimodal},
         out / "optimize_alpha.json")
    write_sidecar(out / "optimize_alpha.config.json", "optimize-alpha", _resolved(cfg, gc))
    print(out / "optimize_alpha.json")
    return 0


def _cmd_sweep_noise(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    channel = str(cfg.get("noise", "dtheta")).replace("-", "_")
    if channel not in ("dtheta", "ddelta_rel", "dbeta_x_rel"):
        raise ConfigError(f"unknown noise channel {channel!r}")
    spec = SweepSpec(
        base=gc, param=channel, values=_floats(cfg.get("values", "1e-4")),
        input_state=str(cfg.get("input", "gkp:z+:0.5")),
        alpha_mode=str(cfg.get("alpha_mode", "cube")),
        alpha_coeff=float(cfg.get("alpha_coeff", 1.85)),
        workers=int(cfg.get("workers", 1)),
    )
    lam_dbs = _floats(cfg.get("lambda_db_values", cfg.get("lambda_db", "10")))
    rows = noise_sweep(spec, lam_dbs)
    out = _out_dir(cfg)
    header = ["param", "lam_db", "lam", "alpha", "value", "error_int",
              "error_plus", "error_minus", "excess", "ok", "message"]
    table = [tuple(r[h] for h in header) for r in rows]
    write_csv(out / "sweep_noise.csv", header, table)
    write_sidecar(out / "sweep_noise.config.json", "sweep-noise", _resolved(cfg, gc))
    print(out / "sweep_noise.csv")
    return 0


def _cmd_state_gen(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    span = float(cfg.get("wigner_span", 6.0))
    pts = int(cfg.get("wigner_points", 121))
    xs = np.linspace(-span, span, pts)
    res = generate_cubic_state(gc, delta=float(cfg.get("delta", 0.5)), grid=(xs, xs),
                               gaussian_correction=not args.no_correction)
    out = _out_dir(cfg)
    emit("json", {
        "fidelity": res.fidelity, "raw_fidelity": res.raw_fidelity,
        "nlq_variance": res.nlq_variance,
        "wigner_min": float(res.wigner.min()),
        "correction": [float(c) for c in res.correction],
    }, out / "state_gen.json")
    write_wigner_csv(out / "state_gen_wigner.csv", res.xs, res.ps, res.wigner)
    write_sidecar(out / "state_gen.config.json", "state-gen", _resolved(cfg, gc))
    print(out / "state_gen.json")
    return 0


def _cmd_trotter(args) -> int:
    cfg = _collect(args)
    gc = _gate_config(cfg)
    values = [int(v) for v in _floats(cfg.get("values", "1,2,4,8,16"))]
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock)
    # Trotter runs first: a lossy configuration is rejected before the
    # continuous gate integrates the master equation
    errors = [trotterized_gate(replace(gc, trotter_steps=n_t), psi).error for n_t in values]
    cont = cubic_gate(replace(gc, trotter_steps=0), psi).error
    rows = [(n_t, err, abs(err - cont)) for n_t, err in zip(values, errors)]
    out = _out_dir(cfg)
    write_csv(out / "trotter.csv", ["steps", "error", "abs_diff_vs_continuous"], rows)
    write_sidecar(out / "trotter.config.json", "trotter", _resolved(cfg, gc))
    print(out / "trotter.csv")
    return 0


def _cmd_soliton_fom(args) -> int:
    cfg = _collect(args)
    if args.builtin_table:
        mats = soliton.BUILTIN_MATERIALS
    elif args.materials:
        header, rows = read_csv(Path(args.materials))
        want = ["name", "gamma_nl", "alpha_att_dB_per_m", "wavelength_m", "t_fwhm_s"]
        if header != want:
            raise ConfigError(f"materials CSV must have columns {want}, got {header}")
        mats = tuple(
            soliton.MaterialParams(name=r[0], gamma_nl=float(r[1]), alpha_att=float(r[2]),
                                   wavelength=float(r[3]), t_fwhm=float(r[4]))
            for r in rows
        )
    else:
        raise ConfigError("soliton-fom needs --builtin-table or --materials CSV")
    table = [(m.name, m.gamma_nl, m.alpha_att, m.wavelength, m.t_fwhm,
              soliton.figure_of_merit(m)) for m in mats]
    out = _out_dir(cfg)
    write_csv(out / "soliton_fom.csv",
              ["name", "gamma_nl", "alpha_att_dB_per_m", "wavelength_m",
               "t_fwhm_s", "chi_over_kappa"], table)
    write_sidecar(out / "soliton_fom.config.json", "soliton-fom", _resolved(cfg))
    print(out / "soliton_fom.csv")
    return 0


# ---------------------------------------------------------------------------
# reproduce recipes
# ---------------------------------------------------------------------------


def _recipe_spec(name: str, workers: int) -> dict:
    """Parameter sets of the named dataset recipes."""
    base = GateConfig.make(lam_db=10.0, alpha=50.0, gamma=0.1, n_fock=128)
    if name == "fig2":
        return {
            "kind": "lambda-sweeps",
            "states": [f"gkp:{lbl}:{d}" for lbl in ("z+", "z-", "x+", "x-", "y+", "y-")
                       for d in (0.3, 0.4, 0.5)],
            "values": (5.0, 7.5, 10.0, 12.5, 15.0),
            "base": replace(base, n_fock=256),
            "alpha_mode": "optimize",
            "workers": workers,
        }
    if name == "fig3a":
        return {
            "kind": "alpha-grids",
            "chi_over_kappa": (1e-3, 1e-4, 1e-5),
            "lam_db": (10.0, 12.5, 15.0, 17.5, 20.0),
            "alpha_factors": tuple(float(f) for f in np.geomspace(0.6, 30.0, 10)),
            "base": base, "workers": workers,
        }
    if name == "fig3b":
        return {
            "kind": "lossy-sweeps",
            "grids": {1e-3: (12.5, 15.0, 17.5, 20.0),
                      1e-4: (15.0, 17.5, 20.0, 22.5),
                      1e-5: (17.5, 20.0, 22.5, 25.0)},
            "base": base, "workers": workers,
        }
    if name == "fig3c":
        return {"kind": "noise", "channel": "dtheta",
                "values": (1e-5, 3e-5, 1e-4, 3e-4),
                "lam_db": (10.0, 12.5, 15.0, 17.5), "base": base, "workers": workers}
    if name == "fig4":
        return {"kind": "state-gen",
                "base": GateConfig.make(lam_db=15.0, alpha=1.4e4, gamma=0.1,
                                        chi_over_kappa=1e-4, n_fock=128)}
    if name == "fig5":
        # alpha grids per squeezing keep the discrete-drive kick representable
        return {"kind": "trotter-curves",
                "grids": {5.0: (5.0, 8.0, 12.0, 16.0), 10.0: (12.0, 16.0, 20.0, 25.0)},
                "trotter": (1, 2, 4), "n_fock": 448, "workers": workers}
    if name == "fig6a":
        return {"kind": "noise", "channel": "ddelta_rel",
                "values": (1e-6, 3e-6, 1e-5),
                "lam_db": (10.0, 12.5, 15.0, 17.5), "base": base, "workers": workers}
    if name == "fig6b":
        return {"kind": "noise", "channel": "dbeta_x_rel",
                "values": (1e-6, 3e-6, 1e-5),
                "lam_db": (10.0, 12.5, 15.0, 17.5), "base": base, "workers": workers}
    if name == "fig7b":
        return {"kind": "photon-trace", "lam_db": (5.0, 10.0, 15.0), "samples": 41,
                "base": base, "workers": workers}
    if name == "table1":
        return {"kind": "table1"}
    raise ConfigError(f"unknown recipe {name!r}; choose from {RECIPES}")


def _run_recipe(name: str, spec: dict, out: Path, cfg: dict) -> list[Path]:
    written: list[Path] = []
    kind = spec["kind"]
    if kind == "table1":
        table = [(m.name, soliton.figure_of_merit(m)) for m in soliton.BUILTIN_MATERIALS]
        p = out / "table1.csv"
        write_csv(p, ["name", "chi_over_kappa"], table)
        written.append(p)
    elif kind == "lambda-sweeps":
        all_rows = []
        for state in spec["states"]:
            sw = SweepSpec(base=spec["base"], param="lam_db", values=spec["values"],
                           input_state=state, alpha_mode=spec["alpha_mode"],
                           workers=spec["workers"])
            for r in lambda_sweep(sw):
                all_rows.append((state, r["value"], r["lam"], r["alpha"],
                                 r["error"], r["ok"], r["message"]))
        p = out / f"{name}.csv"
        write_csv(p, ["state", "lam_db", "lam", "alpha", "error", "ok", "message"], all_rows)
        written.append(p)
    elif kind == "lossy-sweeps":
        all_rows = []
        for cok, lam_dbs in spec["grids"].items():
            sw = SweepSpec(base=replace(spec["base"], kappa=spec["base"].chi / cok),
                           param="lam_db", values=lam_dbs, alpha_mode="optimize",
                           bracket_scale=(0.8, 12.0), workers=spec["workers"])
            for r in run_sweep(sw):
                all_rows.append((cok, r["value"], r["lam"], r["alpha"],
                                 r["error"], r["ok"], r["message"]))
        p = out / f"{name}.csv"
        write_csv(p, ["chi_over_kappa", "lam_db", "lam", "alpha", "error",
                      "ok", "message"], all_rows)
        written.append(p)
    elif kind == "alpha-grids":
        all_rows = []
        for cok in spec["chi_over_kappa"]:
            for db in spec["lam_db"]:
                lam = lambda_from_db(db)
                sw = SweepSpec(
                    base=replace(spec["base"], kappa=spec["base"].chi / cok,
                                 lam=lam),
                    param="alpha",
                    values=tuple(f * 1.85 * lam**3 for f in spec["alpha_factors"]),
                    workers=spec["workers"],
                )
                for r in run_sweep(sw):
                    all_rows.append((cok, db, r["value"], r["error"], r["ok"], r["message"]))
        p = out / f"{name}.csv"
        write_csv(p, ["chi_over_kappa", "lam_db", "alpha", "error", "ok", "message"], all_rows)
        written.append(p)
    elif kind == "noise":
        sw = SweepSpec(base=spec["base"], param=spec["channel"],
                       values=spec["values"], alpha_mode="cube",
                       workers=spec["workers"])
        rows = noise_sweep(sw, spec["lam_db"])
        header = ["param", "lam_db", "lam", "alpha", "value", "error_int",
                  "error_plus", "error_minus", "excess", "ok", "message"]
        p = out / f"{name}.csv"
        write_csv(p, header, [tuple(r[h] for h in header) for r in rows])
        written.append(p)
    elif kind == "trotter-curves":
        rows = []
        for db, alphas in spec["grids"].items():
            lam = lambda_from_db(db)
            for alpha in alphas:
                gc = GateConfig(lam=lam, alpha=alpha, gamma=0.1, n_fock=spec["n_fock"])
                psi = parse_state("gkp:z+:0.5", gc.n_fock)
                e_cont = cubic_gate(gc, psi).error
                for n_t in spec["trotter"]:
                    res = trotterized_gate(replace(gc, trotter_steps=n_t), psi)
                    rows.append((db, alpha, n_t, res.error, e_cont))
        p = out / f"{name}.csv"
        write_csv(p, ["lam_db", "alpha", "trotter_steps", "error", "error_continuous"], rows)
        written.append(p)
    elif kind == "state-gen":
        res = generate_cubic_state(spec["base"])
        p = out / f"{name}.json"
        emit("json", {"fidelity": res.fidelity, "raw_fidelity": res.raw_fidelity,
                      "nlq_variance": res.nlq_variance,
                      "wigner_min": float(res.wigner.min())}, p)
        wp = out / f"{name}_wigner.csv"
        write_wigner_csv(wp, res.xs, res.ps, res.wigner)
        written.extend([p, wp])
    elif kind == "photon-trace":
        rows = []
        for db in spec["lam_db"]:
            lam = lambda_from_db(db)
            gc = replace(spec["base"], lam=lam)
            psi = parse_state("gkp:z+:0.5", gc.n_fock)
            center = 1.85 * lam**3
            opt = optimize_alpha(gc, (0.45 * center, 3.5 * center), psi)
            series, _ = photon_number_trace(replace(gc, alpha=opt.alpha), psi, spec["samples"])
            for t, tot, fl, var in zip(series["t"], series["total"],
                                       series["fluctuation"], series["variance"]):
                rows.append((db, opt.alpha, t, tot, fl, var))
        p = out / f"{name}.csv"
        write_csv(p, ["lam_db", "alpha", "t", "n_total", "n_fluctuation", "variance"], rows)
        written.append(p)
    else:
        raise ConfigError(f"recipe kind {kind!r} not implemented")
    return written


def _cmd_reproduce(args) -> int:
    cfg = _collect(args)
    out = _out_dir(cfg)
    name = args.recipe
    spec = _recipe_spec(name, cfg.workers)
    resolved = _resolved(cfg)
    resolved["recipe"] = name
    resolved["recipe_spec"] = json.loads(json.dumps(spec, default=str))
    write_sidecar(out / f"{name}.config.json", f"reproduce {name}", resolved)
    if args.dry_run:
        print(out / f"{name}.config.json")
        return 0
    for p in _run_recipe(name, spec, out, cfg):
        print(p)
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kerrcubic",
                                 description="Kerr-based cubic phase gate toolkit")
    sub = ap.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--fock", type=int, default=None)
        p.add_argument("--lambda-db", dest="lambda_db", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--chi", type=float, default=None)
        p.add_argument("--chi-over-kappa", dest="chi_over_kappa", type=float, default=None)
        p.add_argument("--loss-frame", dest="loss_frame",
                       choices=["fluctuation", "displaced"], default=None)
        p.add_argument("--trotter", type=int, default=None)
        p.add_argument("--dtheta", type=float, default=None)
        p.add_argument("--ddelta-rel", dest="ddelta_rel", type=float, default=None)
        p.add_argument("--dbetax-rel", dest="dbetax_rel", type=float, default=None)
        p.add_argument("--input", default=None)
        p.add_argument("--values", default=None)
        p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("heff-expand")
    add_common(p)
    p.add_argument("--beta", type=float, default=None)

    p = sub.add_parser("state")
    add_common(p)
    p.add_argument("--wigner", action="store_true")

    p = sub.add_parser("gate")
    add_common(p)
    p.add_argument("--wigner", action="store_true")

    p = sub.add_parser("sweep-lambda")
    add_common(p)
    p.add_argument("--alpha-mode", dest="alpha_mode",
                   choices=["fixed", "cube", "optimize"], default=None)
    p.add_argument("--alpha-coeff", dest="alpha_coeff", type=float, default=None)

    p = sub.add_parser("optimize-alpha")
    add_common(p)
    p.add_argument("--bracket", default=None)

    p = sub.add_parser("sweep-noise")
    add_common(p)
    p.add_argument("--noise", choices=["dtheta", "ddelta-rel", "dbetax-rel"], default=None)
    p.add_argument("--lambda-db-values", dest="lambda_db_values", default=None)
    p.add_argument("--alpha-mode", dest="alpha_mode",
                   choices=["fixed", "cube"], default=None)
    p.add_argument("--alpha-coeff", dest="alpha_coeff", type=float, default=None)

    p = sub.add_parser("state-gen")
    add_common(p)
    p.add_argument("--no-correction", action="store_true")

    p = sub.add_parser("trotter")
    add_common(p)

    p = sub.add_parser("soliton-fom")
    add_common(p)
    p.add_argument("--builtin-table", action="store_true")
    p.add_argument("--materials", default=None)

    p = sub.add_parser("reproduce")
    add_common(p)
    p.add_argument("recipe", choices=list(RECIPES))
    p.add_argument("--dry-run", action="store_true")
    return ap


_HANDLERS = {
    "heff-expand": _cmd_heff_expand,
    "state": _cmd_state,
    "gate": _cmd_gate,
    "sweep-lambda": _cmd_sweep_lambda,
    "optimize-alpha": _cmd_optimize_alpha,
    "sweep-noise": _cmd_sweep_noise,
    "state-gen": _cmd_state_gen,
    "trotter": _cmd_trotter,
    "soliton-fom": _cmd_soliton_fom,
    "reproduce": _cmd_reproduce,
}


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


def dispatch(argv) -> int:
    """Parse argv, run the subcommand; exit codes 0/2/3 per the interface contract."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return handler(args)
    except (IntegrationError, ArithmeticError, OSError, RuntimeError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 2


def main(argv=None) -> int:
    code = dispatch(sys.argv[1:] if argv is None else argv)
    sys.exit(code)


if __name__ == "__main__":
    main()

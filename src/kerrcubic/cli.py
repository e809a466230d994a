"""Command-line front end.

Subcommands: heff-expand, state, gate, sweep-lambda, optimize-alpha,
sweep-noise, state-gen, trotter, soliton-fom, reproduce.

Every option is declared once, in `_OPTIONS`, with the subcommands that read
it; a `--config` file may set any option its subcommand reads, and flags
override the file. `dispatch` resolves them, runs the
subcommand's handler and writes a JSON sidecar of every option the run set,
from which the run is reproducible byte-for-byte. Exit codes: 0 success, 2
configuration error, 3 numerical/IO failure. Errors go to stderr as one JSON
object. CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
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
    ALPHA_BRACKET_SCALE,
    ALPHA_COEFF,
    SweepSpec,
    _resolve_relative_noise,
    generate_cubic_state,
    noise_sweep,
    optimize_alpha,
    run_sweep,
)
from .fock import lambda_from_db, wigner
from .states import parse_state

SCHEMA_VERSION = 1

RECIPES = ("fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5",
           "fig6a", "fig6b", "fig7b", "table1")

_SWITCH = {"action": "store_true", "default": None}  # unset: not recorded

# subcommands that run on a GateConfig, built from the gate options
_GATE_COMMANDS = ("gate", "sweep-lambda", "optimize-alpha", "sweep-noise", "state-gen", "trotter")

# config key -> (flag keywords, subcommands that read it): None for every
# subcommand, or a mapping of subcommand -> its own extra flag keywords. A
# subcommand takes the flag --key-name unless the keywords are None (a
# config-file-only key); neither a flag nor a config file may set a key the
# subcommand does not read. `--config`, `--dry-run` and the `reproduce`
# recipe select how the program runs and are declared apart.
_OPTIONS = {
    "out": ({}, None),
    "input": ({}, ("state", "gate", "sweep-lambda", "optimize-alpha", "sweep-noise", "trotter")),
    "values": ({}, ("sweep-lambda", "sweep-noise", "trotter")),
    "workers": ({"type": int}, ("sweep-lambda", "sweep-noise", "reproduce")),
    "fock": ({"type": int}, ("state", *_GATE_COMMANDS)),
    "trotter": ({"type": int}, _GATE_COMMANDS),
    **dict.fromkeys(["lambda_db", "alpha", "chi"], ({"type": float},
                                                   ("heff-expand", *_GATE_COMMANDS))),
    **dict.fromkeys(["gamma", "chi_over_kappa", "dtheta", "ddelta_rel", "dbetax_rel"],
                    ({"type": float}, _GATE_COMMANDS)),
    "delta": ({"type": float}, ("heff-expand", "state-gen")),
    "loss_frame": ({"choices": ["fluctuation", "displaced"]}, _GATE_COMMANDS),
    "beta": ({"type": float}, ("heff-expand",)),
    "wigner": (_SWITCH, ("state", "gate")),
    "alpha_mode": ({}, {"sweep-lambda": {"choices": ["fixed", "cube", "optimize"]},
                        "sweep-noise": {"choices": ["fixed", "cube"]}}),
    "alpha_coeff": ({"type": float}, ("sweep-lambda", "sweep-noise")),
    "bracket": ({}, ("optimize-alpha",)),
    "noise": ({"choices": ["dtheta", "ddelta-rel", "dbetax-rel"]}, ("sweep-noise",)),
    "lambda_db_values": ({}, ("sweep-noise",)),
    "no_correction": (_SWITCH, ("state-gen",)),
    "builtin_table": (_SWITCH, ("soliton-fom",)),
    "materials": ({}, ("soliton-fom",)),
    **dict.fromkeys(["wigner_span", "wigner_points"], (None, ("state", "gate", "state-gen"))),
}

_CONFIG_KEYS = frozenset(_OPTIONS)

# config key -> (parse, test, rule): the value checked when the config is
# collected, before any work
_VALUE_RULES = {
    "workers": (int, lambda v: v >= 1, "an integer >= 1"),
    "fock": (int, lambda v: v >= 2, "an integer >= 2"),
    "wigner_points": (int, lambda v: v >= 1, "an integer >= 1"),
    "wigner_span": (float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
}


def _reads(command: str, key: str) -> bool:
    names = _OPTIONS[key][1]
    return names is None or command in names


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


class RunConfig(dict):
    """Resolved run configuration: file values overridden by flags.

    Plain mapping plus the fields every run needs; construct through
    `RunConfig.collect`. `dry_run` is an attribute, not a key: it selects how
    the program runs, so the sidecar does not record it.
    """

    @classmethod
    def collect(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if args.config:
            cfg.update(parse_config_file(args.config, args.command))
        # the recipe of `reproduce` is recorded like an option, but only the
        # command line sets it
        for key in (*_OPTIONS, "recipe"):
            flag = getattr(args, key, None)
            if flag is not None:
                cfg[key] = flag
        for key, (parse, test, rule) in _VALUE_RULES.items():
            if key in cfg:
                try:
                    ok = test(parse(cfg[key]))
                except ValueError:
                    ok = False
                if not ok:
                    raise ConfigError(f"{key} must be {rule}, got {cfg[key]!r}")
        if "out" not in cfg:
            cfg["out"] = os.environ.get("KERRCUBIC_OUT", ".")
        cfg.dry_run = bool(getattr(args, "dry_run", False))
        return cfg

    @property
    def out_dir(self) -> Path:
        out = Path(str(self["out"]))
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def workers(self) -> int:
        return int(self.get("workers", 1))

    @property
    def wigner_axis(self) -> np.ndarray:
        span = float(self.get("wigner_span", 6.0))
        return np.linspace(-span, span, int(self.get("wigner_points", 121)))


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
    write_csv(path, ["x", "p", "w"],
              [(x, p, w[i, j]) for i, x in enumerate(xs) for j, p in enumerate(ps)])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def emit(payload, path: Path) -> None:
    """Write a JSON document, keys sorted."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(path: Path, command: str, resolved: dict) -> None:
    emit({"schema_version": SCHEMA_VERSION, "command": command,
          "resolved_config": resolved}, path)


def _row_table(rows, header: list[str]) -> tuple[list[str], list[tuple]]:
    """The `header` keys of each sweep-row dict, as a CSV table."""
    return header, [tuple(r[h] for h in header) for r in rows]


# ---------------------------------------------------------------------------
# configuration collection
# ---------------------------------------------------------------------------


def parse_config_file(path: str, command: str) -> dict:
    """Plain-text `key = value` lines; '#' comments; unknown keys, and keys
    the subcommand `command` does not read, rejected.

    Values stay strings, except that a switch reads `true` or `false`.
    """
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
        if not _reads(command, key):
            raise ConfigError(f"{path}:{ln_no}: {command} does not read key {key!r}")
        if _OPTIONS[key][0] is _SWITCH:
            if value not in ("true", "false"):
                raise ConfigError(f"{path}:{ln_no}: {key} must be true or false, got {value!r}")
            value = value == "true"
        out[key] = value
    return out


def _floats(v) -> tuple[float, ...]:
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
    for key, param in (("ddelta_rel", "ddelta_rel"), ("dbetax_rel", "dbeta_x_rel")):
        if float(cfg.get(key, 0.0)) != 0.0:
            gc = _resolve_relative_noise(param, gc, float(cfg[key]))
    return gc


def _resolved(cfg: dict, gc: GateConfig | None = None) -> dict:
    doc = dict(cfg)
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
# subcommands: each computes and writes its artifacts and returns the paths
# to print; `dispatch` writes the sidecar
# ---------------------------------------------------------------------------


def _cmd_heff_expand(cfg: RunConfig, gc: None) -> list[Path]:
    chi = float(cfg.get("chi", 1.0))
    lam = lambda_from_db(float(cfg.get("lambda_db", 10.0)))
    alpha = float(cfg.get("alpha", 50.0))
    dc, bc = algebra.cubic_counterterms(chi)
    delta = algebra.AlphaPoly(float(cfg["delta"])) if "delta" in cfg else dc
    beta = algebra.AlphaPoly(float(cfg["beta"])) if "beta" in cfg else bc
    h = algebra.substitute_gaussian_frame(
        algebra.driven_kerr(chi, delta, beta), lam
    ).drop_constant()
    quad = algebra.to_quadrature_form(h)
    rows = []
    for (j, k) in sorted(quad.terms, key=lambda t: (t[0] + t[1], t)):
        c = quad.quad_coefficient(j, k, alpha)
        rows.append((f"x^{j} p^{k}", c.real, c.imag))
    path = cfg.out_dir / "heff_expand.csv"
    write_csv(path, ["monomial", "coefficient-real", "coefficient-imag"], rows)
    return [path]


def _cmd_state(cfg: RunConfig, gc: None) -> list[Path]:
    psi = parse_state(str(cfg.get("input", "vacuum")), int(cfg.get("fock", 128)), 0.0)
    out = cfg.out_dir
    if cfg.get("wigner"):
        xs = cfg.wigner_axis
        path = out / "state_wigner.csv"
        write_wigner_csv(path, xs, xs, wigner(psi, xs, xs))
    else:
        path = out / "state_amplitudes.csv"
        write_csv(path, ["n", "re", "im"], [(k, a.real, a.imag) for k, a in enumerate(psi.vector)])
    return [path]


def _cmd_gate(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock, gc.gamma)
    res = cubic_gate(gc, psi)
    out = cfg.out_dir
    doc = {
        "error": res.error, "fidelity": 1.0 - res.error,
        "tau": res.diagnostics.get("tau"),
        "steps": res.diagnostics.get("steps"),
        "trace_drift": res.diagnostics.get("trace_drift"),
    }
    emit(doc, out / "gate_result.json")
    if cfg.get("wigner"):
        xs = cfg.wigner_axis
        write_wigner_csv(out / "gate_wigner.csv", xs, xs, wigner(res.state, xs, xs))
    return [out / "gate_result.json"]


_SWEEP_HEADER = ["value", "lam_db", "lam", "alpha", "error", "tau", "ok", "message"]
_NOISE_HEADER = ["param", "lam_db", "lam", "alpha", "value", "error_int",
                 "error_plus", "error_minus", "excess", "ok", "message"]
_FOM_HEADER = ["name", "gamma_nl", "alpha_att_dB_per_m", "wavelength_m",
               "t_fwhm_s", "chi_over_kappa"]


def _sweep_spec(cfg: RunConfig, gc: GateConfig, param: str, values: str,
                alpha_mode: str) -> SweepSpec:
    """The sweep the sweep subcommands read from `cfg`, with their own defaults."""
    return SweepSpec(base=gc, param=param, values=_floats(cfg.get("values", values)),
                     input_state=str(cfg.get("input", "gkp:z+:0.5")),
                     alpha_mode=str(cfg.get("alpha_mode", alpha_mode)),
                     alpha_coeff=float(cfg.get("alpha_coeff", ALPHA_COEFF)), workers=cfg.workers)


def _cmd_sweep_lambda(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    spec = _sweep_spec(cfg, gc, "lam_db", "5,7.5,10,12.5,15", "optimize")
    path = cfg.out_dir / "sweep_lambda.csv"
    write_csv(path, *_row_table(run_sweep(spec), _SWEEP_HEADER))
    return [path]


def _cmd_optimize_alpha(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    center = ALPHA_COEFF * gc.lam**3
    bracket = _floats(cfg.get("bracket", "")) or tuple(s * center for s in ALPHA_BRACKET_SCALE)
    if len(bracket) != 2:
        raise ConfigError("bracket must be 'lo,hi'")
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock, gc.gamma)
    opt = optimize_alpha(gc, bracket, psi)
    path = cfg.out_dir / "optimize_alpha.json"
    emit({"alpha": opt.alpha, "error": opt.error,
          "evaluations": opt.evaluations, "kind": opt.kind, "unimodal": opt.unimodal}, path)
    return [path]


def _cmd_sweep_noise(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    channel = str(cfg.get("noise", "dtheta")).replace("-", "_")
    channel = {"dbetax_rel": "dbeta_x_rel"}.get(channel, channel)  # flag spelling
    if channel not in ("dtheta", "ddelta_rel", "dbeta_x_rel"):
        raise ConfigError(f"unknown noise channel {channel!r}")
    spec = _sweep_spec(cfg, gc, channel, "1e-4", "cube")
    lam_dbs = _floats(cfg.get("lambda_db_values", cfg.get("lambda_db", "10")))
    path = cfg.out_dir / "sweep_noise.csv"
    write_csv(path, *_row_table(noise_sweep(spec, lam_dbs), _NOISE_HEADER))
    return [path]


def _cmd_state_gen(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    xs = cfg.wigner_axis
    res = generate_cubic_state(gc, delta=float(cfg.get("delta", 0.5)), grid=(xs, xs),
                               gaussian_correction=not cfg.get("no_correction"))
    doc, _ = _write_state_gen(res, cfg.out_dir, "state_gen",
                              correction=[float(c) for c in res.correction])
    return [doc]


def _trotter_errors(gc: GateConfig, psi, steps) -> tuple[list[float], float]:
    """Trotterized gate errors for each step count, and the continuous gate's error.

    Trotter runs first: a lossy configuration is rejected before the
    continuous gate integrates the master equation.
    """
    errors = [trotterized_gate(replace(gc, trotter_steps=n_t), psi).error for n_t in steps]
    return errors, cubic_gate(replace(gc, trotter_steps=0), psi).error


def _cmd_trotter(cfg: RunConfig, gc: GateConfig) -> list[Path]:
    values = _floats(cfg.get("values", "1,2,4,8,16"))
    if not values:
        raise ConfigError("trotter needs a non-empty list of step counts")
    if not all(v.is_integer() and v >= 1 for v in values):
        raise ConfigError(f"trotter step counts must be whole numbers >= 1, got {values}")
    steps = [int(v) for v in values]
    psi = parse_state(str(cfg.get("input", "gkp:z+:0.5")), gc.n_fock, gc.gamma)
    errors, cont = _trotter_errors(gc, psi, steps)
    rows = [(n_t, err, abs(err - cont)) for n_t, err in zip(steps, errors)]
    path = cfg.out_dir / "trotter.csv"
    write_csv(path, ["steps", "error", "abs_diff_vs_continuous"], rows)
    return [path]


def _cmd_soliton_fom(cfg: RunConfig, gc: None) -> list[Path]:
    if cfg.get("builtin_table"):
        mats = soliton.BUILTIN_MATERIALS
    elif cfg.get("materials"):
        header, rows = read_csv(Path(cfg["materials"]))
        want = _FOM_HEADER[:-1]
        if header != want:
            raise ConfigError(f"materials CSV must have columns {want}, got {header}")
        mats = tuple(
            soliton.MaterialParams(name=r[0], gamma_nl=float(r[1]), alpha_att=float(r[2]),
                                   wavelength=float(r[3]), t_fwhm=float(r[4]))
            for r in rows
        )
    else:
        raise ConfigError("soliton-fom needs --builtin-table or --materials CSV")
    path = cfg.out_dir / "soliton_fom.csv"
    write_csv(path, _FOM_HEADER, _fom_rows(mats))
    return [path]


# ---------------------------------------------------------------------------
# reproduce recipes
# ---------------------------------------------------------------------------


def _recipe_spec(name: str, workers: int) -> dict:
    """Parameter sets of the named dataset recipes."""
    base = GateConfig.make(lam_db=10.0, alpha=50.0, gamma=0.1, n_fock=128)

    def noise(channel, values):
        return {"kind": "noise", "channel": channel, "values": values,
                "lam_db": (10.0, 12.5, 15.0, 17.5), "base": base, "workers": workers}

    specs = {
        "fig2": {
            "kind": "lambda-sweeps",
            "states": [f"gkp:{lbl}:{d}" for lbl in ("z+", "z-", "x+", "x-", "y+", "y-")
                       for d in (0.3, 0.4, 0.5)],
            "values": (5.0, 7.5, 10.0, 12.5, 15.0),
            "base": replace(base, n_fock=256),
            "alpha_mode": "optimize",
            "workers": workers,
        },
        "fig3a": {
            "kind": "alpha-grids",
            "chi_over_kappa": (1e-3, 1e-4, 1e-5),
            "lam_db": (10.0, 12.5, 15.0, 17.5, 20.0),
            "alpha_factors": tuple(float(f) for f in np.geomspace(0.6, 30.0, 10)),
            "base": base, "workers": workers,
        },
        "fig3b": {
            "kind": "lossy-sweeps",
            "grids": {1e-3: (12.5, 15.0, 17.5, 20.0),
                      1e-4: (15.0, 17.5, 20.0, 22.5),
                      1e-5: (17.5, 20.0, 22.5, 25.0)},
            "base": base, "workers": workers,
        },
        "fig3c": noise("dtheta", (1e-5, 3e-5, 1e-4, 3e-4)),
        "fig4": {"kind": "state-gen",
                 "base": GateConfig.make(lam_db=15.0, alpha=1.4e4, gamma=0.1,
                                         chi_over_kappa=1e-4, n_fock=128)},
        # alpha grids per squeezing keep the discrete-drive kick representable
        "fig5": {"kind": "trotter-curves",
                 "grids": {5.0: (5.0, 8.0, 12.0, 16.0), 10.0: (12.0, 16.0, 20.0, 25.0)},
                 "trotter": (1, 2, 4), "n_fock": 448},
        "fig6a": noise("ddelta_rel", (1e-6, 3e-6, 1e-5)),
        "fig6b": noise("dbeta_x_rel", (1e-6, 3e-6, 1e-5)),
        "fig7b": {"kind": "photon-trace", "lam_db": (5.0, 10.0, 15.0), "samples": 41,
                  "base": base},
        "table1": {"kind": "table1"},
    }
    if name not in specs:
        raise ConfigError(f"unknown recipe {name!r}; choose from {RECIPES}")
    return specs[name]


def _write_state_gen(res, out: Path, stem: str, **extra) -> list[Path]:
    """The state-generation result document (plus `extra` keys) and its Wigner grid."""
    doc, grid = out / f"{stem}.json", out / f"{stem}_wigner.csv"
    emit({"fidelity": res.fidelity, "raw_fidelity": res.raw_fidelity,
          "nlq_variance": res.nlq_variance, "wigner_min": float(res.wigner.min()),
          **extra}, doc)
    write_wigner_csv(grid, res.xs, res.ps, res.wigner)
    return [doc, grid]


def _fom_rows(mats) -> list[tuple]:
    return [(m.name, m.gamma_nl, m.alpha_att, m.wavelength, m.t_fwhm,
             soliton.figure_of_merit(m)) for m in mats]


def _table1(spec: dict) -> tuple[list, list]:
    return ([_FOM_HEADER[0], _FOM_HEADER[-1]],
            [(r[0], r[-1]) for r in _fom_rows(soliton.BUILTIN_MATERIALS)])


_SWEEP_CELLS = ("value", "lam", "alpha", "error", "ok", "message")


def _sweep_table(jobs, header: list[str], cells=_SWEEP_CELLS) -> tuple[list, list]:
    """Run each (leading cells, SweepSpec) job; a row is its leading cells + `cells`."""
    return header, [lead + tuple(r[c] for c in cells)
                    for lead, sweep in jobs for r in run_sweep(sweep)]


def _lambda_sweeps(spec: dict) -> tuple[list, list]:
    jobs = [((state,), SweepSpec(base=spec["base"], param="lam_db", values=spec["values"],
                                 input_state=state, alpha_mode=spec["alpha_mode"],
                                 workers=spec["workers"]))
            for state in spec["states"]]
    return _sweep_table(jobs, ["state", "lam_db", "lam", "alpha", "error", "ok", "message"])


def _lossy_sweeps(spec: dict) -> tuple[list, list]:
    base = spec["base"]
    jobs = [((cok,), SweepSpec(base=replace(base, kappa=base.chi / cok), param="lam_db",
                               values=lam_dbs, alpha_mode="optimize",
                               bracket_scale=(0.8, 12.0), workers=spec["workers"]))
            for cok, lam_dbs in spec["grids"].items()]
    return _sweep_table(jobs, ["chi_over_kappa", "lam_db", "lam", "alpha", "error",
                               "ok", "message"])


def _alpha_grids(spec: dict) -> tuple[list, list]:
    base, jobs = spec["base"], []
    for cok in spec["chi_over_kappa"]:
        for db in spec["lam_db"]:
            lam = lambda_from_db(db)
            values = tuple(f * ALPHA_COEFF * lam**3 for f in spec["alpha_factors"])
            jobs.append(((cok, db), SweepSpec(base=replace(base, kappa=base.chi / cok, lam=lam),
                                              param="alpha", values=values,
                                              workers=spec["workers"])))
    return _sweep_table(jobs, ["chi_over_kappa", "lam_db", "alpha", "error", "ok", "message"],
                        ("value", "error", "ok", "message"))


def _noise_table(spec: dict) -> tuple[list, list]:
    sw = SweepSpec(base=spec["base"], param=spec["channel"], values=spec["values"],
                   alpha_mode="cube", workers=spec["workers"])
    return _row_table(noise_sweep(sw, spec["lam_db"]), _NOISE_HEADER)


def _trotter_curves(spec: dict) -> tuple[list, list]:
    rows = []
    for db, alphas in spec["grids"].items():
        lam = lambda_from_db(db)
        for alpha in alphas:
            gc = GateConfig(lam=lam, alpha=alpha, gamma=0.1, n_fock=spec["n_fock"])
            psi = parse_state("gkp:z+:0.5", gc.n_fock, gc.gamma)
            errors, e_cont = _trotter_errors(gc, psi, spec["trotter"])
            rows += [(db, alpha, n_t, err, e_cont) for n_t, err in zip(spec["trotter"], errors)]
    return ["lam_db", "alpha", "trotter_steps", "error", "error_continuous"], rows


def _photon_trace(spec: dict) -> tuple[list, list]:
    rows = []
    for db in spec["lam_db"]:
        lam = lambda_from_db(db)
        gc = replace(spec["base"], lam=lam)
        psi = parse_state("gkp:z+:0.5", gc.n_fock, gc.gamma)
        center = ALPHA_COEFF * lam**3
        opt = optimize_alpha(gc, tuple(s * center for s in ALPHA_BRACKET_SCALE), psi)
        series = photon_number_trace(replace(gc, alpha=opt.alpha), psi, spec["samples"])
        for t, tot, fl, var in zip(series["t"], series["total"],
                                   series["fluctuation"], series["variance"]):
            rows.append((db, opt.alpha, t, tot, fl, var))
    return ["lam_db", "alpha", "t", "n_total", "n_fluctuation", "variance"], rows


# recipe kind -> (header, rows) of its CSV table
_RECIPE_TABLES = {
    "table1": _table1,
    "lambda-sweeps": _lambda_sweeps,
    "lossy-sweeps": _lossy_sweeps,
    "alpha-grids": _alpha_grids,
    "noise": _noise_table,
    "trotter-curves": _trotter_curves,
    "photon-trace": _photon_trace,
}


def _run_recipe(name: str, spec: dict, out: Path) -> list[Path]:
    if spec["kind"] == "state-gen":
        return _write_state_gen(generate_cubic_state(spec["base"]), out, name)
    p = out / f"{name}.csv"
    write_csv(p, *_RECIPE_TABLES[spec["kind"]](spec))
    return [p]


def _cmd_reproduce(cfg: RunConfig, gc: None) -> list[Path]:
    """Write the sidecar first: `--dry-run` writes only the sidecar."""
    out = cfg.out_dir
    name = cfg["recipe"]
    spec = _recipe_spec(name, cfg.workers)
    sidecar = out / f"{name}.config.json"
    write_sidecar(sidecar, f"reproduce {name}",
                  {**_resolved(cfg), "recipe_spec": json.loads(json.dumps(spec, default=str))})
    if cfg.dry_run:
        return [sidecar]
    return _run_recipe(name, spec, out)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# subcommand -> (handler, sidecar stem); reproduce writes its own sidecar,
# named after the recipe
_COMMANDS = {
    "heff-expand": (_cmd_heff_expand, "heff_expand"),
    "state": (_cmd_state, "state"),
    "gate": (_cmd_gate, "gate_result"),
    "sweep-lambda": (_cmd_sweep_lambda, "sweep_lambda"),
    "optimize-alpha": (_cmd_optimize_alpha, "optimize_alpha"),
    "sweep-noise": (_cmd_sweep_noise, "sweep_noise"),
    "state-gen": (_cmd_state_gen, "state_gen"),
    "trotter": (_cmd_trotter, "trotter"),
    "soliton-fom": (_cmd_soliton_fom, "soliton_fom"),
    "reproduce": (_cmd_reproduce, None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kerrcubic",
                                 description="Kerr-based cubic phase gate toolkit")
    sub = ap.add_subparsers(dest="command")
    cmd = {name: sub.add_parser(name) for name in _COMMANDS}
    for p in cmd.values():
        p.add_argument("--config", default=None)
    for key, (kwargs, names) in _OPTIONS.items():
        if kwargs is None:  # config-file-only
            continue
        for name in _COMMANDS if names is None else names:
            extra = names[name] if isinstance(names, dict) else {}
            cmd[name].add_argument("--" + key.replace("_", "-"), **kwargs, **extra)
    cmd["reproduce"].add_argument("recipe", choices=list(RECIPES))
    cmd["reproduce"].add_argument("--dry-run", action="store_true")
    return ap


_NUMERICAL_FAILURES = (IntegrationError, ArithmeticError, OSError, RuntimeError)


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
    handler, stem = _COMMANDS[args.command]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = RunConfig.collect(args)
            gc = _gate_config(cfg) if args.command in _GATE_COMMANDS else None
            paths = handler(cfg, gc)
            if stem is not None:
                write_sidecar(cfg.out_dir / f"{stem}.config.json", args.command,
                              _resolved(cfg, gc))
    except (*_NUMERICAL_FAILURES, ValueError) as exc:  # ConfigError is a ValueError
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 3 if isinstance(exc, _NUMERICAL_FAILURES) else 2
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: heff-expand, state, gate, sweep-lambda, optimize-alpha,
sweep-noise, state-gen, trotter, soliton-fom, reproduce.

Every option is declared once, in `_OPTIONS`, with its value rule and the
subcommands that read it; a `--config` file may set any option its
subcommand reads, and flags override the file. A flag's text and a file's
text are parsed by the same rule. `dispatch` resolves them and runs the
subcommand's handler, which computes its files but writes none. `dispatch`
adds the JSON sidecar `<stem>.config.json` of the parsed value of every option
the run set, from which the run is reproducible byte-for-byte, and only once
the handler has returned does it create `--out`, write every file and print
its path, one per line: a run that fails writes nothing. Exit codes: 0
success, 2 configuration error, 3 numerical/IO failure. Errors go to stderr
as one JSON object. CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import algebra, soliton
from .dynamics import (
    _CHI,
    GateConfig,
    IntegrationError,
    NoiseParams,
    cubic_gate,
    photon_number_trace,
)
from .experiments import (
    ALPHA_COEFF,
    SweepSpec,
    alpha_bracket,
    generate_cubic_state,
    noise_sweep,
    optimize_alpha,
    run_sweep,
)
from .fock import PureState, lambda_from_db, wigner
from .states import parse_state

SCHEMA_VERSION = 1

# subcommands that run on a GateConfig, built from the gate options
_GATE_COMMANDS = ("gate", "sweep-lambda", "optimize-alpha", "sweep-noise", "state-gen", "trotter")


def _gate_commands_but(name: str) -> tuple:
    return tuple(c for c in _GATE_COMMANDS if c != name)


def _integer(low: int) -> tuple:
    return int, lambda v: v >= low, f"an integer >= {low}"


# value rules, (parse, test, description): a flag's text and a config file's
# text both reach the run as parse(text), and the value must pass test. Lists
# (values, bracket, lambda_db_values) stay text that `_floats` parses where
# they are read, and a choice is checked by the code that acts on it.
_TEXT = (str, lambda v: True, "text")
_NUMBER = (float, math.isfinite, "a finite number")
_POSITIVE = (float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_SWITCH = ({"true": True, "false": False}.get, lambda v: v is not None, "true or false")
_RATIO = (lambda v: None if v in ("", "none") else float(v),
          lambda v: v is None or (math.isfinite(v) and v > 0), "none or finite and > 0")

# config key -> (value rule, subcommands that read it; None: every subcommand).
# A subcommand takes the flag --key-name, except for the config-file-only keys
# `_FILE_ONLY`; neither a flag nor a config file may set a key the subcommand
# does not read. `--config`, `--dry-run` and the `reproduce` recipe select how
# the program runs and are declared apart.
_OPTIONS = {
    "out": (_TEXT, None),
    "input": (_TEXT, ("state", "gate", "sweep-lambda", "optimize-alpha", "sweep-noise", "trotter")),
    "values": (_TEXT, ("sweep-lambda", "sweep-noise", "trotter")),
    "workers": (_integer(1), ("sweep-lambda", "sweep-noise", "reproduce")),
    "fock": (_integer(2), ("state", *_GATE_COMMANDS)),
    # trotter, sweep-lambda and optimize-alpha set these values themselves
    "trotter": (_integer(0), _gate_commands_but("trotter")),
    "lambda_db": (_NUMBER, ("heff-expand", *_gate_commands_but("sweep-lambda"))),
    "alpha": (_NUMBER, ("heff-expand", *_gate_commands_but("optimize-alpha"))),
    **dict.fromkeys(["gamma", "dtheta", "ddelta_rel", "dbetax_rel"], (_NUMBER, _GATE_COMMANDS)),
    "chi_over_kappa": (_RATIO, _GATE_COMMANDS),
    "delta": (_NUMBER, ("heff-expand", "state-gen")),
    "beta": (_NUMBER, ("heff-expand",)),
    "wigner": (_SWITCH, ("state", "gate")),
    "alpha_mode": (_TEXT, ("sweep-lambda", "sweep-noise")),
    "alpha_coeff": (_NUMBER, ("sweep-lambda", "sweep-noise")),
    "bracket": (_TEXT, ("optimize-alpha",)),
    "noise": (_TEXT, ("sweep-noise",)),
    "lambda_db_values": (_TEXT, ("sweep-noise",)),
    "builtin_table": (_SWITCH, ("soliton-fom",)),
    "materials": (_TEXT, ("soliton-fom",)),
    "wigner_span": (_POSITIVE, ("state", "gate", "state-gen")),
    "wigner_points": (_integer(1), ("state", "gate", "state-gen")),
}

_FILE_ONLY = ("wigner_span", "wigner_points")

# the noise flags, as sweep-noise --noise names its channel, -> NoiseParams field
_NOISE_FIELDS = {"dtheta": "dtheta", "ddelta-rel": "ddelta_rel", "dbetax-rel": "dbeta_x_rel"}


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


def _parse_value(key: str, text: str, where: str = "", rule: tuple | None = None):
    """The value of `key` given as `text`, by `rule` (default: the option's own).

    A bad value is a ConfigError led by `where`.
    """
    parse, test, rule = rule or _OPTIONS[key][0]
    try:
        value = parse(text)
        ok = test(value)
    except ValueError:
        ok = False
    if not ok:
        raise ConfigError(f"{where}{key} must be {rule}, got {text!r}")
    return value


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
                cfg[key] = flag if key == "recipe" else _parse_value(key, flag)
        if "out" not in cfg:
            cfg["out"] = os.environ.get("KERRCUBIC_OUT", ".")
        cfg.dry_run = bool(getattr(args, "dry_run", False))
        return cfg

    @property
    def wigner_axis(self) -> np.ndarray:
        span = self.get("wigner_span", 6.0)
        return np.linspace(-span, span, self.get("wigner_points", 121))


def _fmt(x) -> str:
    # floats first: they fill the tables (no bool or integer type is a float)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    """A cell holding a comma or quote is quoted; every other cell is written as is."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(c) for c in row] for row in rows)


def write_wigner_csv(path: Path, xs, ps, w) -> None:
    """The bytes `write_csv` writes for the rows (x, p, w[i, j]), x-major.

    Each axis value is formatted once by `_fmt`, and each W value with its
    float rule, so a grid's file costs one format per cell instead of three.
    """
    px = [_fmt(p) for p in ps]
    lines = [f"{fx},{fp},{v:.17g}\n" for fx, row in zip(map(_fmt, xs), np.asarray(w).tolist())
             for fp, v in zip(px, row)]
    with open(path, "w", newline="") as f:
        f.write("x,p,w\n")
        f.writelines(lines)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV file, blank lines skipped; an empty file has header []."""
    with open(path, newline="") as f:
        rows = [row for row in csv.reader(f) if row]
    return (rows[0] if rows else []), rows[1:]


def emit(path: Path, payload) -> None:
    """Write a JSON document, keys sorted."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(path: Path, command: str, resolved: dict) -> None:
    emit(path, {"schema_version": SCHEMA_VERSION, "command": command,
                "resolved_config": resolved})


def _row_table(rows, header: list[str]) -> tuple[list[str], list[tuple]]:
    """The `header` keys of each sweep-row dict, as a CSV table."""
    return header, [tuple(r[h] for h in header) for r in rows]


# ---------------------------------------------------------------------------
# configuration collection
# ---------------------------------------------------------------------------


def parse_config_file(path: str, command: str) -> dict:
    """Plain-text `key = value` lines; '#' comments; unknown keys, keys the
    subcommand `command` does not read, and keys set twice rejected.

    Each value is parsed by its key's rule, as a flag's is.
    """
    out: dict = {}
    lines: dict = {}  # key -> the line that set it
    for ln_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{ln_no}: unknown key {key!r}")
        if command not in (_OPTIONS[key][1] or _COMMANDS):
            raise ConfigError(f"{path}:{ln_no}: {command} does not read key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{ln_no}: key {key!r} is set again; "
                              f"line {lines[key]} set it first")
        lines[key] = ln_no
        out[key] = _parse_value(key, value, f"{path}:{ln_no}: ")
    return out


def _floats(cfg: dict, key: str, default: tuple) -> tuple[float, ...]:
    """The comma-separated finite numbers (one at least) of list option `key`, or `default`."""
    if key not in cfg:
        return default
    try:
        values = tuple(float(tok) for tok in cfg[key].split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must be a non-empty list of comma-separated finite numbers, "
                          f"got {cfg[key]!r}")
    return values


def _gate_config(cfg: dict) -> GateConfig:
    noise = {field: cfg.get(flag.replace("-", "_"), 0.0) for flag, field in _NOISE_FIELDS.items()}
    return GateConfig.make(
        lam_db=cfg.get("lambda_db", 10.0), alpha=cfg.get("alpha", 50.0),
        gamma=cfg.get("gamma", 0.1), chi_over_kappa=cfg.get("chi_over_kappa"),
        n_fock=cfg.get("fock", 128),
        trotter_steps=cfg.get("trotter", 0), noise=NoiseParams(**noise),
    )


def _fields(gc: GateConfig) -> dict:
    """A GateConfig as sidecar data: its fields and lam_db."""
    return {**asdict(gc), "lam_db": gc.lam_db}


def _gate_input(cfg: dict, gc: GateConfig) -> PureState:
    """The input state of a gate run: option `input`, by default `SweepSpec`'s."""
    return parse_state(cfg.get("input", SweepSpec.input_state), gc.n_fock, gc.gamma)


# ---------------------------------------------------------------------------
# subcommands: each computes its artifacts and returns either its table's
# (header, rows), which `dispatch` writes to `<stem>.csv`, or its files as
# {file name: (writer, *data)} in write order; `dispatch` adds the sidecar
# and calls writer(out / name, *data)
# ---------------------------------------------------------------------------


def _cmd_heff_expand(cfg: RunConfig, gc: None) -> tuple[list, list]:
    """The frame Hamiltonian's quadrature coefficients, in units of chi."""
    lam = lambda_from_db(cfg.get("lambda_db", 10.0))
    alpha = cfg.get("alpha", 50.0)
    dc, bc = algebra.cubic_counterterms(_CHI)
    h = algebra.frame_hamiltonian(_CHI, lam, cfg.get("delta", dc), cfg.get("beta", bc))
    quad = algebra.to_quadrature_form(h)
    rows = []
    for (j, k) in sorted(quad.terms, key=lambda t: (t[0] + t[1], t)):
        c = quad.quad_coefficient(j, k, alpha)
        rows.append((f"x^{j} p^{k}", c.real, c.imag))
    return ["monomial", "coefficient-real", "coefficient-imag"], rows


def _cmd_state(cfg: RunConfig, gc: None) -> dict:
    psi = parse_state(cfg.get("input", "vacuum"), cfg.get("fock", 128), 0.0)
    if cfg.get("wigner"):
        xs = cfg.wigner_axis
        return {"state_wigner.csv": (write_wigner_csv, xs, xs, wigner(psi, xs, xs))}
    return {"state_amplitudes.csv": (write_csv, ["n", "re", "im"],
                                     [(k, a.real, a.imag) for k, a in enumerate(psi.vector)])}


def _cmd_gate(cfg: RunConfig, gc: GateConfig) -> dict:
    res = cubic_gate(gc, _gate_input(cfg, gc))
    files = {"gate_result.json": (emit, {
        "error": res.error, "fidelity": 1.0 - res.error,
        "tau": res.diagnostics.get("tau"),
        "steps": res.diagnostics.get("steps"),
        "trace_drift": res.diagnostics.get("trace_drift"),
    })}
    if cfg.get("wigner"):
        xs = cfg.wigner_axis
        files["gate_wigner.csv"] = (write_wigner_csv, xs, xs, wigner(res.state, xs, xs))
    return files


_SWEEP_HEADER = ["value", "lam_db", "lam", "alpha", "error", "tau", "ok", "message"]
_NOISE_HEADER = ["param", "lam_db", "lam", "alpha", "value", "error_int",
                 "error_plus", "error_minus", "excess", "ok", "message"]
_FOM_HEADER = ["name", "gamma_nl", "alpha_att_dB_per_m", "wavelength_m",
               "t_fwhm_s", "chi_over_kappa"]


def _sweep_spec(cfg: dict, gc: GateConfig, param: str, values: tuple,
                alpha_mode: str) -> SweepSpec:
    """The sweep the sweep subcommands read from `cfg`, with their own defaults."""
    return SweepSpec(base=gc, param=param, values=_floats(cfg, "values", values),
                     input_state=cfg.get("input", SweepSpec.input_state),
                     alpha_mode=cfg.get("alpha_mode", alpha_mode),
                     alpha_coeff=cfg.get("alpha_coeff", ALPHA_COEFF),
                     workers=cfg.get("workers", 1))


def _cmd_sweep_lambda(cfg: RunConfig, gc: GateConfig) -> tuple[list, list]:
    spec = _sweep_spec(cfg, gc, "lam_db", (5.0, 7.5, 10.0, 12.5, 15.0), "optimize")
    return _row_table(run_sweep(spec), _SWEEP_HEADER)


def _cmd_optimize_alpha(cfg: RunConfig, gc: GateConfig) -> dict:
    bracket = _floats(cfg, "bracket", alpha_bracket(gc.lam))
    if len(bracket) != 2:
        raise ConfigError("bracket must be 'lo,hi'")
    opt = optimize_alpha(gc, bracket, _gate_input(cfg, gc))
    return {"optimize_alpha.json": (emit, {"alpha": opt.alpha, "error": opt.error,
                                           "evaluations": opt.evaluations, "kind": opt.kind,
                                           "unimodal": opt.unimodal})}


def _noise_table(cfg: dict, gc: GateConfig) -> tuple[list, list]:
    """The sweep-noise table of the options `cfg`, whose gate is `gc`: sweep-noise's
    handler, and the noise recipes' table."""
    noise = cfg.get("noise", "dtheta")
    if noise not in _NOISE_FIELDS:
        raise ConfigError(f"noise must be one of {', '.join(_NOISE_FIELDS)}, got {noise!r}")
    if getattr(gc.noise, _NOISE_FIELDS[noise]):
        raise ConfigError(f"sweep-noise --noise {noise} sets {noise} to +-value; "
                          f"drop the base offset --{noise}")
    spec = _sweep_spec(cfg, gc, _NOISE_FIELDS[noise], (1e-4,), "cube")
    rows = noise_sweep(spec, _floats(cfg, "lambda_db_values", (cfg.get("lambda_db", 10.0),)))
    return _row_table(rows, _NOISE_HEADER)


def _cmd_state_gen(cfg: RunConfig, gc: GateConfig) -> dict:
    xs = cfg.wigner_axis
    res = generate_cubic_state(gc, delta=cfg.get("delta", 0.5), grid=(xs, xs))
    return _state_gen_files(res, "state_gen", correction=[float(c) for c in res.correction])


def _trotter_errors(gc: GateConfig, psi, steps) -> tuple[list[float], float]:
    """Trotterized gate errors for each step count, and the continuous gate's error.

    The Trotter configurations come first: `GateConfig` refuses a lossy one
    before the continuous gate integrates the master equation.
    """
    errors = [cubic_gate(replace(gc, trotter_steps=n_t), psi).error for n_t in steps]
    return errors, cubic_gate(replace(gc, trotter_steps=0), psi).error


def _cmd_trotter(cfg: RunConfig, gc: GateConfig) -> tuple[list, list]:
    values = _floats(cfg, "values", (1.0, 2.0, 4.0, 8.0, 16.0))
    if not all(v.is_integer() and v >= 1 for v in values):
        raise ConfigError(f"trotter step counts must be whole numbers >= 1, got {values}")
    steps = [int(v) for v in values]
    errors, cont = _trotter_errors(gc, _gate_input(cfg, gc), steps)
    return (["steps", "error", "abs_diff_vs_continuous"],
            [(n_t, err, abs(err - cont)) for n_t, err in zip(steps, errors)])


def _cmd_soliton_fom(cfg: RunConfig, gc: None) -> tuple[list, list]:
    if cfg.get("builtin_table") and cfg.get("materials"):
        raise ConfigError("soliton-fom takes --builtin-table or --materials, not both")
    if cfg.get("builtin_table"):
        mats = soliton.BUILTIN_MATERIALS
    elif cfg.get("materials"):
        src = cfg["materials"]
        header, rows = read_csv(Path(src))
        want = _FOM_HEADER[:-1]
        if header != want or not rows or any(len(r) != len(want) for r in rows):
            raise ConfigError(f"{src}: materials CSV must have columns {want} and one data "
                              f"row at least, each of {len(want)} cells, got {header} and "
                              f"rows of {[len(r) for r in rows]} cells")
        mats = []
        for i, r in enumerate(rows, start=1):
            # the numeric cells, in MaterialParams field order after the name
            values = [_parse_value(col, cell, f"{src}: data row {i}: ", _POSITIVE)
                      for col, cell in zip(want[1:], r[1:])]
            mats.append(soliton.MaterialParams(r[0], *values))
    else:
        raise ConfigError("soliton-fom needs --builtin-table or --materials CSV")
    return _FOM_HEADER, _fom_rows(mats)


# ---------------------------------------------------------------------------
# reproduce recipes
# ---------------------------------------------------------------------------


def _noise_recipe(channel: str, values: str) -> dict:
    return {"kind": "noise", "options": {"noise": channel, "values": values,
                                         "lambda_db_values": "10,12.5,15,17.5"}}


# recipe name -> the recipe as data: its table `kind`, the `options` (`_OPTIONS`
# keys and values) that each of its runs sets, and its grids, each named after
# the option that it varies; `grids` maps one option's value to another's values
_RECIPES = {
    "fig2": {"kind": "lambda-sweeps", "options": {"fock": 256, "alpha_mode": "optimize"},
             "input": [f"gkp:{lbl}:{d}" for lbl in ("z+", "z-", "x+", "x-", "y+", "y-")
                       for d in (0.3, 0.4, 0.5)],
             "lambda_db": (5.0, 7.5, 10.0, 12.5, 15.0)},
    "fig3a": {"kind": "alpha-grids", "options": {},
              "chi_over_kappa": (1e-3, 1e-4, 1e-5),
              "lambda_db": (10.0, 12.5, 15.0, 17.5, 20.0),
              "alpha_factors": tuple(float(f) for f in np.geomspace(0.6, 30.0, 10))},
    # chi_over_kappa -> lambda_db
    "fig3b": {"kind": "lossy-sweeps", "options": {"alpha_mode": "optimize"},
              "grids": {1e-3: (12.5, 15.0, 17.5, 20.0),
                        1e-4: (15.0, 17.5, 20.0, 22.5),
                        1e-5: (17.5, 20.0, 22.5, 25.0)}},
    "fig3c": _noise_recipe("dtheta", "1e-5,3e-5,1e-4,3e-4"),
    "fig4": {"kind": "state-gen",
             "options": {"lambda_db": 15.0, "alpha": 1.4e4, "chi_over_kappa": 1e-4}},
    # lambda_db -> alpha: the grids keep the discrete-drive kick representable
    "fig5": {"kind": "trotter-curves", "options": {"fock": 448},
             "grids": {5.0: (5.0, 8.0, 12.0, 16.0), 10.0: (12.0, 16.0, 20.0, 25.0)},
             "trotter": (1, 2, 4)},
    "fig6a": _noise_recipe("ddelta-rel", "1e-6,3e-6,1e-5"),
    "fig6b": _noise_recipe("dbetax-rel", "1e-6,3e-6,1e-5"),
    "fig7b": {"kind": "photon-trace", "options": {}, "lambda_db": (5.0, 10.0, 15.0),
              "samples": 41},
    "table1": {"kind": "table1", "options": {}},
}

RECIPES = tuple(_RECIPES)


def _state_gen_files(res, stem: str, **extra) -> dict:
    """The state-generation result document (plus `extra` keys) and its Wigner grid."""
    return {f"{stem}.json": (emit, {"fidelity": res.fidelity, "raw_fidelity": res.raw_fidelity,
                                    "nlq_variance": res.nlq_variance,
                                    "wigner_min": float(res.wigner.min()), **extra}),
            f"{stem}_wigner.csv": (write_wigner_csv, res.xs, res.ps, res.wigner)}


def _fom_rows(mats) -> list[tuple]:
    return [(m.name, m.gamma_nl, m.alpha_att, m.wavelength, m.t_fwhm,
             soliton.figure_of_merit(m)) for m in mats]


# Each recipe table takes `cfg`, the recipe's options over the run's
# configuration, and the recipe spec for its grids.


def _table1(cfg: dict, spec: dict) -> tuple[list, list]:
    return ([_FOM_HEADER[0], _FOM_HEADER[-1]],
            [(r[0], r[-1]) for r in _fom_rows(soliton.BUILTIN_MATERIALS)])


_SWEEP_CELLS = ("value", "lam", "alpha", "error", "ok", "message")


def _sweep_table(cfg: dict, param: str, jobs, header: list[str], cells=_SWEEP_CELLS,
                 **fields) -> tuple[list, list]:
    """Run each (leading cells, options, values) job as a `param` sweep of `values`
    with the job's options over `cfg` and the SweepSpec `fields`; a row is its
    leading cells + `cells`."""
    rows = []
    for lead, options, values in jobs:
        run = {**cfg, **options}
        sweep = replace(_sweep_spec(run, _gate_config(run), param, values, "fixed"), **fields)
        rows += [lead + tuple(r[c] for c in cells) for r in run_sweep(sweep)]
    return header, rows


def _lambda_sweeps(cfg: dict, spec: dict) -> tuple[list, list]:
    jobs = [((state,), {"input": state}, spec["lambda_db"]) for state in spec["input"]]
    return _sweep_table(cfg, "lam_db", jobs,
                        ["state", "lam_db", "lam", "alpha", "error", "ok", "message"])


def _lossy_sweeps(cfg: dict, spec: dict) -> tuple[list, list]:
    jobs = [((cok,), {"chi_over_kappa": cok}, lam_dbs) for cok, lam_dbs in spec["grids"].items()]
    return _sweep_table(cfg, "lam_db", jobs,
                        ["chi_over_kappa", "lam_db", "lam", "alpha", "error", "ok", "message"],
                        bracket_scale=(0.8, 12.0))


def _alpha_grids(cfg: dict, spec: dict) -> tuple[list, list]:
    jobs = [((cok, db), {"chi_over_kappa": cok, "lambda_db": db},
             tuple(f * ALPHA_COEFF * lambda_from_db(db)**3 for f in spec["alpha_factors"]))
            for cok in spec["chi_over_kappa"] for db in spec["lambda_db"]]
    return _sweep_table(cfg, "alpha", jobs,
                        ["chi_over_kappa", "lam_db", "alpha", "error", "ok", "message"],
                        ("value", "error", "ok", "message"))


def _trotter_curves(cfg: dict, spec: dict) -> tuple[list, list]:
    rows = []
    for db, alphas in spec["grids"].items():
        for alpha in alphas:
            gc = _gate_config({**cfg, "lambda_db": db, "alpha": alpha})
            errors, e_cont = _trotter_errors(gc, _gate_input(cfg, gc), spec["trotter"])
            rows += [(db, alpha, n_t, err, e_cont) for n_t, err in zip(spec["trotter"], errors)]
    return ["lam_db", "alpha", "trotter_steps", "error", "error_continuous"], rows


def _photon_trace(cfg: dict, spec: dict) -> tuple[list, list]:
    rows = []
    for db in spec["lambda_db"]:
        gc = _gate_config({**cfg, "lambda_db": db})
        psi = _gate_input(cfg, gc)
        opt = optimize_alpha(gc, alpha_bracket(gc.lam), psi)
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
    "noise": lambda cfg, spec: _noise_table(cfg, _gate_config(cfg)),
    "trotter-curves": _trotter_curves,
    "photon-trace": _photon_trace,
}


def _cmd_reproduce(cfg: RunConfig, gc: None) -> dict:
    """The recipe's files and its own sidecar, named after it; `--dry-run`: the sidecar alone."""
    name = cfg["recipe"]
    spec = _RECIPES[name]
    files = {}
    if not cfg.dry_run:
        # the recipe's options over the run's configuration, which sets only out and workers
        run = {**cfg, **spec["options"]}
        if spec["kind"] == "state-gen":
            files = _state_gen_files(generate_cubic_state(_gate_config(run)), name)
        else:
            files = {f"{name}.csv": (write_csv, *_RECIPE_TABLES[spec["kind"]](run, spec))}
    files[f"{name}.config.json"] = (write_sidecar, f"reproduce {name}",
                                    {**cfg, "recipe_spec": spec})
    return files


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# subcommand -> (handler, sidecar stem); reproduce returns its own sidecar,
# named after the recipe
_COMMANDS = {
    "heff-expand": (_cmd_heff_expand, "heff_expand"),
    "state": (_cmd_state, "state"),
    "gate": (_cmd_gate, "gate_result"),
    "sweep-lambda": (_cmd_sweep_lambda, "sweep_lambda"),
    "optimize-alpha": (_cmd_optimize_alpha, "optimize_alpha"),
    "sweep-noise": (_noise_table, "sweep_noise"),
    "state-gen": (_cmd_state_gen, "state_gen"),
    "trotter": (_cmd_trotter, "trotter"),
    "soliton-fom": (_cmd_soliton_fom, "soliton_fom"),
    "reproduce": (_cmd_reproduce, None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kerrcubic",
                                 description="Kerr-based cubic phase gate toolkit")
    sub = ap.add_subparsers(dest="command")
    # no prefix matching: a removed flag such as --chi must not become --chi-over-kappa
    cmd = {name: sub.add_parser(name, allow_abbrev=False) for name in _COMMANDS}
    for p in cmd.values():
        p.add_argument("--config", default=None)
    for key, (rule, names) in _OPTIONS.items():
        if key in _FILE_ONLY:
            continue
        # a switch flag gives the text a config file writes
        kwargs = {"action": "store_const", "const": "true"} if rule is _SWITCH else {}
        for name in names or _COMMANDS:
            cmd[name].add_argument("--" + key.replace("_", "-"), **kwargs)
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
            files = handler(cfg, gc)
            if isinstance(files, tuple):
                files = {f"{stem}.csv": (write_csv, *files)}
            if stem is not None:
                files[f"{stem}.config.json"] = (
                    write_sidecar, args.command,
                    dict(cfg) if gc is None else {**cfg, "gate_config": _fields(gc)})
            # the run has succeeded: only now does --out appear
            out = Path(cfg["out"])
            out.mkdir(parents=True, exist_ok=True)
            for name, (writer, *data) in files.items():
                writer(out / name, *data)
                print(out / name)
    except (*_NUMERICAL_FAILURES, ValueError) as exc:  # ConfigError is a ValueError
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 3 if isinstance(exc, _NUMERICAL_FAILURES) else 2
    return 0


def main(argv=None) -> int:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

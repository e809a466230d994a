"""Golden outputs of the `reproduce` recipes.

Every recipe's parameter set is pinned through its `--dry-run` sidecar. The
eight long-running recipes then run on shrunk parameter sets (few states and
values, N = 32-64, fixed master-equation steps in lossy bases) substituted for
`cli._recipe_spec`, and their tables are compared with the files in
tests/golden/recipes/: header and text cells exactly, numbers to 1e-12
relative.

To re-record the goldens after an intended output change, run
`PYTHONPATH=src python tests/test_recipes.py --record`.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kerrcubic import cli
from kerrcubic.dynamics import GateConfig

GOLDEN = Path(__file__).parent / "golden" / "recipes"

_LOSSLESS = GateConfig.make(lam_db=10.0, alpha=50.0, gamma=0.1, n_fock=48)
_LOSSY = GateConfig.make(lam_db=10.0, alpha=50.0, gamma=0.1, n_fock=32, lindblad_steps=16)


def _noise(channel, values):
    return {"kind": "noise", "channel": channel, "values": values,
            "lam_db": (8.0, 10.0), "base": _LOSSLESS, "workers": 1}


SHRUNK = {
    "fig2": {"kind": "lambda-sweeps", "states": ["gkp:z+:0.5", "gkp:x-:0.4"],
             "values": (5.0, 7.5), "base": replace(_LOSSLESS, n_fock=64),
             "alpha_mode": "optimize", "workers": 1},
    "fig3a": {"kind": "alpha-grids", "chi_over_kappa": (1e-1, 1e-2), "lam_db": (6.0,),
              "alpha_factors": (0.8, 2.5), "base": _LOSSY, "workers": 1},
    "fig3b": {"kind": "lossy-sweeps", "grids": {1e-1: (6.0,), 1e-2: (8.0,)},
              "base": _LOSSY, "workers": 1},
    "fig3c": _noise("dtheta", (1e-4, 1e-3)),
    "fig5": {"kind": "trotter-curves", "grids": {5.0: (5.0, 8.0)}, "trotter": (1, 2),
             "n_fock": 64, "workers": 1},
    "fig6a": _noise("ddelta_rel", (1e-5,)),
    "fig6b": _noise("dbeta_x_rel", (1e-5,)),
    "fig7b": {"kind": "photon-trace", "lam_db": (5.0,), "samples": 5,
              "base": _LOSSLESS, "workers": 1},
}


def _run_shrunk(name, out):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_recipe_spec", lambda recipe, workers: SHRUNK[recipe])
        return cli.dispatch(["reproduce", name, "--out", str(out)])


def _dry_run_spec(name, out):
    assert cli.dispatch(["reproduce", name, "--dry-run", "--out", str(out)]) == 0
    return json.loads((out / f"{name}.config.json").read_text())["resolved_config"][
        "recipe_spec"]


def _cells_match(got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("recipe", cli.RECIPES)
def test_dry_run_recipe_spec(tmp_path, recipe):
    want = json.loads((GOLDEN / "dry_run_specs.json").read_text())[recipe]
    assert _dry_run_spec(recipe, tmp_path) == want


@pytest.mark.parametrize("recipe", sorted(SHRUNK))
def test_shrunk_recipe_matches_golden(tmp_path, recipe):
    assert _run_shrunk(recipe, tmp_path) == 0
    header, rows = cli.read_csv(tmp_path / f"{recipe}.csv")
    want_header, want_rows = cli.read_csv(GOLDEN / f"{recipe}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert len(row) == len(want)
        assert all(_cells_match(g, w) for g, w in zip(row, want)), (row, want)


def _record(scratch: Path) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    specs = {name: _dry_run_spec(name, scratch) for name in cli.RECIPES}
    (GOLDEN / "dry_run_specs.json").write_text(
        json.dumps(specs, indent=2, sort_keys=True) + "\n")
    for name in sorted(SHRUNK):
        assert _run_shrunk(name, scratch) == 0, name
        (GOLDEN / f"{name}.csv").write_bytes((scratch / f"{name}.csv").read_bytes())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_recipes.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))

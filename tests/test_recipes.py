"""Golden outputs of the `reproduce` recipes.

Every recipe's parameter set is pinned through its `--dry-run` sidecar. The
eight long-running recipes then run on shrunk parameter sets (few states and
values, N = 32-64) substituted for `cli._recipe_spec`, and their tables are
compared with the files in tests/golden/recipes/: header and text cells
exactly, numbers to 1e-12 relative.

To re-record the goldens after an intended output change, run
`PYTHONPATH=src python tests/test_recipes.py --record`. It prints every cell
that moved beyond that tolerance (golden -> new) and rewrites only the files
that moved.
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
_LOSSY = GateConfig.make(lam_db=10.0, alpha=50.0, gamma=0.1, n_fock=32)


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
             "n_fock": 64},
    "fig6a": _noise("ddelta_rel", (1e-5,)),
    "fig6b": _noise("dbeta_x_rel", (1e-5,)),
    "fig7b": {"kind": "photon-trace", "lam_db": (5.0,), "samples": 5, "base": _LOSSLESS},
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


def _moved_cells(name: str, table: Path) -> list[str]:
    """Each cell of `table` that the golden of `name` does not match, as 'old -> new'."""
    header, rows = cli.read_csv(table)
    want_header, want_rows = cli.read_csv(GOLDEN / f"{name}.csv")
    if header != want_header or [len(r) for r in rows] != [len(r) for r in want_rows]:
        return [f"{name}: table shape {want_header} x {len(want_rows)} -> {header} x {len(rows)}"]
    return [f"{name} row {i} {col}: {w} -> {g}"
            for i, (row, want) in enumerate(zip(rows, want_rows))
            for col, g, w in zip(header, row, want) if not _cells_match(g, w)]


@pytest.mark.parametrize("recipe", cli.RECIPES)
def test_dry_run_recipe_spec(tmp_path, recipe):
    want = json.loads((GOLDEN / "dry_run_specs.json").read_text())[recipe]
    assert _dry_run_spec(recipe, tmp_path) == want


@pytest.mark.parametrize("recipe", sorted(SHRUNK))
def test_shrunk_recipe_matches_golden(tmp_path, recipe):
    assert _run_shrunk(recipe, tmp_path) == 0
    assert _moved_cells(recipe, tmp_path / f"{recipe}.csv") == []


def _record(scratch: Path) -> None:
    """Rewrite each golden whose new output moved beyond `_cells_match`, printing the moves."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    specs = {name: _dry_run_spec(name, scratch) for name in cli.RECIPES}
    spec_file = GOLDEN / "dry_run_specs.json"
    old_specs = json.loads(spec_file.read_text()) if spec_file.exists() else {}
    if specs != old_specs:
        print("dry_run_specs.json:", sorted(n for n in specs if specs[n] != old_specs.get(n)))
        spec_file.write_text(json.dumps(specs, indent=2, sort_keys=True) + "\n")
    for name in sorted(SHRUNK):
        assert _run_shrunk(name, scratch) == 0, name
        table, golden = scratch / f"{name}.csv", GOLDEN / f"{name}.csv"
        moved = _moved_cells(name, table) if golden.exists() else [f"{name}: new golden"]
        for line in moved:
            print(line)
        if moved:
            golden.write_bytes(table.read_bytes())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_recipes.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))

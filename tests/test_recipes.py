"""Golden outputs of the `reproduce` recipes.

Every recipe's parameter set is pinned through its `--dry-run` sidecar. The
eight long-running recipes then run on shrunk parameter sets (few states and
values, N = 32-64) substituted for `cli._RECIPES`, and their tables are
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
from pathlib import Path

import pytest

from kerrcubic import cli

GOLDEN = Path(__file__).parent / "golden" / "recipes"


def _noise(channel, values):
    return {"kind": "noise", "options": {"noise": channel, "values": values,
                                         "lambda_db_values": "8,10", "fock": 48}}


SHRUNK = {
    "fig2": {"kind": "lambda-sweeps", "options": {"fock": 64, "alpha_mode": "optimize"},
             "input": ["gkp:z+:0.5", "gkp:x-:0.4"], "lambda_db": (5.0, 7.5)},
    "fig3a": {"kind": "alpha-grids", "options": {"fock": 32}, "chi_over_kappa": (1e-1, 1e-2),
              "lambda_db": (6.0,), "alpha_factors": (0.8, 2.5)},
    "fig3b": {"kind": "lossy-sweeps", "options": {"fock": 32, "alpha_mode": "optimize"},
              "grids": {1e-1: (6.0,), 1e-2: (8.0,)}},
    "fig3c": _noise("dtheta", "1e-4,1e-3"),
    "fig5": {"kind": "trotter-curves", "options": {"fock": 64}, "grids": {5.0: (5.0, 8.0)},
             "trotter": (1, 2)},
    "fig6a": _noise("ddelta-rel", "1e-5"),
    "fig6b": _noise("dbetax-rel", "1e-5"),
    "fig7b": {"kind": "photon-trace", "options": {"fock": 48}, "lambda_db": (5.0,), "samples": 5},
}


def _run_shrunk(name, out):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_RECIPES", SHRUNK)
        return cli.dispatch(["reproduce", name, "--out", str(out)])


def _dry_run_spec(name, out, *flags):
    assert cli.dispatch(["reproduce", name, "--dry-run", *flags, "--out", str(out)]) == 0
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


@pytest.mark.parametrize("recipe", cli.RECIPES)
def test_recipe_spec_ignores_workers(tmp_path, recipe):
    # workers reach the sweeps from the run's configuration, not from the recipe
    assert (_dry_run_spec(recipe, tmp_path / "1", "--workers", "1")
            == _dry_run_spec(recipe, tmp_path / "2", "--workers", "2"))


@pytest.mark.parametrize("flags, workers", [((), 1), (("--workers", "2"), 2)])
def test_workers_reach_the_recipe_sweeps(tmp_path, monkeypatch, flags, workers):
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: seen.append(spec.workers) or [])
    monkeypatch.setattr(cli, "noise_sweep", lambda spec, lam_dbs: seen.append(spec.workers) or [])
    monkeypatch.setattr(cli, "_RECIPES", SHRUNK)
    for name in ("fig2", "fig3a", "fig3b", "fig3c"):
        assert cli.dispatch(["reproduce", name, *flags, "--out", str(tmp_path)]) == 0
    assert seen == [workers] * 7  # two sweeps each of fig2, fig3a and fig3b, one of fig3c


@pytest.mark.parametrize("recipe", cli.RECIPES)
def test_recipe_options_are_option_values(recipe):
    for spec in (cli._RECIPES[recipe], SHRUNK.get(recipe, {"options": {}})):
        for key, value in spec["options"].items():
            assert key in cli._OPTIONS, key
            assert cli._parse_value(key, cli._fmt(value)) == value, key


@pytest.mark.parametrize("recipe", ["fig3c", "fig6a", "fig6b"])
def test_noise_recipe_is_its_sweep_noise_config(tmp_path, recipe):
    assert _run_shrunk(recipe, tmp_path) == 0
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k} = {cli._fmt(v)}\n"
                               for k, v in SHRUNK[recipe]["options"].items()))
    assert cli.dispatch(["sweep-noise", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep_noise.csv").read_bytes() == (tmp_path / f"{recipe}.csv").read_bytes()


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

"""The public surface is what a result uses.

Every name that `kerrcubic/__init__.py` imports must be referenced somewhere
in the package, the demos or the benchmark, outside its own definition and
outside `__init__.py`. A name that only tests reach belongs beside its tests.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "kerrcubic"

# exported names with no caller yet, each with the ROADMAP item that retires it
ALLOWED_UNREFERENCED = {
    "squeeze": "item 6: leaves with `displacement` once the benchmark reads an array",
    "interior_dim": "item 5: the Fock tail-weight diagnostic",
    "check_truncation_convergence": "item 5: the Fock tail-weight diagnostic",
}


def _exported_names():
    tree = ast.parse((_PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _sources():
    paths = [p for p in sorted(_PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "bench"):
        paths += sorted((_ROOT / folder).glob("*.py"))
    return paths


def _referenced_names():
    """Names read as a variable or an attribute, outside the def or class that defines them."""
    seen = set()
    for path in _sources():
        tree = ast.parse(path.read_text())
        definitions = [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if not any(d.name == name and d.lineno <= node.lineno <= d.end_lineno
                       for d in definitions):
                seen.add(name)
    return seen


def test_sources_are_found():
    names = {p.parent.name for p in _sources()}
    assert names == {"kerrcubic", "demos", "bench"}, names


def test_every_exported_name_has_a_caller():
    unreferenced = _exported_names() - _referenced_names()
    assert unreferenced == set(ALLOWED_UNREFERENCED), unreferenced

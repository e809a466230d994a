"""The public surface is what a result uses.

Every name that `kerrcubic/__init__.py` imports must be referenced somewhere
in the package, the demos or the benchmark, outside its own definition and
outside `__init__.py`. Every annotated field of an exported class must be
read as an attribute there, outside its own class body. A name or a field
that only tests reach belongs beside its tests, or goes.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "kerrcubic"

# exported names with no caller yet, each with the ROADMAP item that retires it
ALLOWED_UNREFERENCED = {
    "interior_dim": "item 5: the Fock tail-weight diagnostic",
    "check_truncation_convergence": "item 5: the Fock tail-weight diagnostic",
}

# exported fields that no result reads, each with the reason it stays
ALLOWED_UNREAD_FIELDS = {
    "PureState.normalize": "a constructor switch: it says how to build the state, "
                           "and `__post_init__` acts on it",
    "CubicStateResult.evolution": "item 5: state-gen reports the integrator's steps, "
                                  "trace drift and minimum eigenvalue from it",
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


def _exported_fields():
    """(class, field, class body) of every annotated field of an exported class."""
    exported = _exported_names()
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id, (path, node.lineno, node.end_lineno)


def _attribute_reads():
    """(path, line, name) of every attribute read in the package, the demos and the bench."""
    return [(path, node.lineno, node.attr) for path in _sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def test_exported_classes_have_fields():
    owners = {owner for owner, _, _ in _exported_fields()}
    assert {"GateConfig", "FitResult", "CubicGateParams", "MaterialParams"} <= owners, owners


def test_every_exported_field_is_read():
    reads = _attribute_reads()
    unread = {f"{owner}.{field}" for owner, field, (path, first, last) in _exported_fields()
              if not any(name == field and not (where == path and first <= line <= last)
                         for where, line, name in reads)}
    assert unread == set(ALLOWED_UNREAD_FIELDS), unread

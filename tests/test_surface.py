"""The public surface is what a result uses.

Every name that `kerrcubic/__init__.py` imports must be referenced somewhere
in the package, the demos or the benchmark, outside its own definition and
outside `__init__.py`. Every annotated field and every method (dunders aside)
of an exported class must be read as an attribute there, outside its own
class body. Every parameter with a default of an exported function must be
passed there, by keyword or by position, in a call outside its own
definition. A name, a field, a method or a parameter that only tests reach
belongs beside its tests, or goes. numpy is the one runtime dependency: no
module of the package imports scipy.
"""

import ast
from pathlib import Path

import pytest

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

# defaulted parameters of exported functions that no call passes, each with its reason
ALLOWED_UNPASSED_PARAMETERS = {
    "check_truncation_convergence.tol": "item 5: the Fock tail-weight diagnostic, "
                                        "like its function",
    "evolve_lindblad.n_steps": "the fixed-rung kernel the step ladder composes; "
                               "criterion 12 and the dense-reference tests pin it",
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


def test_package_imports_no_scipy():
    # function bodies included: an import deferred into a function counts too
    found = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sources_are_found():
    names = {p.parent.name for p in _sources()}
    assert names == {"kerrcubic", "demos", "bench"}, names


def test_every_exported_name_has_a_caller():
    unreferenced = _exported_names() - _referenced_names()
    assert unreferenced == set(ALLOWED_UNREFERENCED), unreferenced


def _exported_definitions(kind):
    """(path, node) of every top-level `kind` node of the package that is exported."""
    exported = _exported_names()
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, kind) and node.name in exported:
                yield path, node


def _exported_fields():
    """(class, field, class body) of every annotated field of an exported class."""
    for path, node in _exported_definitions(ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, (path, node.lineno, node.end_lineno)


def _exported_methods():
    """(class, method, class body) of every method of an exported class, dunders aside."""
    for path, node in _exported_definitions(ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                yield node.name, stmt.name, (path, node.lineno, node.end_lineno)


def _attribute_reads():
    """(path, line, name) of every attribute read in the package, the demos and the bench."""
    return [(path, node.lineno, node.attr) for path in _sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def test_exported_classes_have_fields():
    owners = {owner for owner, _, _ in _exported_fields()}
    assert {"GateConfig", "FitResult", "CubicGateParams", "MaterialParams"} <= owners, owners


def _unread(members):
    """The "class.member" of each member that no attribute read outside its class body names."""
    reads = _attribute_reads()
    return {f"{owner}.{member}" for owner, member, (path, first, last) in members
            if not any(name == member and not (where == path and first <= line <= last)
                       for where, line, name in reads)}


def test_every_exported_field_is_read():
    unread = _unread(_exported_fields())
    assert unread == set(ALLOWED_UNREAD_FIELDS), unread


def test_exported_classes_have_methods():
    owners = {owner for owner, _, _ in _exported_methods()}
    assert {"AlphaPoly", "GateConfig", "Spectrum", "QuadraturePolynomial"} <= owners, owners


def test_every_exported_method_is_read():
    unread = _unread(_exported_methods())
    assert unread == set(), unread


def _defaulted_parameters(fn):
    """(position, name) of each parameter of `fn` with a default; None for keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def _calls():
    """name -> [(path, call)] of every call in the sources, keyed by the name it calls."""
    calls = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append((path, node))
    return calls


def _passes(call, position, name):
    """Whether `call` gives the parameter `name` at `position` a value.

    Only what the call spells out counts: a keyword, or a position that its
    explicit arguments reach. A `*sequence` or `**mapping` may fill any number
    of parameters, so it fills none here.
    """
    if any(kw.arg == name for kw in call.keywords):
        return True
    explicit = sum(not isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and explicit > position


@pytest.mark.parametrize("source, position, passed", [
    ("f(a, b, c, d)", 3, True),
    ("f(a, n=1)", 3, True),
    ("f(a, b)", 3, False),
    ("f(*xs, t)", 3, False),  # the starred sequence may stop short of position 3
    ("f(a, **kw)", 3, False),
    ("f(a, **kw)", None, False),
    ("f(a, b, c, d)", None, False),
])
def test_passes_counts_only_explicit_arguments(source, position, passed):
    call = ast.parse(source, mode="eval").body
    assert _passes(call, position, "n") is passed


def test_exported_functions_have_defaults():
    names = {fn.name for _, fn in _exported_definitions(ast.FunctionDef)
             if _defaulted_parameters(fn)}
    assert {"driven_kerr", "evolve_lindblad", "generate_cubic_state"} <= names, names


def test_every_defaulted_parameter_is_passed():
    calls, unpassed = _calls(), set()
    for path, fn in _exported_definitions(ast.FunctionDef):
        outside = [call for where, call in calls.get(fn.name, ())
                   if not (where == path and fn.lineno <= call.lineno <= fn.end_lineno)]
        unpassed |= {f"{fn.name}.{name}" for position, name in _defaulted_parameters(fn)
                     if not any(_passes(call, position, name) for call in outside)}
    assert unpassed == set(ALLOWED_UNPASSED_PARAMETERS), unpassed

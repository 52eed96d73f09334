"""Public API guard.

Every name exported by the package must have a caller in the package
itself, outside its own definition, or a recorded reason to stay public.
Every module-level function, class and constant must be exported or read
somewhere in the package outside its own definition. No module may import
a name it never uses. The checks read the source with ast, so they need
nothing beyond the standard library.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "magflow"

# exported without a caller in the package, each with its reason to stay
ALLOWED_UNCALLED = {
    "cz_fiber": "criterion 7: index of the m = 0 fiber rotation",
    "antipodal_link_parity": "criterion 9: antipodal linking parity",
    "knot_from_samples": "criterion 9: knot built from a lifted orbit",
    "latitude_deviation": "criterion 10: latitude rotation deviation",
    "compare_level": "criterion 6: ODE-vs-quadrature cross-check",
    "make_sphere": "criteria 1, 7, 8 and 10: the closed-form oracle",
    "h_min": "the paper's certified floor m^2 + 1 - m m_gamma at one m",
    "rotation_matrix": "the covering map S^3 -> SO(3), the reference that "
                       "quat_from_rotation inverts",
    "orbit_closure": "closure of a single level, the reference for the "
                     "closures rational_closures solves for",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exports(init: ast.Module) -> list:
    return [alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _references(tree: ast.AST, skip: str | None = None) -> set:
    """Names read in tree, bare or as attributes, outside the definition
    of skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree: ast.Module) -> list:
    """Module-level functions, classes and constants defined in tree."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def _imported(tree: ast.Module) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append(alias.asname or alias.name.split(".")[0])
    return out


def _uncalled_exports() -> list:
    mods = _modules()
    init = mods.pop("__init__")
    return [name for name in _exports(init)
            if not any(name in _references(tree, skip=name)
                       for tree in mods.values())]


def test_every_export_has_a_package_caller():
    uncalled = [n for n in _uncalled_exports() if n not in ALLOWED_UNCALLED]
    assert not uncalled, f"exported but never called in the package: " \
                         f"{uncalled}"


def test_allow_list_is_current():
    # an entry that gained a caller, or lost its export, is stale
    assert set(ALLOWED_UNCALLED) <= set(_uncalled_exports())


def test_every_definition_is_exported_or_used():
    mods = _modules()
    exported = set(_exports(mods.pop("__init__")))
    dead = [f"{stem}.{name}" for stem, tree in mods.items()
            for name in _definitions(tree)
            if name not in exported
            and not any(name in _references(other, skip=name)
                        for other in mods.values())]
    assert not dead, f"neither exported nor used in the package: {dead}"


def test_no_unused_imports():
    unused = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        used = _references(tree)
        unused += [f"{stem}: {name}" for name in _imported(tree)
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_one_ode_path():
    # every ODE runs on numerics.dop853; scipy's solve_ivp is a test oracle
    users = [stem for stem, tree in _modules().items()
             if "solve_ivp" in _imported(tree)
             or "solve_ivp" in _references(tree)]
    assert not users, f"modules that use solve_ivp: {users}"

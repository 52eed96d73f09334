"""Public API guard.

Every name exported by the package must have a caller in the package
itself, outside its own definition, or a recorded reason to stay public.
Every module-level function, class and constant must be exported or read
somewhere in the package outside its own definition. A function's own
parameters are not uses: a parameter that shares a module-level name
reads the argument, not that name. Every public method and property of a
package class must be read as an attribute in the package outside its
own definition, and every defaulted parameter of a public module-level
function, method or constructor must be passed by some call in the
package or in perfbench/; a knob that no caller sets is a module
constant. Every dataclass field must be read as an attribute in the
package, where its own class's methods count since they need readers of
their own, or in perfbench/. No module may import a name it never uses,
and none but profiles.py may set an attribute on a parameter annotated
ProfileFunction. No function cached by lru_cache or functools.cache takes
a ProfileFunction: a global cache keyed by a profile keeps it alive, and
profile-derived state lives on the profile (ProfileFunction.derived). The
checks read the source with ast, so they need nothing
beyond the standard library. No module imports scipy, and a process in
which importing scipy raises runs every CLI command.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "magflow"

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
}

# public methods that nothing in the package reads, each with its reason
ALLOWED_UNREAD = {
    "cli._Parser.error": "argparse calls it on a usage error",
}

# dataclass fields that nothing in the package or perfbench reads, each
# with its reason
ALLOWED_UNREAD_FIELDS = {
    "reduced.TurningPoints.branch_minus": "the envelope t_minus lies on; "
                                          "tests check each end against "
                                          "its own envelope piece",
    "reduced.TurningPoints.branch_plus": "the envelope t_plus lies on, "
                                         "likewise",
    "cz.WindingInterval.u_lo": "the direction attaining lo; tests check the "
                               "interval's ends against brute-force windings",
    "cz.WindingInterval.u_hi": "the direction attaining hi, likewise",
    "cz.ConvexityReport.candidates": "the closed orbits T0 is the least "
                                     "period of; tests check their count",
}

# defaulted parameters that no call in the package or perfbench passes
ALLOWED_UNPASSED = {
    "cli.main(argv)": "the console entry point, called without arguments; "
                      "tests pass argv through it",
}


# functions outside profiles.py that set an attribute on a profile
# parameter, each with its reason; state derived from a profile goes
# through ProfileFunction.derived instead
ALLOWED_PROFILE_WRITES = {}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exports(init: ast.Module) -> list:
    return [alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _params(fn) -> set:
    a = fn.args
    return {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg) if x is not None}


def _reads(tree: ast.AST) -> dict:
    """Name -> one entry per read of it in tree, (the function and class
    definitions that enclose the read, whether it is an attribute read). A
    bare name that is a parameter of an enclosing function reads that
    parameter, not the module-level name, and is left out."""
    out = {}
    stack = [(tree, (), frozenset())]
    while stack:
        node, inside, params = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                inside += (node,)
            # defaults, annotations and decorators are read outside
            body = node.body if isinstance(node.body, list) else [node.body]
            outer = [node.args, *getattr(node, "decorator_list", []),
                     *filter(None, [getattr(node, "returns", None)])]
            stack += [(n, inside, params) for n in outer]
            stack += [(n, inside, params | _params(node)) for n in body]
            continue
        if isinstance(node, ast.ClassDef):
            inside += (node,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in params:
                out.setdefault(node.id, []).append((inside, False))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.setdefault(node.attr, []).append((inside, True))
        stack += [(n, inside, params) for n in ast.iter_child_nodes(node)]
    return out


def _read_outside(name: str, reads: list) -> bool:
    """Whether name is read somewhere outside a definition of that name."""
    return any(all(d.name != name for d in inside)
               for r in reads for inside, _ in r.get(name, ()))


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


def _callables(mods: dict):
    """(label, callee name, def, bound) of every public module-level
    function, public method or property, and constructor; bound when the
    first parameter is self."""
    for stem, tree in mods.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                yield f"{stem}.{node.name}", node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    if fn.name == "__init__":
                        yield f"{stem}.{node.name}", node.name, fn, True
                    elif not fn.name.startswith("_"):
                        yield (f"{stem}.{node.name}.{fn.name}", fn.name, fn,
                               True)


def _calls(trees) -> dict:
    """Callee name -> for each call of it, (positional arguments before
    any starred one, starred, keywords, double-starred)."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            star = [isinstance(a, ast.Starred) for a in node.args]
            out.setdefault(name, []).append((
                star.index(True) if any(star) else len(star), any(star),
                {k.arg for k in node.keywords},
                any(k.arg is None for k in node.keywords)))
    return out


def _perfbench() -> list:
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _unpassed_defaults() -> list:
    mods = _modules()
    mods.pop("__init__")
    calls = _calls([*mods.values(), *_perfbench()])
    out = []
    for label, name, fn, bound in _callables(mods):
        a = fn.args
        positional = [x.arg for x in (*a.posonlyargs, *a.args)][int(bound):]
        defaulted = list(enumerate(positional))[len(positional)
                                                - len(a.defaults):]
        defaulted += [(None, x.arg) for x, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                      if d is not None]
        for i, param in defaulted:
            if not any(param in kw or dstar
                       or (i is not None and (i < npos or star))
                       for npos, star, kw, dstar in calls.get(name, ())):
                out.append(f"{label}({param})")
    return out


def _uncalled_exports() -> list:
    mods = _modules()
    init = mods.pop("__init__")
    reads = [_reads(tree) for tree in mods.values()]
    return [name for name in _exports(init)
            if not _read_outside(name, reads)]


def _unread_methods() -> list:
    mods = _modules()
    reads = [_reads(tree) for tree in mods.values()]
    return [label for label, name, fn, bound in _callables(mods)
            if bound and fn.name != "__init__"
            and not any(attr and fn not in inside
                        for r in reads for inside, attr in r.get(name, ()))]


def _unread_fields() -> list:
    mods = _modules()
    reads = [_reads(tree) for tree in [*mods.values(), *_perfbench()]]
    out = []
    for stem, tree in mods.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in cls.decorator_list)):
                continue
            out += [f"{stem}.{cls.name}.{node.target.id}"
                    for node in cls.body if isinstance(node, ast.AnnAssign)
                    and not any(attr for r in reads
                                for _, attr in r.get(node.target.id, ()))]
    return out


def _profile_writes() -> list:
    """Functions outside profiles.py that assign an attribute to a
    parameter annotated ProfileFunction, by statement or by setattr."""
    out = []
    for stem, tree in _modules().items():
        if stem == "profiles":
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            profiles = {x.arg for x in (*a.posonlyargs, *a.args,
                                        *a.kwonlyargs)
                        if x.annotation is not None
                        and ast.unparse(x.annotation) == "ProfileFunction"}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and \
                        ast.unparse(node.func) in ("setattr",
                                                   "object.__setattr__"):
                    targets = node.args[:1]
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store):
                    targets = [node.value]
                else:
                    continue
                if any(isinstance(t, ast.Name) and t.id in profiles
                       for t in targets):
                    out.append(f"{stem}.{fn.name}")
    return sorted(set(out))


def test_no_module_writes_on_a_profile():
    # profiles are immutable after build; a cache on one belongs to
    # profiles.py, or here with its reason
    writes = [n for n in _profile_writes() if n not in ALLOWED_PROFILE_WRITES]
    assert not writes, f"attributes set on a profile outside profiles.py: " \
                       f"{writes}"


def _profile_caches() -> list:
    """Functions decorated with lru_cache or functools.cache that take a
    parameter annotated ProfileFunction."""
    out = []
    for stem, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {ast.unparse(d.func if isinstance(d, ast.Call) else d)
                     for d in fn.decorator_list}
            a = fn.args
            if names & {"lru_cache", "functools.lru_cache", "cache",
                        "functools.cache"} and any(
                    x.annotation is not None
                    and ast.unparse(x.annotation) == "ProfileFunction"
                    for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)):
                out.append(f"{stem}.{fn.name}")
    return sorted(out)


def test_no_global_cache_keyed_by_a_profile():
    # a global cache would keep the profiles it was asked about, tables and
    # all; ProfileFunction.derived keeps the state on its own profile
    cached = _profile_caches()
    assert not cached, f"global caches taking a profile: {cached}"


def test_every_export_has_a_package_caller():
    uncalled = [n for n in _uncalled_exports() if n not in ALLOWED_UNCALLED]
    assert not uncalled, f"exported but never called in the package: " \
                         f"{uncalled}"


def test_every_method_has_a_package_reader():
    unread = [n for n in _unread_methods() if n not in ALLOWED_UNREAD]
    assert not unread, f"methods never read in the package: {unread}"


def test_every_dataclass_field_has_a_reader():
    unread = [n for n in _unread_fields() if n not in ALLOWED_UNREAD_FIELDS]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_every_default_is_passed_somewhere():
    unpassed = [n for n in _unpassed_defaults() if n not in ALLOWED_UNPASSED]
    assert not unpassed, f"defaulted parameters no call passes; make them " \
                         f"module constants: {unpassed}"


def test_allow_list_is_current():
    # an entry that gained a caller, a reader or a passing call, or whose
    # name is gone, is stale
    assert set(ALLOWED_UNCALLED) <= set(_uncalled_exports())
    assert set(ALLOWED_UNREAD) <= set(_unread_methods())
    assert set(ALLOWED_UNREAD_FIELDS) <= set(_unread_fields())
    assert set(ALLOWED_UNPASSED) <= set(_unpassed_defaults())
    assert set(ALLOWED_PROFILE_WRITES) <= set(_profile_writes())


def test_every_definition_is_exported_or_used():
    mods = _modules()
    exported = set(_exports(mods.pop("__init__")))
    reads = [_reads(tree) for tree in mods.values()]
    dead = [f"{stem}.{name}" for stem, tree in mods.items()
            for name in _definitions(tree)
            if name not in exported and not _read_outside(name, reads)]
    assert not dead, f"neither exported nor used in the package: {dead}"


def test_no_unused_imports():
    unused = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        used = _reads(tree)
        unused += [f"{stem}: {name}" for name in _imported(tree)
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_one_ode_path():
    # every ODE runs on numerics.dop853; scipy's solve_ivp is a test oracle
    users = [stem for stem, tree in _modules().items()
             if "solve_ivp" in _imported(tree)
             or "solve_ivp" in _reads(tree)]
    assert not users, f"modules that use solve_ivp: {users}"


def _scipy_imports(tree: ast.Module) -> list:
    """The names of the scipy modules that tree imports, at load time or
    inside a function."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        out += [name for name in names if name.split(".")[0] == "scipy"]
    return out


def test_no_scipy_in_the_package():
    # numpy is the one runtime dependency; scipy is a test oracle
    found = {stem: names for stem, tree in _modules().items()
             if (names := _scipy_imports(tree))}
    assert not found, f"modules that import scipy: {found}"


# A fresh process in which importing scipy raises runs every CLI command,
# on a samples-kind profile JSON wherever a command takes a profile, and
# the package's other layers on the builtin kinds.
_NO_SCIPY = """
import json
import math
import os
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")


sys.meta_path.insert(0, NoScipy())
import numpy as np
from magflow import contact, flow, hopf, profiles, reduced
from magflow.cli import main

out = sys.argv[1]
for spec in ("ellipsoid:1.5", "spindle:0.07:0.2"):
    p = profiles.parse_profile_spec(spec)
    assert profiles.validate(p).passed
    contact.contact_interval(p)
    reduced.action_scan(p, 0.8, n_levels=10)
    p.point_jet()(0.5 * p.ell)
    traj = flow.integrate(p, 0.8, (0.5 * p.ell, 0.4, 0.0), 10.0)
    assert not traj.pole_terminated
p = profiles.parse_profile_spec("ellipsoid:2")
assert len(reduced.rational_closures(p, 1.0021, n_levels=11, q_max=5)) == 5
flow.level_average_ode(p, 0.8, float(reduced.regular_levels(p, 0.8, 5)[2]))
p = profiles.parse_profile_spec("sphere")
g, G = p.jet(1.0, 0)
assert flow.integrate(p, 1.0, (1.0, math.pi - math.asin((1.0 + G) / g), 0.0),
                      50.0).pole_terminated
s = np.linspace(0.0, 2.0 * np.pi, 257)
circle = np.stack([np.cos(s), np.sin(s)] * 2, axis=1)
twist = np.stack([0.6 * np.cos(2 * s), 0.6 * np.sin(2 * s),
                  0.8 * np.cos(s), 0.8 * np.sin(s)], axis=1)
assert hopf.antipodal_link_parity(hopf.KnotPolyline(twist)).lk == 2

base = profiles.make_ellipsoid(1.5)
t = np.linspace(0.0, base.ell, 257)
samples = os.path.join(out, "samples.json")
profiles.save_profile(profiles.SplineProfile(t, base.gamma(t)), samples)
knots = []
for k, pts in enumerate([circle * [1, 1, 0, 0], circle * math.sqrt(0.5)]):
    knots.append(os.path.join(out, f"knot{k}.json"))
    with open(knots[-1], "w") as fh:
        json.dump(pts.tolist(), fh)
trace = os.path.join(out, "trace.csv")
for argv in (
        ["profile", "make", samples, "--out", os.path.join(out, "p.json"),
         "--table", os.path.join(out, "p.csv"), "--samples", "32"],
        ["profile", "check", samples],
        ["contact", "bounds", samples],
        ["action", "scan", samples, "--m", "0.8", "--levels", "9"],
        ["flow", "trace", samples, "--m", "0.8", "--state", "1.0,0.4,0",
         "--horizon", "10", "--out", trace],
        ["cz", "latitude", samples, "--m", "0.5"],
        ["cz", "report", samples, "--m", "0.5", "--levels", "9",
         "--rho-orbits", "2"],
        ["hopf", "verify", "--samples", "200"],
        ["hopf", "link", *knots],
        ["hopf", "lift", trace, "--profile", samples],
        ["repro", "ellipsoids", "--ratios", "1,2", "--m", "0.5",
         "--levels", "9"],
        ["repro", "noncon", "--delta", "0.1", "--eps", "0.9"],
        ["repro", "bigm", "--target", "3"]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_package_runs_without_scipy(tmp_path):
    # a fresh process: import, the tabulated builds, their jets, bounds and
    # scans, a flow run that meets no event and one stopped by the pole
    # guard, a terminal section event, the closure search, linking numbers,
    # and every CLI command, on a samples profile where it takes one
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[-2] == "[]", run.stdout

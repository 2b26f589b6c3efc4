"""No unused imports and no dead names.

Fails with file:line:name for every name a module in src/ or tests/
imports and never uses (__init__.py re-exports and names a module lists
in __all__ are exempt), and for every module-level function, class,
method or assigned name in src/, or in a helper module of tests/ (one
that holds no tests and is no conftest), that nothing in src/, tests/ or
perfbench/ uses besides its definition.  Dunder names are exempt.

- A module-level name is used only through a mention that can reach it:
  a loaded name in its own module, an import of it from that module, an
  attribute of a name bound to that module, or a string that spells it.
  A function that only an unrelated name elsewhere shares is dead.
- A method is used when any file mentions its name (a loaded name, an
  attribute, an imported name or a string), or when a base class from
  outside these modules defines it, as ``io.RawIOBase`` defines
  ``readinto``, which ``io`` calls.  The class's MRO decides, so no name
  that only agilecrypt defines is exempt.

Paths count from the repository root, whichever directory the suite runs
from.  And no stale export: every name an agilecrypt module lists in
__all__ is an attribute of that module.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import agilecrypt

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _defines_api(path: pathlib.PurePath) -> bool:
    """src/ modules and the test helper modules, whose names other files use."""
    if path.parts[0] == "tests":
        return not path.name.startswith("test_") and path.name != "conftest.py"
    return path.parts[0] == "src"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: pathlib.PurePath) -> str:
    """The name a file is imported by: files in src/ by their package
    path, the top-level files of tests/ and perfbench/ by their own."""
    parts = path.with_suffix("").parts[1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_source(node: ast.ImportFrom, path: pathlib.PurePath) -> str:
    """The module a ``from ... import`` in ``path`` reads from."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def _bound_module(node: ast.expr, bound: dict[str, str], modules: set[str]) -> str | None:
    """The module that a name, or a chain of attributes on one, is bound to."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        parent = _bound_module(node.value, bound, modules)
        if parent and f"{parent}.{node.attr}" in modules:
            return f"{parent}.{node.attr}"
    return None


def _overrides_outside(module: str, cls_name: str, name: str, local: set[str]) -> bool:
    """Whether a base of ``module.cls_name`` from outside the scanned
    modules and agilecrypt defines ``name``."""
    cls = getattr(importlib.import_module(module), cls_name, None)
    return isinstance(cls, type) and any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if base.__module__ not in local and base.__module__.split(".")[0] != "agilecrypt"
    )


def test_no_unused_imports_and_no_dead_names():
    trees = {
        path: ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path))
        for top in ("src", "tests", "perfbench")
        for path in sorted(p.relative_to(ROOT) for p in (ROOT / top).rglob("*.py"))
    }
    modules = {_module_name(path) for path in trees}
    failures, mentioned, spelled, reached = [], set(), set(), set()
    for path, tree in trees.items():
        here = _module_name(path)
        imported, used, bound = {}, set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported[local] = node.lineno
                    bound[local] = alias.name if alias.asname else local
                    mentioned.add(alias.name.split(".")[-1])
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                source = _import_source(node, path)
                for alias in node.names:
                    local = alias.asname or alias.name
                    imported[local] = node.lineno
                    mentioned.add(alias.name)
                    reached.add((source, alias.name))
                    if f"{source}.{alias.name}" in modules:
                        bound[local] = f"{source}.{alias.name}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
                if not isinstance(node.ctx, ast.Store):
                    mentioned.add(node.id)
                    reached.add((here, node.id))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                spelled.add(node.value)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(elt.value for elt in node.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
                owner = _bound_module(node.value, bound, modules)
                if owner:
                    reached.add((owner, node.attr))
        if path.parts[0] in ("src", "tests") and path.name != "__init__.py":
            failures += [f"{path}:{line}:{name}" for name, line in imported.items() if name not in used]
    mentioned |= spelled
    local_modules = {_module_name(path) for path in trees if path.parts[0] != "src"}
    for path, tree in trees.items():
        if not _defines_api(path):
            continue
        here = _module_name(path)
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append((node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            failures += [
                f"{path}:{line}:{name}" for name, line in names
                if (here, name) not in reached and name not in spelled and not _is_dunder(name)
            ]
            if isinstance(node, ast.ClassDef):
                failures += [
                    f"{path}:{method.lineno}:{method.name}"
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name not in mentioned
                    and not _is_dunder(method.name)
                    and not _overrides_outside(here, node.name, method.name, local_modules)
                ]
    assert not failures, "\n".join(failures)


def test_every_all_entry_resolves():
    modules = ["agilecrypt"] + [
        info.name for info in pkgutil.walk_packages(agilecrypt.__path__, "agilecrypt.")
    ]
    failures = []
    for name in modules:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        failures += [f"{name}.__all__:{entry}" for entry in exported if not hasattr(module, entry)]
    assert not failures, "\n".join(failures)

"""No unused imports and no dead names.

Fails with file:line:name for every name a module in src/ or tests/
imports and never uses (__init__.py re-exports and names a module lists
in __all__ are exempt), and for every module-level function, class,
method or assigned name in src/, or in a helper module of tests/ (one
that holds no tests and is no conftest), that no file in src/, tests/ or
perfbench/ mentions besides its definition.  A mention is a loaded name,
an attribute, an imported name or a string that spells the name; dunder
names are exempt.  Paths count from the repository root, whichever
directory the suite runs from.  And no stale export: every name an
agilecrypt module lists in __all__ is an attribute of that module.
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


def test_no_unused_imports_and_no_dead_names():
    trees = {
        path: ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path))
        for top in ("src", "tests", "perfbench")
        for path in sorted(p.relative_to(ROOT) for p in (ROOT / top).rglob("*.py"))
    }
    failures, mentioned = [], set()
    for path, tree in trees.items():
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                    mentioned.add(alias.name.split(".")[-1])
            elif isinstance(node, ast.Name):
                used.add(node.id)
                if not isinstance(node.ctx, ast.Store):
                    mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                mentioned.add(node.value)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(elt.value for elt in node.value.elts)
        if path.parts[0] in ("src", "tests") and path.name != "__init__.py":
            failures += [f"{path}:{line}:{name}" for name, line in imported.items() if name not in used]
    for path, tree in trees.items():
        if not _defines_api(path):
            continue
        for node in tree.body:
            defs = [node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            names = [(d.name, d.lineno) for d in defs]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            failures += [
                f"{path}:{line}:{name}" for name, line in names
                if name not in mentioned and not (name.startswith("__") and name.endswith("__"))
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

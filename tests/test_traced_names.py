"""Every function the benchmark's tracer wraps is still where it looks.

perfbench/spans.py names the agilecrypt functions it records spans
around (``_targets``) and replaces each binding of them it finds in the
loaded agilecrypt modules (``_bindings``).  A traced function that moved
or was renamed makes ``_targets`` fail, and one that no module or class
holds any more would be traced nowhere.  This reads spans.py and changes
nothing in it.
"""

from __future__ import annotations

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_and_is_bound():
    spans = _spans_module()
    targets = spans._targets()
    assert targets
    unbound = [
        f"{layer}:{name if isinstance(name, str) else name.__name__}"
        for layer, name, fn, _ in targets
        if next(spans._bindings(fn), None) is None
    ]
    assert unbound == []

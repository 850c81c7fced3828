"""The functions the benchmark's traced run wraps must exist where it looks.

`bench/layers.py` lists them in SPANS as (span name, module, class or None,
attribute).  The traced run replaces each by a timing wrapper, so a function
inlined into its caller or moved breaks it; this test breaks first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _spans():
    # Read, not imported: SPANS is a literal tuple.
    tree = ast.parse(LAYERS.read_text(), str(LAYERS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {LAYERS}")


@pytest.mark.parametrize("span", _spans(), ids=lambda s: s[0])
def test_span_target_resolves_in_qwinsim(span):
    _name, module, cls, attr = span
    owner = importlib.import_module(f"qwinsim.{module}")
    if cls is None:
        target = getattr(owner, attr)
    else:
        owner = getattr(owner, cls)
        # The tracer patches the class's own attribute, not an inherited one.
        target = owner.__dict__[attr]
        if isinstance(target, property):
            target = target.fget
    assert inspect.isfunction(target), f"{module}.{cls}.{attr} is not a function"
    assert target.__module__.startswith("qwinsim."), target.__module__

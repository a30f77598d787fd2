"""Every name the benchmark's tracer (bench/tracer.py) wraps or reads still
resolves in the package. The tracer matches functions by these dotted
names, so a method renamed without it would silently zero a per-layer
metric. The names are read from the tracer's source with `ast`: the
entries of COUNT_ONLY, COUNTED_DUNDERS and VALUE_TYPES, and the string
arguments of its `_calls`, `_incl` and `_self` calls."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_names():
    tree = ast.parse(TRACER.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("COUNT_ONLY", "COUNTED_DUNDERS", "VALUE_TYPES")
                for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("_calls", "_incl", "_self")):
            names.update(arg.value for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return sorted(names)


NAMES = tracer_names()


def test_every_kind_of_tracer_name_is_read():
    # one entry from each set, and one argument of each metric helper
    assert {"quantum.GWTable.query", "novikov.NovikovElement.__mul__", "novikov.H2Class",
            "_linalg.rref", "fibration.mirror", "cli.main"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_a_traced_name_resolves_in_the_package(name):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"qhfib.{layer}")
    for attr in path:
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)
    assert callable(obj) or isinstance(obj, type), name

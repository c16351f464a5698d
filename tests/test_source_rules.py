"""Rules on the library source itself, checked with the standard library."""

import ast
import importlib
import pathlib

import ppinv

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ppinv"
BENCH = ROOT / "bench"


def test_library_has_no_assert_statements():
    # python -O strips assert, and certification must not vanish with it
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


# The one place that turns text into numbers: command-line values, the
# expression grammar's integer literals and JSON object keys.  Every other
# number is taken as is by gf_core.check_int, never coerced with int().
TEXT_PARSERS = {("cli.py", "_field_from_args"), ("cli.py", "_cmd_interpolate"),
                ("poly_expr.py", "_Parser.int_literal"),
                ("agw_inverse.py", "family_from_descriptor")}


def _int_calls(node, scope=""):
    """(enclosing qualified name, line) of every int(...) call under node."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "int"):
            yield name, child.lineno
        yield from _int_calls(child, name)


def test_library_coerces_no_number_with_int():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    calls = [(path.name, scope, line) for path in paths
             for scope, line in _int_calls(
                 ast.parse(path.read_text(encoding="utf-8")))]
    found = [f"{name}:{line} in {scope or '<module>'}"
             for name, scope, line in calls
             if (name, scope) not in TEXT_PARSERS]
    assert not found, f"int() outside the text parsers: {found}"
    # the allow-list names parsers that exist, so it cannot go stale
    assert TEXT_PARSERS <= {(name, scope) for name, scope, _ in calls}


# The benchmark calls the library by name: tracing.py wraps the functions
# in its LAYERS table, and workloads.py calls ppinv.<name>.  Both are read
# as source, so a deletion or rename of one of these names fails here
# rather than only in the benchmark's own smoke test.

def _bench_tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_traced_layers_exist():
    layers = next(ast.literal_eval(node.value)
                  for node in _bench_tree("tracing.py").body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS"
                          for t in node.targets))
    missing = [f"ppinv.{mod}.{fn}" for mod, fns in layers.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(
                   f"ppinv.{mod}"), fn, None))]
    assert layers and not missing, f"traced names missing: {missing}"


def test_workload_names_exist():
    # reads of ppinv.<name> and self.ppinv.<name>
    names = {node.attr for node in ast.walk(_bench_tree("workloads.py"))
             if isinstance(node, ast.Attribute)
             and (getattr(node.value, "id", None) == "ppinv"
                  or getattr(node.value, "attr", None) == "ppinv")}
    missing = sorted(name for name in names if not hasattr(ppinv, name))
    assert names and not missing, f"ppinv names missing: {missing}"

"""Rules on the library source itself, checked with the standard library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ppinv"


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

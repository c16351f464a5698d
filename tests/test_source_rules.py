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

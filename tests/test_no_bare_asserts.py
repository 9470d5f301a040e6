"""The program guards its invariants with raises, not `assert` statements,
which `python -O` strips."""

import ast
import pathlib

import quivercy

SOURCES = sorted(pathlib.Path(quivercy.__file__).parent.glob("*.py"))


def test_the_sources_have_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found

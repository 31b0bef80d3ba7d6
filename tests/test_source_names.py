"""No test-only code in the package: every function and class that
``src/bgret`` defines is named by the package or by the benchmark. What only
the tests call lives in ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(folder: str) -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / folder).glob("*.py"))]


def defined_names(trees: list) -> set:
    """Every function and class defined at any depth, dunders aside."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def named(trees: list, strings: bool = False) -> set:
    """The names read as a Name, an Attribute or an import alias and, with
    strings, each dotted part of a string constant (perfbench's TARGETS and
    span names name functions by string)."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split("."))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.split("."))
    return out


def test_every_package_function_and_class_is_named_by_the_program_or_the_benchmark():
    package = _trees("src/bgret")
    unnamed = defined_names(package) - named(package) - named(_trees("perfbench"), strings=True)
    assert unnamed == set()

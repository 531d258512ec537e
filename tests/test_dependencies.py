"""The library depends only on numpy and click: every absolute import of
every module under ``src/fsjet`` names the standard library, numpy or
click."""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = {"numpy", "click"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fsjet").rglob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the absolute imports in ``source`` that are
    neither in the standard library nor allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.split(".")[0] for name in names)
    return [t for t in tops if t not in sys.stdlib_module_names and t not in ALLOWED]


def test_the_guard_sees_every_module_and_a_foreign_import():
    assert len(SOURCES) >= 10
    assert foreign_imports("import scipy.optimize\nfrom . import jets") == ["scipy"]
    assert foreign_imports("from sympy import Rational\nimport numpy as np") == ["sympy"]
    assert foreign_imports("from .tensors import layout\nimport itertools") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_click(path):
    assert foreign_imports(path.read_text()) == []

"""No module of the package (its `__init__` aside, which re-exports)
imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

import ncham

MODULES = sorted(p for p in Path(ncham.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by an import anywhere in `source` and never read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import re as regex\n"
              "from fractions import Fraction\n"
              "from math import gcd\n"
              "def f(x: Fraction):\n"
              "    from sys import argv\n"
              "    return gcd(x, 2)\n")
    assert unused_imports(source) == ["argv", "os", "regex"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

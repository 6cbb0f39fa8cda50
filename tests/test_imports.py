"""Every import in the package modules is used (`__init__.py` re-exports
its imports and is exempt)."""

import ast
from pathlib import Path

import pytest

import adexsim

MODULES = sorted(p for p in Path(adexsim.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'name (line n)' for each name an import binds and the module never
    reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .model import simulate, step as one_step\nprint(os.path, one_step)\n")
    assert unused_imports(source) == ["math (line 2)", "simulate (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""The package imports no third-party module that pyproject.toml does not
declare as a runtime dependency, and declares none it does not import: a
stray runtime import, even one inside a function, fails here."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soboheat"


def _third_party_imports() -> set:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {PACKAGE.name, "__future__"}


def _runtime_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in project["dependencies"]}


def test_runtime_imports_are_the_declared_dependencies():
    assert _third_party_imports() == _runtime_dependencies() == {"numpy"}

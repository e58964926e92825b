"""The runtime dependencies in pyproject.toml are exactly the ones src/ imports.

An undeclared import works here only because the package happens to be
installed, and a declared one that nothing imports is installed for nothing.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
# distribution name -> the top-level module it installs, where the two differ
MODULE_OF = {"pyyaml": "yaml"}


def declared_modules() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in requirements)
    return {MODULE_OF.get(name, name.replace("-", "_")) for name in names}


def imported_modules() -> set[str]:
    found = set()
    for path in sorted((ROOT / "src" / "annoforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"annoforge"}


def test_every_third_party_import_is_declared():
    assert imported_modules() - declared_modules() == set()


def test_every_declared_dependency_is_imported():
    assert declared_modules() - imported_modules() == set()

"""Module boundaries: package modules use each other's public surface only.

Parses every module under ``src/dcekit`` and fails on any import of a
``_private`` name from a sibling module (``from .protocol import _core``,
``from dcekit.numerics import _helper``).  Dunder names are not private.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcekit"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "dcekit"
        if not sibling:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module}")
    return found


def test_package_modules_found():
    assert {"protocol.py", "simkit.py", "estimator.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_imports_from_siblings(path):
    assert _private_imports(path) == []


def test_detects_private_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .protocol import _core, run_rounds\nfrom . import __version__\n")
    assert _private_imports(src) == ["mod.py:1 imports _core from protocol"]
